"""Command-line interface: design bounds, sweeps, and figure-data reproduction.

All physics inputs come from a single JSON config document (no hidden
defaults for physical parameters; tool defaults exist only for tolerances,
grids, and output paths).  Outputs are deterministic: identical config and
seed produce byte-identical CSV files, and every output embeds the config
hash it was produced from.

Exit codes: 0 success, 2 config/domain error, 3 numeric-regime error,
4 I/O error.  Set MAGNON_MEMORY_LOG to control log verbosity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .boson import DEFAULT_CHI_THRESHOLD, BosonModel
from .decoherence import (
    LargeNFidelityParams,
    SmallNFidelityParams,
    decay_rate,
    default_broadening,
    adiabaticity,
    fidelity_large_n,
    fidelity_small_n,
    numeric_fidelity,
    omega_shift,
)
from .errors import DomainError, MagnonMemoryError, RegimeError, ResourceLimitError
from .exact import build_exact, product_state, up_population
from .model import (
    PhysicalParams,
    chi_spectrum,
    custom_profile,
    dispersion,
    effective_coupling,
    gaussian_profile,
    homogeneous_profile,
    swap_time,
)
from .protocol import (
    QubitState,
    map_fidelity,
    process_fidelity_roundtrip,
    round_trip,
    roundtrip_unitary,
    store_outcome,
    uhlmann_fidelity,
)

__all__ = [
    "RunConfig",
    "SweepResult",
    "max_n_for_temperature",
    "run_sweep",
    "reproduce_figure",
    "main",
]

log = logging.getLogger("magnon_memory")

DEFAULT_N_CAP = 1_000_000


# ---------------------------------------------------------------------------
# design bound

def max_n_for_temperature(kbt: float, J: float, s: float,
                          cap: int = DEFAULT_N_CAP) -> int:
    """Largest ring size whose level spacing beats thermal fluctuations.

    N <= pi / arcsin(sqrt(k_B T / 4 J s)); returns the floor of the bound,
    capped at ``cap`` for k_B T -> 0.  Requires k_B T <= 4 J s, otherwise
    no N satisfies the premise.
    """
    if kbt <= 0:
        raise DomainError(f"k_B T must be > 0, got {kbt}")
    if J <= 0:
        raise DomainError(f"J must be > 0, got {J}")
    if s <= 0:
        raise DomainError(f"s must be > 0, got {s}")
    x = kbt / (4.0 * J * s)
    if x > 1.0:
        raise DomainError(
            f"k_B T = {kbt} exceeds 4 J s = {4 * J * s}: no N satisfies the bound"
        )
    bound = math.pi / math.asin(math.sqrt(x))
    if bound >= cap:
        return int(cap)
    return int(math.floor(bound + 1e-9))


# ---------------------------------------------------------------------------
# config handling

_PARAM_KEYS = ("N", "s", "J", "B0", "lambda", "g_e", "g_n", "mu_B", "mu_n")


def _params_from_dict(d: dict) -> PhysicalParams:
    missing = [k for k in _PARAM_KEYS if k not in d]
    if missing:
        raise DomainError(f"config params block is missing {missing}")
    return PhysicalParams(
        N=d["N"], s=d["s"], J=d["J"], B0=d["B0"], lam=d["lambda"],
        g_e=d["g_e"], g_n=d["g_n"], mu_B=d["mu_B"], mu_n=d["mu_n"],
    )


def _profile_from_dict(d: dict, N: int, lam: float = 1.0):
    # the site-coupling scale defaults to the declared hyperfine lam.  The
    # exact oracle uses the raw lambda_l, while the bosonized model fixes the
    # memory coupling at g and scales the spectators by chi_k; the two routes
    # see the same couplings only when chi_N = mean(lambda_l)/chi_reference
    # is 1 (homogeneous rings, custom rings with mean(lambda_l) = lambda_1)
    kind = d.get("kind")
    if kind == "homogeneous":
        return homogeneous_profile(N, d.get("lambda", lam))
    if kind == "gaussian":
        if "sigma" not in d:
            raise DomainError("gaussian profile needs a sigma entry")
        return gaussian_profile(N, d["sigma"], d.get("lambda", lam))
    if kind == "custom":
        if "lambdas" not in d:
            raise DomainError("custom profile needs a lambdas list")
        lambdas = np.asarray(d["lambdas"], dtype=float)
        if lambdas.size != N:
            raise DomainError("custom profile length must equal params N")
        return custom_profile(lambdas)
    raise DomainError(f"unknown profile kind {kind!r}")


@dataclass
class RunConfig:
    """Parsed configuration: physics inputs, sweep axes, outputs, seed."""

    raw: dict
    params: PhysicalParams | None = None
    profile: object = None
    out_dir: Path = field(default_factory=lambda: Path("out"))
    seed: int = 0
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str, out_override: str | None = None,
                  seed_override: int | None = None) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise DomainError(f"config {path} is not valid JSON: {err}") from err
        return cls.from_dict(raw, out_override, seed_override)

    @classmethod
    def from_dict(cls, raw: dict, out_override: str | None = None,
                  seed_override: int | None = None) -> "RunConfig":
        cfg = cls(raw=raw)
        if "params" in raw:
            cfg.params = _params_from_dict(raw["params"])
            if "profile" in raw:
                cfg.profile = _profile_from_dict(raw["profile"], cfg.params.N,
                                                 cfg.params.lam)
        cfg.tolerances = dict(raw.get("tolerances", {}))
        cfg.seed = int(seed_override if seed_override is not None
                       else raw.get("seed", 0))
        out = out_override or raw.get("output", {}).get("dir", "out")
        cfg.out_dir = Path(out)
        return cfg

    @property
    def config_hash(self) -> str:
        canon = dict(self.raw)
        canon["seed"] = self.seed
        blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def require_params(self) -> PhysicalParams:
        if self.params is None:
            raise DomainError("this command needs a 'params' block in the config")
        return self.params

    def require_profile(self):
        self.require_params()
        if self.profile is None:
            raise DomainError("this command needs a 'profile' block in the config")
        return self.profile

    def broadening(self) -> float:
        eta = self.raw.get("eta")
        return float(eta) if eta is not None else default_broadening(self.require_params())

    def time_grid(self) -> np.ndarray:
        spec = self.raw.get("time_grid", {})
        t0 = swap_time(self.require_params())
        t_max = float(spec.get("t_max_over_t0", 2.0)) * t0
        points = int(spec.get("points", 201))
        if points < 2:
            raise DomainError("time_grid.points must be >= 2")
        return np.linspace(0.0, t_max, points)

    def ensure_out_dir(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if not os.access(self.out_dir, os.W_OK):
            raise OSError(f"output directory {self.out_dir} is not writable")
        return self.out_dir


# ---------------------------------------------------------------------------
# output helpers

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".16e")
    return "" if x is None else str(x)


def write_csv(path: Path, header: list, rows: list, config_hash: str):
    lines = [f"# config_hash={config_hash} version={__version__}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    log.info("wrote %s (%d rows)", path, len(rows))


def write_json(path: Path, payload: dict, config_hash: str):
    doc = {"config_hash": config_hash, "version": __version__}
    doc.update(payload)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    log.info("wrote %s", path)


def write_table(cfg: RunConfig, name: str, header: list, rows: list,
                fmt: str, sidecar: dict | None = None) -> Path:
    out = cfg.ensure_out_dir()
    if fmt == "json":
        path = out / f"{name}.json"
        # the table's header and rows win over sidecar keys of the same name
        write_json(path, {**(sidecar or {}), "header": header,
                          "rows": [[None if v == "" else v for v in r] for r in rows]},
                   cfg.config_hash)
    else:
        path = out / f"{name}.csv"
        write_csv(path, header, rows, cfg.config_hash)
        if sidecar is not None:
            write_json(out / f"{name}_params.json", sidecar, cfg.config_hash)
    return path


def _c2j(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, complex)]


def _j2c(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj])


# ---------------------------------------------------------------------------
# sweep machinery

_AXIS_PARAM_KEYS = set(_PARAM_KEYS)

SWEEP_COLUMNS = [
    "g", "t0", "eta", "gamma", "max_r", "omega_shift", "sum_chi_sq",
    "F_analytic_t0", "F_numeric_t0", "leakage", "error",
]


@dataclass
class SweepResult:
    """Rows of derived quantities over a parameter grid, plus provenance."""

    axes: list
    header: list
    rows: list
    version: str
    config_hash: str


def _sweep_point(cfg: RunConfig, overrides: dict) -> dict:
    """Evaluate one grid point: the config's ring with the point's values.

    A quantity whose preconditions fail is left empty and tagged in the
    row's error column; the other columns are still filled.
    """
    pd = dict(cfg.raw["params"])
    prof = dict(cfg.raw.get("profile", {"kind": "homogeneous"}))
    eta_override = None
    for name, value in overrides.items():
        if name in _AXIS_PARAM_KEYS:
            pd[name] = value
        elif name == "sigma":
            prof["kind"] = "gaussian"
            prof["sigma"] = value
        elif name == "eta":
            eta_override = value
        else:
            raise DomainError(f"unknown sweep axis {name!r}")

    row = {k: "" for k in SWEEP_COLUMNS}
    errors = []

    def attempt(key, fn):
        try:
            row[key] = fn()
            return row[key]
        except MagnonMemoryError as err:
            errors.append(f"{key}: {type(err).__name__}: {err}")

    try:
        params = _params_from_dict(pd)
        profile = _profile_from_dict(prof, params.N, params.lam)
    except MagnonMemoryError as err:
        row["error"] = f"setup: {type(err).__name__}: {err}"
        return row

    # one model, so F_numeric and leakage share its propagator (one eigensolve)
    model = _model_from_cfg(cfg, params, profile)
    chi = model.chi
    row["g"] = effective_coupling(params)
    row["t0"] = swap_time(params)
    row["sum_chi_sq"] = chi.spectator_weight()

    eta_in = cfg.raw.get("eta") if eta_override is None else eta_override
    eta = attempt("eta", lambda: default_broadening(params) if eta_in is None
                  else float(eta_in))
    gamma = None if eta is None else attempt(
        "gamma", lambda: decay_rate(params, chi, eta))
    attempt("max_r", lambda: adiabaticity(params, chi).max_ratio)
    attempt("omega_shift", lambda: omega_shift(params, chi))
    if gamma is not None:
        attempt("F_analytic_t0", lambda: fidelity_large_n(
            row["t0"], LargeNFidelityParams(gamma, row["g"])))
    attempt("F_numeric_t0", lambda: float(numeric_fidelity(model, [row["t0"]]).f[0]))

    def leaked():
        s = 1.0 / math.sqrt(2.0)
        return store_outcome(QubitState.pure(s, s), model).leakage

    attempt("leakage", leaked)
    row["error"] = "; ".join(errors)
    return row


def run_sweep(cfg: RunConfig) -> SweepResult:
    """Cartesian sweep over the configured axes; one row per grid point."""
    spec = cfg.raw.get("sweep")
    if not spec or not spec.get("axes"):
        raise DomainError("config needs a sweep.axes list")
    axes = spec["axes"]
    for ax in axes:
        if not ax.get("grid"):
            raise DomainError(f"sweep axis {ax.get('name')!r} has an empty grid")
    if "params" not in cfg.raw:
        raise DomainError("sweep needs a params block for the non-swept values")

    names = [ax["name"] for ax in axes]
    grids = [list(ax["grid"]) for ax in axes]
    points = [{}]
    for name, grid in zip(names, grids):
        points = [dict(p, **{name: v}) for p in points for v in grid]

    results = [_sweep_point(cfg, p) for p in points]
    # a swept eta is already an axis column; its derived copy is left out
    columns = [c for c in SWEEP_COLUMNS if c not in names]
    header = names + columns
    rows = [[p[n] for n in names] + [r[c] for c in columns]
            for p, r in zip(points, results)]
    return SweepResult(axes, header, rows, __version__, cfg.config_hash)


# ---------------------------------------------------------------------------
# figure datasets

FIGURES = ("fig3", "fig4", "fig5")


def reproduce_figure(name: str, cfg: RunConfig | None = None):
    """Sampled dataset behind one of the reference curves.

    fig3: |chi_k| for k = 1..99 at N = 100, gaussian widths 0.05N/0.1N/0.2N.
    fig4: large-N fidelity at gamma/g = 0.02, t in units of 1/g, with the
          storage instant pi/(2g) marked.
    fig5: small-N fidelity at |g / 2 Omega'| = 0.025, both 1/g and 1/Delta1
          time scalings emitted (Delta1 defaults to g).

    The curves are dimensionless; when a config with params is supplied an
    absolute-time column is added.
    """
    if name not in FIGURES:
        raise DomainError(f"unknown figure {name!r}; expected one of {FIGURES}")
    fig_cfg = (cfg.raw.get("figure", {}) if cfg else {})
    g_abs = effective_coupling(cfg.params) if cfg and cfg.params else None

    if name == "fig3":
        N = 100
        header = ["sigma_over_N", "k", "abs_chi", "re_chi", "im_chi"]
        rows = []
        for frac in (0.05, 0.1, 0.2):
            chi = chi_spectrum(gaussian_profile(N, frac * N)).chi
            for k in range(1, N):
                v = chi[k - 1]
                rows.append([frac, k, abs(v), v.real, v.imag])
        sidecar = {"N": N, "widths_over_N": [0.05, 0.1, 0.2]}
        return header, rows, sidecar

    if name == "fig4":
        ratio = float(fig_cfg.get("gamma_over_g", 0.02))
        p = LargeNFidelityParams(gamma=ratio, g=1.0)
        mark = math.pi / 2.0
        tg = _marked_grid(fig_cfg, mark)
        header = ["t_times_g", "fidelity", "at_storage_instant"]
        rows = [[t, fv, int(t == mark)] for t, fv in zip(tg, fidelity_large_n(tg, p))]
        sidecar = {"gamma_over_g": ratio, "phi": p.phi,
                   "storage_instant_times_g": mark}
    else:
        shift_ratio = float(fig_cfg.get("omega_shift_over_g", -20.0))
        delta1_over_g = float(fig_cfg.get("delta1_over_g", 1.0))
        p = SmallNFidelityParams(omega_shift=shift_ratio, g=1.0, delta1=delta1_over_g)
        mark = math.pi / (2.0 * p.delta1)
        tg = _marked_grid(fig_cfg, mark)
        header = ["t_times_g", "t_times_delta1", "fidelity", "at_storage_instant"]
        rows = [[t, t * p.delta1, fv, int(t == mark)]
                for t, fv in zip(tg, fidelity_small_n(tg, p))]
        sidecar = {
            "omega_shift_over_g": shift_ratio,
            "g_over_2_omega_shift": 1.0 / (2.0 * shift_ratio),
            "delta1_over_g": delta1_over_g,
            "xi_cos": p.cos_xi, "xi_sin": p.sin_xi,
            "storage_instant_times_delta1": mark * p.delta1,
        }
    if g_abs:
        header.append("t")
        for row, t in zip(rows, tg):
            row.append(t / g_abs)
    return header, rows, sidecar


def _marked_grid(fig_cfg: dict, mark: float) -> np.ndarray:
    """The figure's t*g grid on [0, t_max_times_g], with the instant ``mark`` added."""
    points = int(fig_cfg.get("points", 1001))
    t_max_g = float(fig_cfg.get("t_max_times_g", 5.0))
    return np.unique(np.concatenate([np.linspace(0.0, t_max_g, points), [mark]]))


# ---------------------------------------------------------------------------
# command handlers

def _cmd_dispersion(cfg: RunConfig, args) -> int:
    params = cfg.require_params()
    rows = [[k, dispersion(params, k)] for k in range(1, params.N + 1)]
    write_table(cfg, "dispersion", ["k", "omega"], rows, args.format,
                {"N": params.N, "J": params.J, "B0": params.B0})
    return 0


def _cmd_chi(cfg: RunConfig, args) -> int:
    profile = cfg.require_profile()
    chi = chi_spectrum(profile).chi
    rows = [[k, abs(chi[k - 1]), chi[k - 1].real, chi[k - 1].imag]
            for k in range(1, profile.N + 1)]
    write_table(cfg, "chi", ["k", "abs_chi", "re_chi", "im_chi"], rows,
                args.format, {"kind": profile.kind, "sigma": profile.sigma})
    return 0


def _load_rho(cfg: RunConfig) -> QubitState:
    if "rho" not in cfg.raw:
        raise DomainError("this command needs a 'rho' 2x2 matrix "
                          "(entries as [re, im] pairs) in the config")
    return QubitState(_j2c(cfg.raw["rho"]))


def _model_from_cfg(cfg: RunConfig, params: PhysicalParams | None = None,
                    profile=None) -> BosonModel:
    """The config's model, or a sweep point's, with the config's chi threshold."""
    if params is None:
        params, profile = cfg.params, cfg.require_profile()
    threshold = cfg.tolerances.get("chi_threshold", DEFAULT_CHI_THRESHOLD)
    return BosonModel(params, chi_spectrum(profile), chi_threshold=threshold)


def _cmd_store(cfg: RunConfig, args) -> int:
    rho = _load_rho(cfg)
    model = _model_from_cfg(cfg)
    out = store_outcome(rho, model)
    payload = {
        "input_rho": _c2j(rho.rho),
        "stored_w": _c2j(out.stored.w),
        "leakage": out.leakage,
        "fidelity": map_fidelity(rho, out.stored),
        "t0": swap_time(cfg.params),
        "params": cfg.raw["params"],
    }
    write_json(cfg.ensure_out_dir() / "store.json", payload, cfg.config_hash)
    return 0


def _cmd_retrieve(cfg: RunConfig, args) -> int:
    rho = _load_rho(cfg)
    model = _model_from_cfg(cfg)
    returned = round_trip(rho, model)
    u = roundtrip_unitary()
    corrected = u.conj().T @ returned.rho @ u
    payload = {
        "input_rho": _c2j(rho.rho),
        "retrieved_rho": _c2j(returned.rho),
        "basis_corrected_rho": _c2j(corrected),
        "fidelity_vs_input": uhlmann_fidelity(rho.rho, corrected),
        "process_fidelity": process_fidelity_roundtrip(model),
        "t0": swap_time(cfg.params),
        "params": cfg.raw["params"],
    }
    write_json(cfg.ensure_out_dir() / "retrieve.json", payload, cfg.config_hash)
    return 0


def _cmd_fidelity(cfg: RunConfig, args) -> int:
    model = _model_from_cfg(cfg)
    params, chi = model.params, model.chi
    grid = cfg.time_grid()
    g = effective_coupling(params)
    sidecar: dict = {"regime": args.regime, "g": g}

    numeric = numeric_fidelity(model, grid).f

    analytic = None
    if args.regime == "large-n":
        eta = cfg.broadening()
        gamma = decay_rate(params, chi, eta)
        p = LargeNFidelityParams(gamma, g)
        analytic = fidelity_large_n(grid, p)
        sidecar.update({"eta": eta, "gamma": gamma, "phi": p.phi})
    elif args.regime == "small-n":
        p = SmallNFidelityParams.from_model(params, chi,
                                            cfg.raw.get("figure", {}).get("delta1"))
        analytic = fidelity_small_n(grid, p)
        sidecar.update({"omega_shift": p.omega_shift,
                        "xi_cos": p.cos_xi, "xi_sin": p.sin_xi,
                        "delta1": p.delta1})

    rows = []
    for i, t in enumerate(grid):
        rows.append([t, "" if analytic is None else analytic[i],
                     numeric[i], args.regime])
    write_table(cfg, f"fidelity_{args.regime}",
                ["t", "F_analytic", "F_numeric", "regime"], rows,
                args.format, sidecar)
    return 0


def _cmd_oracle_compare(cfg: RunConfig, args) -> int:
    params = cfg.require_params()
    profile = cfg.require_profile()
    ham = build_exact(params, profile)
    grid = cfg.time_grid()
    g = effective_coupling(params)
    pop = up_population(ham, product_state(ham.basis, electron=0), grid)
    # math.cos per point keeps pop_jc independent of numpy's vector cos
    jc = np.array([math.cos(g * t) ** 2 for t in grid])
    dev = np.abs(pop - jc)
    write_table(cfg, "oracle_compare",
                ["t", "pop_exact", "pop_jc", "abs_dev"],
                list(zip(grid, pop, jc, dev)), args.format,
                {"max_abs_dev": float(dev.max()), "g": g, "t0": swap_time(params)})
    return 0


def _cmd_design_n(cfg: RunConfig, args) -> int:
    params = cfg.require_params()
    if params.J <= 0:
        raise DomainError("design-n needs ferromagnetic J > 0 in params")
    grid = cfg.raw.get("kbt_grid")
    if grid is None:
        if "kbt" not in cfg.raw:
            raise DomainError("config needs 'kbt' or 'kbt_grid'")
        grid = [cfg.raw["kbt"]]
    rows = [[kbt, max_n_for_temperature(kbt, params.J, params.s)] for kbt in grid]
    write_table(cfg, "design_n", ["kbt", "max_N"], rows, args.format,
                {"J": params.J, "s": params.s})
    return 0


def _cmd_sweep(cfg: RunConfig, args) -> int:
    result = run_sweep(cfg)
    write_table(cfg, "sweep", result.header, result.rows, args.format,
                {"axes": result.axes, "rows": len(result.rows),
                 "seed": cfg.seed})
    return 0


def _cmd_reproduce_figure(cfg: RunConfig, args) -> int:
    header, rows, sidecar = reproduce_figure(args.name, cfg)
    write_table(cfg, args.name, header, rows, args.format, sidecar)
    return 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    def add_common(p, suppress):
        # Subcommand copies default to SUPPRESS so flags placed before the
        # subcommand are not clobbered by subparser defaults.
        d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
        p.add_argument("--config", default=d(None),
                       help="path to the JSON config document")
        p.add_argument("--out", default=d(None),
                       help="output directory (default from config)")
        p.add_argument("--seed", type=int, default=d(None),
                       help="seed recorded in provenance, overrides config")
        p.add_argument("--format", choices=("csv", "json"), default=d("csv"))

    parser = argparse.ArgumentParser(
        prog="magnon-memory",
        description="Spin-wave quantum memory: protocol runs, decoherence "
                    "analysis, design sweeps, figure datasets.",
    )
    add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    subcommands = {
        "dispersion": "magnon frequencies omega_k",
        "chi": "relative coupling spectrum chi_k",
        "store": "write step: electron state into the memory mode",
        "retrieve": "write+read round trip of the configured state",
        "fidelity": "fidelity curves, analytic vs numeric",
        "oracle-compare": "exact-diagonalization population vs the resonant "
                          "cos^2(gt) prediction",
        "design-n": "thermal bound on the ring size N",
        "sweep": "parameter sweep over the configured axes",
        "reproduce-figure": "emit a reference-figure dataset",
    }
    for name, help_text in subcommands.items():
        sp = sub.add_parser(name, help=help_text)
        add_common(sp, suppress=True)
        if name == "fidelity":
            sp.add_argument("--regime", choices=("large-n", "small-n", "numeric"),
                            required=True)
        if name == "reproduce-figure":
            sp.add_argument("name", help="fig3 | fig4 | fig5")
    return parser


_HANDLERS = {
    "dispersion": _cmd_dispersion,
    "chi": _cmd_chi,
    "store": _cmd_store,
    "retrieve": _cmd_retrieve,
    "fidelity": _cmd_fidelity,
    "oracle-compare": _cmd_oracle_compare,
    "design-n": _cmd_design_n,
    "sweep": _cmd_sweep,
    "reproduce-figure": _cmd_reproduce_figure,
}


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("MAGNON_MEMORY_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            cfg = RunConfig.from_file(args.config, args.out, args.seed)
        elif args.command == "reproduce-figure":
            cfg = RunConfig.from_dict({}, args.out, args.seed)
        else:
            parser.error("--config is required for this command")
        return _HANDLERS[args.command](cfg, args)
    except (DomainError, ResourceLimitError) as err:
        log.error("config/domain error: %s", err)
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RegimeError as err:
        log.error("numeric-regime error: %s", err)
        print(f"regime error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        log.error("I/O error: %s", err)
        print(f"I/O error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
