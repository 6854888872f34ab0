"""Output checks and independent references for benchmark ops.

Every op is checked against invariants that hold for any seed; ops of the
sampled decks are also compared with references computed here from the
formulas in the package documentation, never by calling the package:

* bosonized single-excitation dynamics at B0 = 0: the (N+1)-dimensional
  arrowhead H on {|+,vac>, |-,1_k>} gives a(t) = <+,vac|U|+,vac> and
  b(t) = <-,1_N|U|+,vac>, from which the stored state, leakage, round
  trip, process fidelity and the numeric overlap fidelity follow;
* Fock-space storage with one spectator magnon: H built from Kronecker
  products of hard-core (cutoff 1) mode operators;
* the exact oracle at B0 = 0 restricted to its one-flip sector
  {|+,G>, |-, flip at site l>}.

A check returns a list of problems; an empty list means the op is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TOL_STATE = 1e-9       # Hermiticity, trace and positivity of output states
TOL_IDEAL = 1e-10      # homogeneous rings reproduce the ideal map (criterion 1)
TOL_PROCESS = 1e-9     # homogeneous process fidelity >= 1 - TOL_PROCESS
TOL_ORACLE_JC = 0.05   # homogeneous oracle vs cos^2(g t) (criterion 2)
TOL_REF = 1e-8         # agreement with the independent references
TOL_PARSEVAL = 1e-10   # relative, sum |chi_k|^2


# ---------------------------------------------------------------------------
# independent physics


def couplings(N: int, profile: dict, lam: float) -> tuple[np.ndarray, float]:
    """Site couplings lambda_l (l = 1..N) and the chi reference coupling."""
    if profile["kind"] == "homogeneous":
        return np.full(N, lam), lam
    sigma = profile["sigma"]
    l = np.arange(N, dtype=float)
    return (lam * np.exp(-(l ** 2) / (2.0 * sigma ** 2)),
            lam * math.sqrt(2.0 * math.pi) * sigma)


def chi_fft(N: int, profile: dict, lam: float) -> np.ndarray:
    """chi_k = sum_l lambda_l / (lambda_ref N) e^{i 2 pi k l / N}, k = 1..N."""
    lambdas, ref = couplings(N, profile, lam)
    if profile["kind"] == "homogeneous":
        chi = np.zeros(N, dtype=complex)
        chi[-1] = 1.0
        return chi
    x = np.roll(lambdas / (ref * N), 1)  # x[j] holds site l with l = j mod N
    return np.roll(N * np.fft.ifft(x), -1)


def omegas(N: int, J: float, s: float) -> np.ndarray:
    """omega_k = 2 J s (1 - cos(2 pi k / N)) for k = 1..N at B0 = 0."""
    k = np.arange(1, N + 1)
    w = 2.0 * J * s * (1.0 - np.cos(2.0 * np.pi * k / N))
    w[-1] = 0.0
    return w


def mode_couplings(N: int, s: float, lam: float, chi: np.ndarray) -> np.ndarray:
    g = lam * math.sqrt(s / (2.0 * N))
    c = g * chi.copy()
    c[-1] = g  # the memory mode couples with g itself
    return c


def arrowhead_amplitudes(p: dict, profile: dict, times) -> tuple[np.ndarray, np.ndarray]:
    """a(t) and b(t) of the bosonized model at B0 = 0."""
    N, s, J, lam = p["N"], p["s"], p["J"], p["lambda"]
    c = mode_couplings(N, s, lam, chi_fft(N, profile, lam))
    H = np.zeros((N + 1, N + 1), dtype=complex)
    H[0, 1:] = c
    H[1:, 0] = np.conj(c)
    H[np.arange(1, N + 1), np.arange(1, N + 1)] = omegas(N, J, s)
    lam_, V = np.linalg.eigh(H)
    phases = np.exp(-1j * np.outer(np.atleast_1d(times), lam_))
    a = phases @ (np.abs(V[0]) ** 2)
    b = phases @ (V[N] * np.conj(V[0]))
    return a, b


def swap_time(p: dict) -> float:
    return (math.pi / p["lambda"]) * math.sqrt(p["N"] / (2.0 * p["s"]))


def root_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Tr sqrt(sqrt(a) b sqrt(a)) for 2x2 density matrices, closed form."""
    tr = float(np.real(np.trace(a @ b)))
    det = max(float(np.real(np.linalg.det(a) * np.linalg.det(b))), 0.0)
    return math.sqrt(max(tr + 2.0 * math.sqrt(det), 0.0))


def fock_store_reference(cfg: dict) -> tuple[np.ndarray, float]:
    """Memory-mode state and leakage after t0 from rho (x) |1_k>, cutoff 1."""
    p, k = cfg["params"], cfg["spectator"]
    N, s, lam = p["N"], p["s"], p["lambda"]
    c = mode_couplings(N, s, lam, chi_fft(N, cfg["profile"], lam))
    w = omegas(N, p["J"], s)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # b on a mode; sigma_+ on |+>=0
    eye2 = np.eye(2)

    def on(factor: int, op: np.ndarray) -> np.ndarray:
        mats = [eye2] * (N + 1)
        mats[factor] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    sp = on(0, lower)
    H = np.zeros((2 ** (N + 1),) * 2, dtype=complex)
    for j in range(1, N + 1):
        bj = on(j, lower)
        hop = c[j - 1] * (sp @ bj)
        H += w[j - 1] * (bj.T @ bj) + hop + hop.conj().T
    occ = np.zeros(N, dtype=int)
    occ[k - 1] = 1
    modes = np.zeros((2,) * N)
    modes[tuple(occ)] = 1.0
    rho_e = complex_matrix(cfg["rho"])
    rho0 = np.kron(rho_e, np.outer(modes.ravel(), modes.ravel()))
    evals, V = np.linalg.eigh(H)
    U = (V * np.exp(-1j * evals * swap_time(p))) @ V.conj().T
    rho = U @ rho0 @ U.conj().T
    # the memory mode is the last tensor factor
    w_mem = np.einsum("aiaj->ij", rho.reshape(2 ** N, 2, 2 ** N, 2))
    pops = np.real(np.diagonal(rho)).reshape((2,) * (N + 1))
    kept = (1,) + tuple(occ[:-1])  # electron |->, spectators as prepared
    return w_mem, 1.0 - pops[kept + (0,)] - pops[kept + (1,)]


def oracle_population(p: dict, profile: dict, times: np.ndarray) -> np.ndarray:
    """|<+,G|e^{-iHt}|+,G>|^2 of the exact spin model at B0 = 0.

    In the one-flip sector, relative to E(|+,G>): a flip costs 2 J s, hops
    to a neighbour with -J s, and couples to |+,G> with lambda_l sqrt(2s)/2N.
    """
    N, s, J, lam = p["N"], p["s"], p["J"], p["lambda"]
    lambdas, _ = couplings(N, profile, lam)
    H = np.zeros((N + 1, N + 1))
    H[0, 1:] = H[1:, 0] = lambdas * math.sqrt(2.0 * s) / (2.0 * N)
    for l in range(N):
        H[1 + l, 1 + l] = 2.0 * J * s
        H[1 + l, 1 + (l + 1) % N] = H[1 + (l + 1) % N, 1 + l] = -J * s
    evals, V = np.linalg.eigh(H)
    a = np.exp(-1j * np.outer(times, evals)) @ (V[0] ** 2)
    return np.abs(a) ** 2


# ---------------------------------------------------------------------------
# reading outputs


def read_csv(path: Path) -> tuple[list[str], list[list]]:
    """Header and rows of a program CSV; numbers parsed, empty cells None."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# config_hash="):
        raise ValueError(f"{path.name}: missing provenance line")
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        cells = line.split(",", len(header) - 1)
        rows.append([_number(c) for c in cells])
    return header, rows


def _number(cell: str):
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


def complex_matrix(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj])


def _state_problems(mat: np.ndarray, what: str) -> list[str]:
    problems = []
    if mat.shape != (2, 2):
        return [f"{what}: shape {mat.shape}"]
    if np.max(np.abs(mat - mat.conj().T)) > TOL_STATE:
        problems.append(f"{what}: not Hermitian")
    if abs(np.trace(mat) - 1.0) > TOL_STATE:
        problems.append(f"{what}: trace {np.trace(mat)}")
    if np.min(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))) < -TOL_STATE:
        problems.append(f"{what}: not positive semidefinite")
    return problems


def _unit(x, what: str) -> list[str]:
    if x is None or not (0.0 <= x <= 1.0):
        return [f"{what} = {x} outside [0, 1]"]
    return []


def _close(actual, expected, what: str, tol: float = TOL_REF) -> list[str]:
    err = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))
    if not err <= tol:
        return [f"{what} differs from the reference by {err:.3e}"]
    return []


# ---------------------------------------------------------------------------
# per-command checks: (config, output dir, reference?) -> problems


def check_chi(cfg: dict, out: Path, reference: bool) -> list[str]:
    p, prof = cfg["params"], cfg["profile"]
    N = p["N"]
    header, rows = read_csv(out / "chi.csv")
    if header != ["k", "abs_chi", "re_chi", "im_chi"] or len(rows) != N:
        return [f"chi.csv: header {header}, {len(rows)} rows for N = {N}"]
    k, absc, re, im = (np.array(col, dtype=float) for col in zip(*rows))
    problems = []
    if not np.array_equal(k, np.arange(1, N + 1)):
        problems.append("chi.csv: k column is not 1..N")
    problems += _close(absc, np.hypot(re, im), "abs_chi vs |re + i im|", 1e-14)
    lambdas, ref = couplings(N, prof, p["lambda"])
    parseval = float(np.sum(lambdas ** 2) / (ref ** 2 * N))
    total = float(np.sum(re ** 2 + im ** 2))
    if abs(total - parseval) > TOL_PARSEVAL * parseval:
        problems.append(f"Parseval: sum |chi|^2 = {total!r}, expected {parseval!r}")
    if reference:
        problems += _close(re + 1j * im, chi_fft(N, prof, p["lambda"]), "chi", 1e-10)
    return problems


def check_dispersion(cfg: dict, out: Path, reference: bool) -> list[str]:
    p = cfg["params"]
    N = p["N"]
    header, rows = read_csv(out / "dispersion.csv")
    if header != ["k", "omega"] or len(rows) != N:
        return [f"dispersion.csv: header {header}, {len(rows)} rows for N = {N}"]
    k, omega = (np.array(col, dtype=float) for col in zip(*rows))
    problems = []
    if not np.array_equal(k, np.arange(1, N + 1)):
        problems.append("dispersion.csv: k column is not 1..N")
    zeeman = p["g_n"] * p["mu_n"] * p["B0"]
    if omega[-1] != zeeman:
        problems.append(f"omega_N = {omega[-1]!r}, expected g_n mu_n B0 = {zeeman!r}")
    if reference:
        problems += _close(omega, omegas(N, p["J"], p["s"]) + zeeman, "omega_k",
                           1e-12 * max(1.0, float(np.max(np.abs(omega)))))
    return problems


def _ideal_store(rho: np.ndarray) -> np.ndarray:
    swap = np.array([[0.0, 1.0], [-1.0j, 0.0]])
    return swap @ rho @ swap.conj().T


def check_store(cfg: dict, out: Path, reference: bool) -> list[str]:
    doc = json.loads((out / "store.json").read_text())
    rho, w = complex_matrix(cfg["rho"]), complex_matrix(doc["stored_w"])
    problems = _state_problems(w, "stored_w")
    problems += _unit(doc["leakage"], "leakage") + _unit(doc["fidelity"], "fidelity")
    problems += _close(complex_matrix(doc["input_rho"]), rho, "input_rho", 0.0)
    problems += _close(doc["t0"], swap_time(cfg["params"]), "t0", 1e-12 * doc["t0"])
    if cfg["profile"]["kind"] == "homogeneous":
        problems += _close(w, _ideal_store(rho), "homogeneous stored_w vs ideal map",
                           TOL_IDEAL)
        problems += _close(doc["leakage"], 0.0, "homogeneous leakage", TOL_IDEAL)
    if reference:
        _, b = arrowhead_amplitudes(cfg["params"], cfg["profile"], swap_time(cfg["params"]))
        b = b[0]
        pp = rho[0, 0].real
        w_ref = np.array([[1.0 - pp * abs(b) ** 2, rho[1, 0] * np.conj(b)],
                          [rho[0, 1] * b, pp * abs(b) ** 2]])
        problems += _close(w, w_ref, "stored_w")
        problems += _close(doc["leakage"], pp * (1.0 - abs(b) ** 2), "leakage")
        problems += _close(doc["fidelity"], root_fidelity(_ideal_store(rho), w_ref),
                           "fidelity", 1e-6)
    return problems


def check_retrieve(cfg: dict, out: Path, reference: bool) -> list[str]:
    doc = json.loads((out / "retrieve.json").read_text())
    rho = complex_matrix(cfg["rho"])
    got = complex_matrix(doc["retrieved_rho"])
    corrected = complex_matrix(doc["basis_corrected_rho"])
    problems = _state_problems(got, "retrieved_rho")
    problems += _state_problems(corrected, "basis_corrected_rho")
    problems += _unit(doc["fidelity_vs_input"], "fidelity_vs_input")
    problems += _unit(doc["process_fidelity"], "process_fidelity")
    flip = np.diag([-1.0, 1.0])
    problems += _close(corrected, flip @ got @ flip, "basis correction", 1e-15)
    if cfg["profile"]["kind"] == "homogeneous":
        problems += _close(corrected, rho, "homogeneous round trip vs input", TOL_IDEAL)
        if not doc["process_fidelity"] >= 1.0 - TOL_PROCESS:
            problems.append(f"homogeneous process fidelity {doc['process_fidelity']!r}")
    if reference:
        a, _ = arrowhead_amplitudes(cfg["params"], cfg["profile"],
                                    2.0 * swap_time(cfg["params"]))
        a = a[0]
        pp = rho[0, 0].real * abs(a) ** 2
        ref = np.array([[pp, rho[0, 1] * a], [rho[1, 0] * np.conj(a), 1.0 - pp]])
        problems += _close(got, ref, "retrieved_rho")
        problems += _close(doc["process_fidelity"],
                           (abs(a) ** 2 + 1.0 - 2.0 * a.real) / 4.0, "process_fidelity")
        problems += _close(doc["fidelity_vs_input"],
                           root_fidelity(rho, flip @ ref @ flip), "fidelity_vs_input", 1e-6)
    return problems


def check_oracle(cfg: dict, out: Path, reference: bool) -> list[str]:
    p = cfg["params"]
    header, rows = read_csv(out / "oracle_compare.csv")
    side = json.loads((out / "oracle_compare_params.json").read_text())
    if header != ["t", "pop_exact", "pop_jc", "abs_dev"] or len(rows) != 201:
        return [f"oracle_compare.csv: header {header}, {len(rows)} rows"]
    t, pop, jc, dev = (np.array(col, dtype=float) for col in zip(*rows))
    t0 = swap_time(p)
    g = p["lambda"] * math.sqrt(p["s"] / (2.0 * p["N"]))
    problems = _close(t, np.linspace(0.0, 2.0 * t0, 201), "time grid", 1e-12 * t0)
    problems += _close(jc, np.cos(g * t) ** 2, "pop_jc", 1e-12)
    problems += _close(dev, np.abs(pop - jc), "abs_dev", 1e-15)
    if np.any(pop < -1e-12) or np.any(pop > 1.0 + 1e-12):
        problems.append("pop_exact outside [0, 1]")
    if side["max_abs_dev"] != float(np.max(dev)):
        problems.append("max_abs_dev is not the column maximum")
    if cfg["profile"]["kind"] == "homogeneous" and not side["max_abs_dev"] <= TOL_ORACLE_JC:
        problems.append(f"homogeneous oracle deviates by {side['max_abs_dev']!r}")
    if reference:
        problems += _close(pop, oracle_population(p, cfg["profile"], t), "pop_exact")
    return problems


def _sweep_point(cfg: dict, axis: str, value) -> tuple[dict, dict]:
    p, prof = dict(cfg["params"]), dict(cfg["profile"])
    if axis == "sigma":
        prof["sigma"] = value
    else:
        p[axis] = int(value) if axis == "N" else value
    return p, prof


def _sweep_reference(p: dict, prof: dict) -> dict:
    """Every numeric column of one sweep row, from the documented formulas."""
    N, s, J, lam = p["N"], p["s"], p["J"], p["lambda"]
    g = lam * math.sqrt(s / (2.0 * N))
    t0 = swap_time(p)
    chi = chi_fft(N, prof, lam)
    mags_sq = np.abs(chi[:-1]) ** 2
    _, b = arrowhead_amplitudes(p, prof, t0)
    ref = {
        "g": g, "t0": t0, "sum_chi_sq": float(np.sum(mags_sq)),
        "F_numeric_t0": min(0.5 * abs(1.0 + 1j * b[0]), 1.0),
        "leakage": 0.5 * (1.0 - abs(b[0]) ** 2),
    }
    if J == 0.0:
        return ref  # degenerate spectrum: no broadening, rate or shift exist
    omega = omegas(N, J, s)[:-1]
    spaced = np.unique(np.round(omega, 12))
    picked = np.sort(spaced[np.argsort(np.abs(spaced - 2.0 * g))[:5]])
    eta = float(np.mean(np.diff(picked)))
    lorentz = (eta / math.pi) / ((omega - 2.0 * g) ** 2 + eta ** 2)
    gamma = float(2.0 * math.pi * np.sum(lam ** 2 * s * mags_sq / (2.0 * N) * lorentz))
    ref.update({
        "eta": eta, "gamma": gamma,
        "max_r": float(np.max(g * np.sqrt(mags_sq) / omega)),
        "omega_shift": float(-(lam ** 2 * s / N) * np.sum(mags_sq / (2.0 * omega))),
    })
    if gamma < g:
        phi, d1p = math.asin(gamma / g), math.sqrt(g * g - gamma * gamma)
        ref["F_analytic_t0"] = 0.5 + 0.5 * math.exp(-0.5 * gamma * t0) / math.cos(phi) * (
            math.cos(g * t0) * math.cos(d1p * t0 + phi) + math.sin(g * t0) * math.sin(d1p * t0))
    return ref


SWEEP_VALUE_COLUMNS = ["g", "t0", "eta", "gamma", "max_r", "omega_shift", "sum_chi_sq",
                       "F_analytic_t0", "F_numeric_t0", "leakage"]


def check_sweep(cfg: dict, out: Path, reference: bool) -> tuple[list[str], int]:
    """Problems and the number of rows the program tagged with an error."""
    axis_spec = cfg["sweep"]["axes"][0]
    axis, grid = axis_spec["name"], axis_spec["grid"]
    header, rows = read_csv(out / "sweep.csv")
    if header != [axis] + SWEEP_VALUE_COLUMNS + ["error"] or len(rows) != len(grid):
        return [f"sweep.csv: header {header}, {len(rows)} rows"], 0
    side = json.loads((out / "sweep_params.json").read_text())
    problems = [] if side["rows"] == len(grid) else ["sweep_params.json: row count"]
    error_rows = 0
    for value, row in zip(grid, rows):
        cells = dict(zip(header, row))
        if cells[axis] != value:
            problems.append(f"sweep row for {axis} = {value} reads {cells[axis]}")
        tagged = cells["error"] is not None
        error_rows += tagged
        for col in ("F_numeric_t0", "leakage"):
            if cells[col] is not None or not tagged:
                problems += _unit(cells[col], f"{col} at {axis} = {value}")
        if not tagged and not all(isinstance(cells[c], float) and math.isfinite(cells[c])
                                  for c in SWEEP_VALUE_COLUMNS):
            problems.append(f"untagged row at {axis} = {value} has missing values")
        if reference:
            ref = _sweep_reference(*_sweep_point(cfg, axis, value))
            for col in SWEEP_VALUE_COLUMNS:
                got, expected = cells[col], ref.get(col)
                if got is None:
                    if expected is not None and not tagged:
                        problems.append(f"{col} missing at {axis} = {value}")
                elif expected is None:
                    problems.append(f"{col} = {got} where the reference has no value")
                else:
                    problems += _close(got, expected, f"{col} at {axis} = {value}",
                                       TOL_REF * max(1.0, abs(expected)))
    return problems, error_rows


def check_fock_store(cfg: dict, result, reference: bool) -> list[str]:
    stored, leakage = result
    w = np.asarray(stored.w)
    problems = _state_problems(w, "stored w") + _unit(leakage, "leakage")
    if reference:
        w_ref, leak_ref = fock_store_reference(cfg)
        problems += _close(w, w_ref, "Fock stored w")
        problems += _close(leakage, leak_ref, "Fock leakage")
    return problems


CLI_CHECKS = {"chi": check_chi, "dispersion": check_dispersion, "store": check_store,
              "retrieve": check_retrieve, "oracle-compare": check_oracle}
