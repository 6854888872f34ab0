"""End-to-end benchmark of the magnon-memory CLI.

Usage (from the repository root):

    python3 bench/run_bench.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, protocol, oracle, spectrum (see bench/NOTES.md).  One
op is one in-process ``magnon_memory.cli.main(argv)`` call on a config
generated from the seed; ops run back to back from one process (a closed
loop with one client, ``--workers 1``, BLAS threads at their default).

``--trace 0`` measures whole decks of ops until ``--seconds`` of op time
have passed and reports the end-to-end metrics.  ``--trace 1`` runs a
fixed number of decks, each untraced and then traced, and reports the
per-layer metrics of the traced runs (so its counts repeat exactly for a
seed) with the tracing overhead.  Either way every op's output is checked
after the timed loop; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Set-up time (``setup_s``) is the median over fresh interpreter processes
of importing the package and running one fixed warm-up op.

The end-to-end timings (``setup_s``, ``ops_per_s``, ``op_p50_ms``,
``op_tail_ms``) are rescaled by a calibration kernel timed beside the ops,
so that drift in the shared machine's speed cancels out (see
``calibration.py``); the raw timings and the factor are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from calibration import SETUP_KERNELS, WORKLOAD_KERNELS, Calibration  # noqa: E402
from workloads import WARMUP, WORKLOADS, dump_config, make_deck  # noqa: E402

SETUP_PROBES = 7
# Calibration samples per set-up probe (after one warm-up sample).
SETUP_CAL_SAMPLES = 5
# Decks traced in --trace 1 (each also run untraced): 10-15 s in all.
TRACE_DECKS = {"sweep": 3, "protocol": 6, "oracle": 6, "spectrum": 6}
# Decks whose ops are also compared with the independent references.
REFERENCE_DECKS = 1
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("linalg.eigh.calls", "count"), ("linalg.eigh.s", "s"),
    ("linalg.eigh.n3_sum", "count"), ("linalg.eigh.distinct_ratio", "ratio"),
    ("boson.BosonModel.self_s", "s"), ("boson.active_modes.sum", "count"),
    ("boson.build_boson_hamiltonian.calls", "count"),
    ("boson.build_boson_hamiltonian.self_s", "s"),
    ("boson.evolve_constant.calls", "count"), ("boson.evolve_constant.self_s", "s"),
    ("protocol.store_outcome.calls", "count"), ("protocol.store_outcome.self_s", "s"),
    ("protocol.retrieve.calls", "count"), ("protocol.retrieve.self_s", "s"),
    ("protocol.process_fidelity_roundtrip.self_s", "s"),
    ("protocol.fidelities.self_s", "s"),
    ("decoherence.numeric_fidelity.calls", "count"),
    ("decoherence.numeric_fidelity.self_s", "s"),
    ("decoherence.closed_form.self_s", "s"),
    ("exact.build_exact.calls", "count"), ("exact.build_exact.self_s", "s"),
    ("exact.dim.max", "count"), ("exact.eigensystem.self_s", "s"),
    ("exact.evolve_exact.calls", "count"), ("exact.evolve_exact.self_s", "s"),
    ("exact.reduce_electron.self_s", "s"),
    ("model.chi_spectrum.calls", "count"), ("model.chi_spectrum.self_s", "s"),
    ("model.chi_spectrum.peak_mb", "MB"), ("model.dispersion.self_s", "s"),
    ("cli.main.self_s", "s"), ("cli.write.calls", "count"), ("cli.write.s", "s"),
    ("cli.write.bytes", "bytes"), ("cli.sweep.error_rows", "count"),
    ("trace.ops_per_s", "1/s"), ("trace.untraced_ops_per_s", "1/s"),
    ("trace.ops_per_s_delta", "1/s"),
]


# ---------------------------------------------------------------------------
# ops


class Op:
    """One benchmark op: its spec, where its output goes, and what happened."""

    def __init__(self, index: int, deck: int, spec: dict, work: Path):
        self.index, self.deck, self.spec = index, deck, spec
        self.out = work / "out" / f"{index:05d}"
        self.config_path = work / "cfg" / f"{index:05d}.json"
        self.config_path.parent.mkdir(parents=True, exist_ok=True)
        self.config_path.write_bytes(dump_config(spec["config"]))
        self.rc = None
        self.result = None
        self.error = None
        self.seconds = None
        self.error_rows = 0

    def argv(self) -> list[str]:
        return ["--config", str(self.config_path), "--out", str(self.out),
                self.spec["command"]]


def run_op(op: Op, cli, call=None):
    """Run ``op`` through ``call(span_name, fn, *args)`` (a tracer root span
    or a plain call); exceptions are recorded as failures, never propagated."""
    call = call or (lambda name, fn, *args: fn(*args))
    start = time.perf_counter()
    try:
        if op.spec["kind"] == "cli":
            op.rc = call("cli.main", cli.main, op.argv())
        else:
            op.result = call("protocol.store", fock_store, op.spec["config"])
            op.rc = 0
    except Exception:  # a crashing op is a failed op, the run goes on
        op.error = traceback.format_exc(limit=3)
    op.seconds = time.perf_counter() - start


def fock_store(cfg: dict):
    """Library store of rho (x) one spectator magnon (not a CLI command)."""
    from magnon_memory import (BosonModel, PhysicalParams, QubitState, chi_spectrum,
                               gaussian_profile, store)
    p = cfg["params"]
    params = PhysicalParams(N=p["N"], s=p["s"], J=p["J"], B0=p["B0"], lam=p["lambda"],
                            g_e=p["g_e"], g_n=p["g_n"], mu_B=p["mu_B"], mu_n=p["mu_n"])
    model = BosonModel(params, chi_spectrum(gaussian_profile(
        p["N"], cfg["profile"]["sigma"], p["lambda"])))
    rho = QubitState(checks.complex_matrix(cfg["rho"]))
    return store(rho, model, {cfg["spectator"]: 1})


def check_op(op: Op) -> list[str]:
    if op.error is not None:
        return [op.error]
    if op.rc != 0:
        return [f"exit code {op.rc}"]
    reference = op.deck < REFERENCE_DECKS
    cfg = op.spec["config"]
    try:
        if op.spec["kind"] == "fock_store":
            return checks.check_fock_store(cfg, op.result, reference)
        if op.spec["command"] == "sweep":
            problems, op.error_rows = checks.check_sweep(cfg, op.out, reference)
            return problems
        return checks.CLI_CHECKS[op.spec["command"]](cfg, op.out, reference)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]


def run_decks(workload: str, seed: int, work: Path, first_index: int, decks,
              cli, call=None, budget_s=None, calibration=None) -> list[Op]:
    """Run the given decks (or, with ``budget_s``, decks 0, 1, ... until
    that much op time has passed); returns the ops run.  With a
    ``calibration``, one kernel sample is taken after each op, outside its
    time."""
    ops: list[Op] = []
    busy = 0.0
    deck_ids = iter(decks) if decks is not None else iter(range(10 ** 6))
    for d in deck_ids:
        if budget_s is not None and busy >= budget_s:
            break
        deck = [Op(first_index + len(ops) + i, d, spec, work)
                for i, spec in enumerate(make_deck(workload, seed, d))]
        for op in deck:
            run_op(op, cli, call)
            busy += op.seconds
            if calibration is not None:
                calibration.sample()
        ops.extend(deck)
    return ops


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(workload: str, work: Path) -> int:
    """Child process: time the package import plus the warm-up op."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from magnon_memory import cli
    op = Op(0, 0, WARMUP[workload], work)
    rc = cli.main(op.argv())
    elapsed = time.perf_counter() - start
    calibration = Calibration(SETUP_KERNELS)
    for _ in range(SETUP_CAL_SAMPLES + 1):
        calibration.sample()
    calibration.samples.pop(0)  # first-call costs
    print(json.dumps({"setup_s": elapsed, "factor": calibration.factor(), "rc": rc}))
    return 0 if rc == 0 else 1


def measure_setup(workload: str, work: Path) -> list[tuple[float, float]]:
    """(raw set-up seconds, calibration factor) of each fresh process."""
    samples = []
    for i in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--setup-probe", str(work / f"setup{i}")],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["factor"]))
    return samples


# ---------------------------------------------------------------------------
# environment


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref).strip()
        if not sha:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown (not a git checkout)"


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    fields = {}
    for line in cpuinfo.splitlines():
        key, _, value = line.partition(":")
        fields.setdefault(key.strip(), value.strip())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        caches[f"L{level}-{kind}"] = _read(index / "size").strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": fields.get("model name", "unknown"),
        "cpu_cache_size": fields.get("cache size", "unknown"),
        "cpu_caches": caches,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# metrics


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(percentile, value, ops beyond it) for the highest ladder percentile
    with at least ten ops beyond it."""
    n = len(latencies_ms)
    level = max((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0),
                default=TAIL_LADDER[0])
    value = float(np.percentile(latencies_ms, level))
    return level, value, sum(1 for x in latencies_ms if x > value)


def ops_per_s(ops: list[Op]) -> float:
    """Ops completed per second of op time."""
    return len(ops) / sum(op.seconds for op in ops)


def per_layer(tracer, traced: list[Op], untraced: list[Op]) -> dict:
    total, own = tracer.layer_times()
    c, m = tracer.counters, tracer.maxima
    values = {name: own.get(name[:-len(".self_s")], 0.0) if name.endswith(".self_s")
              else c.get(name, 0) for name, _ in PER_LAYER}
    calls = c.get("linalg.eigh.calls", 0.0)
    values.update({
        "linalg.eigh.s": total.get("linalg.eigh", 0.0),
        "linalg.eigh.distinct_ratio": tracer.distinct_eigh_inputs() / calls if calls else 0.0,
        "exact.dim.max": m.get("exact.dim.max", 0.0),
        "model.chi_spectrum.peak_mb": m.get("model.chi_spectrum.peak_mb", 0.0),
        "cli.write.s": total.get("cli.write", 0.0),
        "trace.ops_per_s": ops_per_s(traced),
        "trace.untraced_ops_per_s": ops_per_s(untraced),
    })
    values["trace.ops_per_s_delta"] = (values["trace.ops_per_s"]
                                       - values["trace.untraced_ops_per_s"])
    for name, unit in PER_LAYER:
        if unit in ("count", "bytes"):
            values[name] = int(values[name])
    return values


# ---------------------------------------------------------------------------
# main


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "magnon_memory" / "cli.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, Path(args.setup_probe))

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = WORK / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work, run_id)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, run_id: str) -> int:
    setup_samples = measure_setup(args.workload, work)
    sys.path.insert(0, str(SRC))
    from magnon_memory import cli
    warm = Op(0, 0, WARMUP[args.workload], work / "warmup")
    run_op(warm, cli)
    if problems := check_op(warm):
        print(f"error: warm-up op failed: {problems}", file=sys.stderr)
        return 1
    calibration = Calibration(WORKLOAD_KERNELS[args.workload])
    calibration.sample()
    calibration.samples.clear()  # first-call costs

    tracer = None
    if args.trace:
        from tracer import Tracer
        # untraced and traced passes alternate deck by deck, so that drift in
        # the machine's speed cancels out of the overhead
        tracer, untraced, traced = Tracer(), [], []
        for d in range(TRACE_DECKS[args.workload]):
            untraced += run_decks(args.workload, args.seed, work,
                                  len(untraced) + len(traced), [d], cli)
            with tracer:
                traced += run_decks(args.workload, args.seed, work,
                                    len(untraced) + len(traced), [d], cli,
                                    tracer.root_caller())
        ops = untraced + traced
    else:
        ops = run_decks(args.workload, args.seed, work, 0, None, cli,
                        budget_s=args.seconds, calibration=calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = {op.index: problems for op in ops if (problems := check_op(op))}
    timed = untraced if tracer is not None else ops
    raw_lat = [op.seconds * 1e3 for op in timed]
    # one calibration sample follows each untimed-loop op; the traced run
    # takes none, and its timings stay raw
    factors = calibration.local_factors() if calibration.samples else [1.0] * len(timed)
    lat = [ms * f for ms, f in zip(raw_lat, factors)]
    factor = sum(lat) / sum(raw_lat)
    raw_level, raw_tail_ms, _ = tail(raw_lat)
    level, tail_ms, beyond = tail(lat)
    raw = {
        "setup_s": statistics.median(s for s, _ in setup_samples),
        "ops_per_s": ops_per_s(timed),
        "op_p50_ms": statistics.median(raw_lat),
        "op_tail_ms": raw_tail_ms,
    }
    e2e = {
        "setup_s": statistics.median(s * f for s, f in setup_samples),
        "ops_per_s": len(lat) / (sum(lat) / 1e3),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb,
    }
    error_rows = sum(op.error_rows for op in ops)
    env = environment()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"calibration factor {factor:.6f} over all op time "
          f"({'+'.join(calibration.kernels)} kernel, "
          f"{len(calibration.samples)} samples; set-up probes: "
          f"{', '.join(f'{f:.4f}' for _, f in setup_samples)})")
    print(f"setup_s {e2e['setup_s']:.6f} s (median of {len(setup_samples)} fresh "
          f"processes, raw: {', '.join(f'{s:.4f}' for s, _ in setup_samples)})")
    print(f"ops_per_s {e2e['ops_per_s']:.6f} 1/s ({len(timed)} ops, "
          f"{sum(op.seconds for op in timed):.3f} s of op time; raw {raw['ops_per_s']:.6f})")
    print(f"op_p50_ms {e2e['op_p50_ms']:.6f} ms (raw {raw['op_p50_ms']:.6f})")
    print(f"op_tail_ms {e2e['op_tail_ms']:.6f} ms (p{level:g} of {len(timed)} ops, "
          f"{beyond} beyond it; raw {raw['op_tail_ms']:.6f})")
    print(f"peak_rss_mb {peak_rss_mb:.3f} MB")
    print(f"error_rate {len(failures) / len(ops):.6g} ratio "
          f"({len(failures)} failed / {len(ops)} attempted)")
    print(f"sweep rows tagged with a regime error: {error_rows} (not failures)")
    for index, problems in sorted(failures.items())[:10]:
        print(f"FAILED op {index}: {'; '.join(problems)[:2000]}")

    if tracer is not None:
        layers = per_layer(tracer, traced, untraced)
        for name, unit in PER_LAYER:
            print(f"{name} {layers[name]!r} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "setup_samples": setup_samples,
              "calibration": {"kernels": calibration.kernels, "factor": factor,
                              "samples_s": calibration.samples},
              "raw_timings": raw,
              "tail_percentile": level, "error_rate": len(failures) / len(ops),
              "error_rows": error_rows, "metrics": metrics,
              "ops": [[op.deck, op.spec.get("command", op.spec["kind"]),
                       op.spec["config"]["params"]["N"], op.seconds] for op in ops],
              "failures": {str(k): v for k, v in failures.items()}}
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(results / f"{run_id}.spans.jsonl")

    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
