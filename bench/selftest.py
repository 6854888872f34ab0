"""Self-test of the benchmark harness (not part of the test suite).

    python3 bench/selftest.py

1. The same seed gives byte-identical generated configs; another seed
   gives different ones.
2. One op of every kind passes its checks, including the independent
   reference; after one value of its output is altered, the same op is
   counted as failed.  For ``chi`` this also holds without the reference.
   A crashing op and a non-zero exit code also count as failed.

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run_bench  # noqa: E402
from workloads import WORKLOADS, dump_config, make_deck  # noqa: E402

sys.path.insert(0, str(run_bench.SRC))
from magnon_memory import cli  # noqa: E402


def config_bytes(workload: str, seed: int) -> list[bytes]:
    return [dump_config(spec["config"]) for d in range(3)
            for spec in make_deck(workload, seed, d)]


def replace_cell(path: Path, row: int, column: str, new: str):
    """Set one CSV cell (data row ``row``, named column) to ``new``."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    cells = lines[2 + row].split(",", len(header) - 1)
    cells[header.index(column)] = new
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def nudge_csv(column: str, row: int = 2, delta: float = 1e-6):
    def corrupt(op):
        path = next(op.out.glob("*.csv"))
        header = path.read_text().splitlines()[1].split(",")
        value = path.read_text().splitlines()[2 + row].split(",", len(header) - 1)
        replace_cell(path, row, column, repr(float(value[header.index(column)]) + delta))
    return corrupt


def nudge_json(key: str, delta: float = 1e-6):
    def corrupt(op):
        import json
        path = next(op.out.glob("*.json"))
        doc = json.loads(path.read_text())
        if isinstance(doc[key], list):  # a matrix of [re, im] pairs
            doc[key][0][0][0] += delta
            doc[key][1][1][0] -= delta
        else:
            doc[key] += delta
        path.write_text(json.dumps(doc))
    return corrupt


def nudge_fock(op):
    stored, leakage = op.result
    op.result = (stored, leakage + 1e-6)


def first_op(workload: str, kind: str) -> dict:
    for d in range(4):
        for spec in make_deck(workload, 7, d):
            if spec.get("command", spec["kind"]) == kind:
                return spec
    raise LookupError(kind)


CASES = [  # (workload, command or op kind, corruption)
    ("spectrum", "chi", nudge_csv("re_chi")),
    ("spectrum", "dispersion", nudge_csv("omega")),
    ("protocol", "store", nudge_json("stored_w")),
    ("protocol", "retrieve", nudge_json("process_fidelity")),
    ("protocol", "fock_store", nudge_fock),
    ("oracle", "oracle-compare", nudge_csv("pop_exact", delta=1e-3)),
    ("sweep", "sweep", nudge_csv("F_numeric_t0", row=0, delta=1e-6)),
]


def main() -> int:
    failures = []

    for workload in WORKLOADS:
        if config_bytes(workload, 5) != config_bytes(workload, 5):
            failures.append(f"{workload}: seed 5 configs differ between generations")
        if config_bytes(workload, 5) == config_bytes(workload, 6):
            failures.append(f"{workload}: seeds 5 and 6 generate the same configs")

    work = run_bench.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        # every case with the reference on (deck 0); chi also with it off,
        # where the Parseval invariant alone must catch the altered value
        runs = [(case, 0) for case in CASES] + [(CASES[0], 1)]
        for i, ((workload, kind, corrupt), deck) in enumerate(runs):
            op = run_bench.Op(i, deck, first_op(workload, kind), work)
            run_bench.run_op(op, cli)
            clean = run_bench.check_op(op)
            corrupt(op)
            dirty = run_bench.check_op(op)
            label = f"{kind} (reference {'on' if deck < run_bench.REFERENCE_DECKS else 'off'})"
            if clean:
                failures.append(f"{label}: correct output flagged: {clean}")
            if not dirty:
                failures.append(f"{label}: corrupted output not flagged")
            print(f"{label}: clean {'ok' if not clean else 'FLAGGED'}, "
                  f"corrupted {'flagged' if dirty else 'MISSED'}: {dirty[:1]}")

        crash = run_bench.Op(100, 1, first_op("protocol", "fock_store"), work)
        crash.spec = dict(crash.spec, config=dict(crash.spec["config"], spectator=99))
        run_bench.run_op(crash, cli)
        if not run_bench.check_op(crash):
            failures.append("an op that raised was not counted as failed")
        bad_exit = run_bench.Op(101, 1, first_op("spectrum", "chi"), work)
        bad_exit.config_path.write_text("{}")
        run_bench.run_op(bad_exit, cli)
        if bad_exit.rc == 0 or not run_bench.check_op(bad_exit):
            failures.append("an op with a non-zero exit code was not counted as failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
