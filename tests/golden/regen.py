"""Write the expected CLI outputs of the golden corpus.

Each case in ``cases.json`` names a subcommand line and an inline config
(or null for commands that need none).  ``run_case`` writes the config to
a directory, runs ``magnon_memory.cli.main`` there and returns the output
directory; ``tests/test_golden.py`` compares its files with
``expected/<case>/``.

Rerun this only when an output changes on purpose, and list the files
that moved, with their largest deviations, in CHANGES.md:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from magnon_memory.cli import main

GOLDEN = Path(__file__).resolve().parent
CASES = json.loads((GOLDEN / "cases.json").read_text())
EXPECTED = GOLDEN / "expected"


def run_case(case: dict, workdir: Path) -> Path:
    """Run one case in ``workdir``; returns the directory of its outputs."""
    out = workdir / "out"
    argv = ["--out", str(out)]
    if case["config"] is not None:
        path = workdir / "config.json"
        path.write_text(json.dumps(case["config"]))
        argv += ["--config", str(path)]
    code = main(argv + case["args"])
    if code != 0:
        raise RuntimeError(f"golden case {case['name']} exited {code}")
    return out


def regenerate():
    shutil.rmtree(EXPECTED, ignore_errors=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run_case(case, Path(tmp)), EXPECTED / case["name"])
    size = sum(p.stat().st_size for p in EXPECTED.rglob("*") if p.is_file())
    print(f"wrote {len(CASES)} cases, {size} bytes, under {EXPECTED}")


if __name__ == "__main__":
    regenerate()
