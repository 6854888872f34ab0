"""Golden CLI outputs: every subcommand against files pinned in tests/golden.

Headers, config hashes, versions, integers, tags and error strings must be
byte-equal; floats must agree within 1e-12 absolute plus 1e-12 relative,
so a solver change may move the last digits of the 17-digit output but
nothing else.  ``tests/golden/regen.py`` rewrites the expected files.
"""

import importlib.util
import re
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

ATOL = RTOL = 1e-12

# a float cell as cli._fmt writes it
CSV_FLOAT = re.compile(r"-?\d\.\d{16}e[+-]\d{2,3}")
# JSON text as strings, numbers and the punctuation between them
JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[^"\d-]+')


def _close(got: str, want: str) -> bool:
    a, b = float(got), float(want)
    return abs(a - b) <= ATOL + RTOL * abs(b)


def _is_float_token(tok: str) -> bool:
    return tok[0] in "-0123456789" and any(c in tok for c in ".eE")


def _compare_csv(got: str, want: str, where: str):
    got_lines, want_lines = got.split("\n"), want.split("\n")
    assert len(got_lines) == len(want_lines), f"{where}: row count"
    # provenance line and header are byte-equal
    assert got_lines[:2] == want_lines[:2], f"{where}: header"
    for i, (g, w) in enumerate(zip(got_lines[2:], want_lines[2:]), start=3):
        gc, wc = g.split(","), w.split(",")
        assert len(gc) == len(wc), f"{where}:{i}: cell count"
        for a, b in zip(gc, wc):
            if CSV_FLOAT.fullmatch(b):
                assert CSV_FLOAT.fullmatch(a) and _close(a, b), f"{where}:{i}: {a} != {b}"
            else:
                assert a == b, f"{where}:{i}: {a!r} != {b!r}"


def _compare_json(got: str, want: str, where: str):
    got_toks, want_toks = JSON_TOKEN.findall(got), JSON_TOKEN.findall(want)
    assert "".join(got_toks) == got and "".join(want_toks) == want
    assert len(got_toks) == len(want_toks), f"{where}: token count"
    for a, b in zip(got_toks, want_toks):
        if _is_float_token(b):
            assert _is_float_token(a) and _close(a, b), f"{where}: {a} != {b}"
        else:
            assert a == b, f"{where}: {a!r} != {b!r}"


@pytest.mark.parametrize("case", regen.CASES, ids=[c["name"] for c in regen.CASES])
def test_golden_output(case, tmp_path):
    out = regen.run_case(case, tmp_path)
    expected = regen.EXPECTED / case["name"]
    names = sorted(p.name for p in expected.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        got, want = (out / name).read_text(), (expected / name).read_text()
        where = f"{case['name']}/{name}"
        if name.endswith(".csv"):
            _compare_csv(got, want, where)
        else:
            _compare_json(got, want, where)
