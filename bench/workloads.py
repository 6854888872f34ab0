"""Seeded op decks for the four benchmark workloads.

A deck is a fixed mix of ops whose sizes are stratified over the
workload's range, one op per stratum.  The sizes (N, and so the cost of an
op) are the same in every deck of every seed; the seed draws everything
else: the order of the ops, couplings, widths, exchange, states, sweep
grids and the spectator mode.  So every run repeats the same cost schedule
and the run-to-run spread comes from the machine, not from the mix.  Deck
``d`` of seed ``s`` depends only on ``(workload, s, d)``.

Every op is an in-process ``magnon_memory.cli.main(argv)`` call on a
generated JSON config, except the protocol workload's Fock-space stores,
which call the library's ``store`` with one spectator magnon.  All configs
use B0 = 0 (``store`` and ``retrieve`` are defined only at resonance).
"""

from __future__ import annotations

import json

import numpy as np

WORKLOADS = ("sweep", "protocol", "oracle", "spectrum")

BASE_PARAMS = {"s": 0.5, "B0": 0.0, "lambda": 1.0,
               "g_e": 1.0, "g_n": 1.0, "mu_B": 1.0, "mu_n": 1.0}


def _rng(workload: str, seed: int, deck: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, deck])


def _r(x: float) -> float:
    """Round generated reals so configs read well."""
    return float(f"{x:.6g}")


def _sizes(n: int, lo: float, hi: float, power: float = 1.0) -> list[int]:
    """``n`` increasing sizes in [lo, hi], one per stratum.

    Size i sits at log-fraction ((i + 1/2) / n)^power of [lo, hi], except the
    largest, which is ``hi`` itself; power > 1 puts more ops at small sizes.
    """
    return [int(round(lo * (hi / lo) ** (((i + 0.5) / n) ** power)))
            for i in range(n - 1)] + [int(hi)]


def _shuffled(rng, ops: list) -> list:
    return [ops[i] for i in rng.permutation(len(ops))]


# Deck lengths are odd, and the 90th percentile of a deck's costs falls
# inside one op's stratum: a median or tail that sat on the boundary
# between two strata would jump between them from run to run.


def _rho(rng, pure: bool) -> list:
    """Random qubit density matrix (I + r.sigma)/2 as nested [re, im] pairs.

    Entries keep full precision: rounding would break the program's 1e-10
    unit-trace and positivity checks on pure states.
    """
    v = rng.normal(size=3)
    r = 1.0 if pure else rng.uniform(0.2, 0.95)
    x, y, z = (float(c) for c in v / np.linalg.norm(v) * r)
    p = 0.5 + 0.5 * z
    return [[[p, 0.0], [0.5 * x, -0.5 * y]],
            [[0.5 * x, 0.5 * y], [1.0 - p, 0.0]]]


def _params(**kw) -> dict:
    p = dict(BASE_PARAMS)
    p.update(kw)
    return p


def _cli(command: str, config: dict) -> dict:
    return {"kind": "cli", "command": command, "config": config}


def _sweep_deck(rng) -> list[dict]:
    ops = []
    axes = ["sigma", "J", "N", "sigma"] * 5
    for i, (N, axis) in enumerate(zip(_sizes(17, 100, 600, power=2.0), axes)):
        J = _r(rng.uniform(5.0, 60.0))
        sigma = _r(N * rng.uniform(1 / 12, 1 / 3))
        if axis == "sigma":
            grid = sorted(_r(N * f) for f in rng.uniform(1 / 12, 1 / 3, size=2))
        elif axis == "J":
            # the first J sweep of a deck starts at J = 0, where the program
            # tags the closed-form columns with regime errors
            grid = sorted(_r(j) for j in rng.uniform(5.0, 60.0, size=2))
            if i == 1:
                grid[0] = 0.0
        else:
            grid = [int(round(0.8 * N)), N]
        ops.append(_cli("sweep", {
            "params": _params(N=N, J=J),
            "profile": {"kind": "gaussian", "sigma": sigma},
            "sweep": {"axes": [{"name": axis, "grid": grid}]},
        }))
    return _shuffled(rng, ops)


def _protocol_deck(rng) -> list[dict]:
    ops = []
    for i, N in enumerate(_sizes(15, 150, 300)):
        profile = ({"kind": "homogeneous"} if i % 3 == 2 else
                   {"kind": "gaussian", "sigma": _r(N * rng.uniform(0.1, 1 / 3))})
        ops.append(_cli("store" if i % 2 == 0 else "retrieve", {
            "params": _params(N=N, J=_r(rng.uniform(5.0, 60.0))),
            "profile": profile,
            "rho": _rho(rng, pure=(i // 2) % 2 == 0),
        }))
    # about one op in eight: library store with a spectator magnon in the
    # Fock basis, at most 2 * 2^8 = 512 states
    for N, pure in ((7, True), (8, False)):
        ops.append({"kind": "fock_store", "config": {
            "params": _params(N=N, J=_r(rng.uniform(0.5, 10.0))),
            "profile": {"kind": "gaussian", "sigma": _r(rng.uniform(1.0, 4.0))},
            "rho": _rho(rng, pure=pure),
            "spectator": int(rng.integers(1, N)),
        }})
    return _shuffled(rng, ops)


# (N, s) of the exact spaces: dimension 2 (2s+1)^N stays <= 512.  In cost
# order: four cheap spaces, five of the median stratum (N = 6 at s = 1/2, so
# the median op sits in the middle of it, not on a stratum boundary) and
# four dear ones.
_ORACLE_SPACES = [(5, 0.5), (6, 0.5), (6, 0.5), (7, 0.5), (5, 0.5), (8, 0.5),
                  (4, 1.0), (5, 0.5), (5, 1.0), (5, 0.5), (6, 0.5), (6, 0.5),
                  (6, 0.5)]


def _oracle_deck(rng) -> list[dict]:
    ops = []
    for i, (N, s) in enumerate(_ORACLE_SPACES):
        profile = ({"kind": "homogeneous"} if i % 3 == 0 else
                   {"kind": "gaussian", "sigma": _r(rng.uniform(0.5, N))})
        ops.append(_cli("oracle-compare", {
            "params": _params(N=N, s=s, J=_r(rng.uniform(0.0, 10.0))),
            "profile": profile,
        }))
    return _shuffled(rng, ops)


def _spectrum_deck(rng) -> list[dict]:
    ops = []
    # six chi and five (much cheaper) dispersion ops: the median op is the
    # smallest chi, and the two chi at N = 2500 (2 of 11 ops) put the 90th
    # percentile in the middle of their stratum
    jobs = [("chi", N) for N in _sizes(5, 1000, 2500) + [2500]]
    jobs += [("dispersion", N) for N in _sizes(5, 1000, 2500)]
    for cmd, N in jobs:
        ops.append(_cli(cmd, {
            "params": _params(N=N, J=_r(rng.uniform(1.0, 60.0))),
            "profile": {"kind": "gaussian", "sigma": _r(N * rng.uniform(0.05, 0.25))},
        }))
    return _shuffled(rng, ops)


_DECKS = {"sweep": _sweep_deck, "protocol": _protocol_deck,
          "oracle": _oracle_deck, "spectrum": _spectrum_deck}


def make_deck(workload: str, seed: int, deck: int) -> list[dict]:
    """Op specs of deck ``deck``: dicts with ``kind``, ``config`` and, for
    CLI ops, ``command``."""
    return _DECKS[workload](_rng(workload, seed, deck))


# Fixed, seed-independent warm-up op per workload (part of setup_s).
WARMUP = {
    "sweep": _cli("sweep", {
        "params": _params(N=100, J=20.0),
        "profile": {"kind": "gaussian", "sigma": 20.0},
        "sweep": {"axes": [{"name": "sigma", "grid": [20.0]}]}}),
    "protocol": _cli("retrieve", {
        "params": _params(N=150, J=20.0),
        "profile": {"kind": "gaussian", "sigma": 30.0},
        "rho": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]}),
    "oracle": _cli("oracle-compare", {
        "params": _params(N=6, J=2.0),
        "profile": {"kind": "gaussian", "sigma": 2.0}}),
    "spectrum": _cli("chi", {
        "params": _params(N=1000, J=20.0),
        "profile": {"kind": "gaussian", "sigma": 100.0}}),
}


def dump_config(config: dict) -> bytes:
    """Canonical bytes of a config: what the program reads."""
    return (json.dumps(config, sort_keys=True, indent=1) + "\n").encode()

