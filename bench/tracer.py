"""Span tracer that wraps the package's public functions from outside.

The tracer replaces each traced function in every ``magnon_memory`` module
namespace that holds it (so calls through ``from .x import f`` are seen
too), wraps two methods on their classes, and wraps ``numpy.linalg.eigh``.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` restores every
original.

A span is ``(op, name, start, end, parent)``: ``op`` is the index of the
benchmark op that caused it, ``parent`` the index of the enclosing span or
-1.  Spans stay in memory until :meth:`Tracer.write_spans`.  Bookkeeping
that is not a layer's work (hashing eigh inputs, tracemalloc, stat calls)
is recorded as ``trace.overhead`` spans so that it is not charged to the
enclosing layer's self time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# Layer name -> public functions of that layer, as (module, attribute).
FUNCTION_LAYERS = {
    "boson.build_boson_hamiltonian": [("magnon_memory.boson", "build_boson_hamiltonian")],
    "boson.evolve_constant": [("magnon_memory.boson", "evolve_constant")],
    "protocol.store_outcome": [("magnon_memory.protocol", "store_outcome")],
    "protocol.retrieve": [("magnon_memory.protocol", "retrieve")],
    "protocol.process_fidelity_roundtrip": [
        ("magnon_memory.protocol", "process_fidelity_roundtrip")],
    "protocol.fidelities": [("magnon_memory.protocol", "uhlmann_fidelity"),
                            ("magnon_memory.protocol", "map_fidelity")],
    "decoherence.numeric_fidelity": [("magnon_memory.decoherence", "numeric_fidelity")],
    "decoherence.closed_form": [
        ("magnon_memory.decoherence", name)
        for name in ("decay_rate", "default_broadening", "adiabaticity",
                     "omega_shift", "fidelity_large_n", "fidelity_small_n")],
    "exact.build_exact": [("magnon_memory.exact", "build_exact")],
    "exact.evolve_exact": [("magnon_memory.exact", "evolve_exact")],
    "exact.reduce_electron": [("magnon_memory.exact", "reduce_electron")],
    "model.chi_spectrum": [("magnon_memory.model", "chi_spectrum")],
    "model.dispersion": [("magnon_memory.model", "dispersion")],
    "cli.write": [("magnon_memory.cli", "write_csv"),
                  ("magnon_memory.cli", "write_json")],
}

# Layer name -> methods wrapped on their class, as (module, class, method).
METHOD_LAYERS = {
    "boson.BosonModel": ("magnon_memory.boson", "BosonModel", "__post_init__"),
    "exact.eigensystem": ("magnon_memory.exact", "ExactHamiltonian", "eigensystem"),
}

EIGH = "linalg.eigh"
OVERHEAD = "trace.overhead"


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._eigh_inputs: set[bytes] = set()
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.op = -1  # id of the op being traced

    # -- span bookkeeping -------------------------------------------------

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)  # placeholder, filled by _close
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float, end: float):
        self._stack.pop()
        self.spans[idx] = (self.op, name, start, end, parent)

    def _span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call is a span; ``after(args, result)`` runs
        outside the span, as tracer overhead, to update counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._close(idx, parent, name, start, end)
            self.counters[name + ".calls"] += 1
            if after is not None:
                o_idx, o_parent = self._open()
                o_start = time.perf_counter()
                after(args, result)
                self._close(o_idx, o_parent, OVERHEAD, o_start, time.perf_counter())
            return result

        return wrapper

    def root_caller(self):
        """``call(name, fn, *args)`` that runs one benchmark op as a root span;
        successive calls get successive op ids."""

        def call(name, fn, *args):
            self.op += 1
            return self._span(name, fn)(*args)

        return call

    # -- counters at the layer boundaries ---------------------------------

    def _after_eigh(self, args, result):
        a = np.ascontiguousarray(args[0])
        self.counters[EIGH + ".n3_sum"] += a.shape[-1] ** 3
        self._eigh_inputs.add(hashlib.sha1(a.view(np.uint8)).digest()
                              + repr((a.shape, a.dtype.str)).encode())

    def _after_boson_model(self, args, result):
        self.counters["boson.active_modes.sum"] += len(args[0].active_modes)

    def _after_build_exact(self, args, result):
        self.maxima["exact.dim.max"] = max(self.maxima["exact.dim.max"], result.dim)

    def _after_write(self, args, result):
        self.counters["cli.write.bytes"] += os.path.getsize(args[0])

    def _after_run_sweep(self, args, result):
        err = result.header.index("error")
        self.counters["cli.sweep.error_rows"] += sum(1 for r in result.rows if r[err])

    def _traced_chi_spectrum(self, fn):
        """chi_spectrum with the tracemalloc peak of each call recorded."""

        @functools.wraps(fn)
        def wrapper(profile):
            tracemalloc.start()
            try:
                return fn(profile)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                key = "model.chi_spectrum.peak_mb"
                self.maxima[key] = max(self.maxima[key], peak)

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "magnon_memory"
                                   or mod_name.startswith("magnon_memory.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        import magnon_memory.cli  # noqa: F401  (loads every traced module)

        after = {
            "exact.build_exact": self._after_build_exact,
            "cli.write": self._after_write,
        }
        for layer, targets in FUNCTION_LAYERS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[mod_name], attr)
                inner = (self._traced_chi_spectrum(original)
                         if layer == "model.chi_spectrum" else original)
                self._replace_everywhere(
                    original, self._span(layer, inner, after.get(layer)))

        for layer, (mod_name, cls_name, meth) in METHOD_LAYERS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            hook = self._after_boson_model if layer == "boson.BosonModel" else None
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._span(layer, original, hook))

        cli = sys.modules["magnon_memory.cli"]
        run_sweep = cli.run_sweep

        @functools.wraps(run_sweep)
        def counted_run_sweep(*args, **kwargs):
            result = run_sweep(*args, **kwargs)
            self._after_run_sweep(args, result)
            return result

        self._replace_everywhere(run_sweep, counted_run_sweep)

        self._restore.append((np.linalg, "eigh", np.linalg.eigh))
        np.linalg.eigh = self._span(EIGH, np.linalg.eigh, self._after_eigh)

    def uninstall(self):
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def layer_times(self) -> tuple[dict, dict]:
        """(total seconds, self seconds) per span name."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for op, name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (op, name, start, end, parent) in enumerate(self.spans):
            own[name] += (end - start) - child[i]
        return total, own

    def distinct_eigh_inputs(self) -> int:
        return len(self._eigh_inputs)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps([op, name, start, end, parent]) + "\n")
