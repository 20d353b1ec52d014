"""Span recorder that times hsparse from outside the package.

Each traced function is wrapped by rebinding the name its caller looks it up
by (``hsparse.experiments.hbp_solve``, ``hsparse.coherence.cross_block_norm``,
...), so no file of the package changes.  A span holds its name, start, end,
parent span and op id; spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import os
import time
from array import array

# (span name, module whose global is rebound, attribute).  The module is the
# caller's namespace: the function is looked up there at call time.
TARGETS = (
    ("io.load", "hsparse.io", "load_document"),
    ("io.load", "hsparse.io", "load_block_dictionary"),
    ("io.write", "hsparse.io", "write_document"),
    ("models.build", "hsparse.experiments", "build_dictionary"),
    ("experiments.sweep", "hsparse.cli", "run_phase_transition"),
    ("experiments.certify", "hsparse.cli", "run_certify"),
    ("experiments.plant", "hsparse.experiments", "plant_signal"),
    ("experiments.write_outputs", "hsparse.experiments", "write_outputs"),
    ("coherence.report", "hsparse.experiments", "coherence_report"),
    ("coherence.mu_h", "hsparse.coherence", "hilbert_coherence"),
    ("coherence.block_family", "hsparse.coherence", "block_coherences"),
    ("coherence.spark", "hsparse.coherence", "spark_exhaustive"),
    ("blocks.cross_norm", "hsparse.coherence", "cross_block_norm"),
    ("recovery.p0", "hsparse.experiments", "hp0_exhaustive"),
    ("recovery.bp", "hsparse.experiments", "hbp_solve"),
    ("recovery.omp", "hsparse.experiments", "homp"),
    ("blocks.lstsq", "hsparse.recovery", "block_least_squares"),
)

def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _solver_outcome(args, kwargs, result):
    return (result.iterations, result.status)


# Extra facts recorded with a span, computed after the call returns.
PAYLOADS = {"io.load": _file_bytes, "io.write": _file_bytes,
            "recovery.p0": _solver_outcome, "recovery.bp": _solver_outcome,
            "recovery.omp": _solver_outcome}


class SpanRecorder:
    """Spans of wrapped calls; ``install`` rebinds the targets, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.payload: dict[int, object] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        nid = self._intern(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
        extra = PAYLOADS.get(name)
        if extra is not None:
            self.payload[idx] = extra(args, kwargs, result)
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self, durations: list[float]) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = list(durations)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= durations[idx]
        return own

    def outermost(self, idx: int) -> bool:
        """False when an ancestor span has the same name (a nested re-entry)."""
        nid = self.name_id[idx]
        parent = self.parent[idx]
        while parent >= 0:
            if self.name_id[parent] == nid:
                return False
            parent = self.parent[parent]
        return True

    def write(self, path: str) -> None:
        """Spans as gzipped tab-separated lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for idx in range(len(self)):
                fh.write(f"{self.names[self.name_id[idx]]}\t{self.start[idx]!r}\t"
                         f"{self.end[idx]!r}\t{self.parent[idx]}\t{self.op[idx]}\n")
