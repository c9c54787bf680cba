"""Span tracing of fisherlab's public functions, installed from outside.

The tracer wraps each listed function everywhere a fisherlab module has
imported it, and each listed class's ``__init__``, so calls between
modules are caught without touching the package's source. Spans live in
flat in-memory arrays (a 2001-point sweep makes ~35k spans per op) and
are written out once, at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "numerics": ("require_hermitian", "hermitian_eig", "seminorm"),
    "state_family": ("StateFamily", "evaluate", "derivative"),
    "metrology": ("qfi", "sld", "seminorm_bound"),
    "measurement": (
        "Povm",
        "q_family_measurement",
        "sld_measurement",
        "rotated_qubit_measurement",
        "outcome_distribution",
        "classical_fisher",
        "shannon_entropy",
    ),
    "audit": ("audit", "sweep_q", "write_sweep_csv"),
    "estimation": ("sample_outcomes", "mle_estimate", "crb_experiment"),
    "cli": ("load_config", "build_family", "build_povm", "main"),
}
SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)


class Tracer:
    """Records one span per call of a traced function.

    A span is (name, start, end, parent span, op id); ``op`` is set by the
    caller before each operation so spans of one op share an id.
    """

    def __init__(self):
        self.name = array("H")
        self.parent = array("i")
        self.op_ids = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op = -1
        self._stack = []
        self._undo = []

    def _wrap(self, index: int, fn):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.name.append(index)
            self.parent.append(stack[-1] if stack else -1)
            self.op_ids.append(self.op)
            self.end.append(0.0)
            stack.append(span)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "fisherlab" or n.startswith("fisherlab.")]
        for index, span_name in enumerate(SPAN_NAMES):
            layer, name = span_name.split(".")
            target = getattr(sys.modules[f"fisherlab.{layer}"], name)
            if isinstance(target, type):
                self._undo.append((target, "__init__", target.__init__))
                target.__init__ = self._wrap(index, target.__init__)
                continue
            traced = self._wrap(index, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        self._undo.append((module, attr, value))
                        setattr(module, attr, traced)

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.uint16),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op_ids, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def summary(self):
        """Per span name: ``(calls, self_seconds)`` arrays indexed like SPAN_NAMES.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap.
        """
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        nested = spans["parent"] >= 0
        children = np.zeros_like(duration)
        np.add.at(children, spans["parent"][nested], duration[nested])
        calls = np.bincount(spans["name"], minlength=len(SPAN_NAMES))
        self_s = np.bincount(spans["name"], weights=duration - children, minlength=len(SPAN_NAMES))
        return calls, self_s

    def write(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())
