"""In-memory spans around the public functions of kinklab, for the traced run.

Each traced function is replaced, under every name by which a kinklab module
reaches it (``kinklab.preimage.step_word`` as well as
``kinklab.dynamics.step_word``), by a wrapper that records one span: name,
start, end, parent span and run id.  Spans are kept in a flat ``array`` of
64-bit integers, five per span, so a million spans cost 40 MB, and are written
out once the run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# The functions whose calls and time the per-layer metrics report, keyed by
# "<layer>.<function>".  Helpers called inside their loops (rule18_local,
# check_word, find_kinks) are deliberately absent: wrapping them would make
# the tracing cost dominate the run.
TRACED = {
    "dynamics": ("step_word", "step_support", "iterate_word"),
    "kinks": ("count_kinks",),
    "preimage": ("preimages", "has_preimage", "preimage_depth"),
    "oracles": (
        "verify_figure_iterates",
        "verify_kink_elimination_parity",
        "verify_annihilation",
        "verify_extension_counterexample",
        "verify_preimage_reduction_cases",
        "verify_mobility",
        "verify_flipflop",
        "verify_two_kink_backward",
        "verify_separation",
    ),
    "density": (
        "density_trajectory",
        "word_frequency_trajectory",
        "fit_power_law",
        "write_density_csv",
        "write_density_metadata",
    ),
}

# Modules whose globals may hold a traced function under some name.
REACHING_MODULES = (
    "kinklab",
    "kinklab.dynamics",
    "kinklab.kinks",
    "kinklab.wordclasses",
    "kinklab.preimage",
    "kinklab.oracles",
    "kinklab.density",
    "kinklab.cli",
)

_FIELDS = 5  # name id, start ns, end ns, parent span index, run id


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # span name per name id
        self.keys: list[str] = []  # "<layer>.<function>" per name id
        self.spans = array("q")
        self.members = 0  # total size of every PreimageSet returned
        self.run_id = 0
        self._stack = [-1]

    def _name_id(self, name: str, key: str) -> int:
        self.names.append(name)
        self.keys.append(key)
        return len(self.names) - 1

    def _wrap(self, name: str, key: str, fn):
        nid = self._name_id(name, key)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count_members = key == "preimage.preimages"

        def traced(*args, **kwargs):
            idx = len(spans) // _FIELDS
            spans.extend((nid, clock(), 0, stack[-1], self.run_id))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx * _FIELDS + 2] = clock()
                stack.pop()
            if count_members:
                self.members += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself, e.g. one workload pass."""
        nid = self._name_id(name, name)
        idx = len(self.spans) // _FIELDS
        self.spans.extend((nid, time.perf_counter_ns(), 0, self._stack[-1], self.run_id))
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx * _FIELDS + 2] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Wrap every traced function in every reaching module; restore on exit."""
        originals = {}
        for layer, functions in TRACED.items():
            mod = importlib.import_module(f"kinklab.{layer}")
            for fn_name in functions:
                originals[id(getattr(mod, fn_name))] = f"{layer}.{fn_name}"
        patched = []
        for mod_name in REACHING_MODULES:
            mod = importlib.import_module(mod_name)
            for attr, value in list(vars(mod).items()):
                key = originals.get(id(value))
                if key is not None:
                    setattr(mod, attr, self._wrap(f"{mod_name}.{attr}", key, value))
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per key: calls, inclusive seconds and self seconds (inclusive time
        minus the time covered by direct child spans)."""
        t = self.table()
        if not len(t):
            return {}
        dur = (t[:, 2] - t[:, 1]).astype(np.float64)
        parent = t[:, 3]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(t)
        )
        self_time = dur - child_time
        key_ids = {k: i for i, k in enumerate(dict.fromkeys(self.keys))}
        key_of_name = np.array([key_ids[k] for k in self.keys], dtype=np.int64)
        key_col = key_of_name[t[:, 0]]
        n = len(key_ids)
        calls = np.bincount(key_col, minlength=n)
        incl = np.bincount(key_col, weights=dur, minlength=n)
        excl = np.bincount(key_col, weights=self_time, minlength=n)
        return {
            k: {"calls": int(calls[i]), "s": incl[i] / 1e9, "self_s": excl[i] / 1e9}
            for k, i in key_ids.items()
        }

    def write(self, path: str) -> None:
        np.savez(path, spans=self.table(), names=np.array(self.names),
                 fields=np.array(["name", "start_ns", "end_ns", "parent", "run"]))
