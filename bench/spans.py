"""In-memory span tracer that wraps rotbell functions from outside the package.

Each listed function is wrapped by rebinding every name in the loaded
``rotbell.*`` modules that holds the same function object, so calls made
inside the package (``criterion`` calling ``t_max``, ``lhv`` calling
``project``) are seen too.  Classes are never wrapped; the benchmark opens
spans around its own constructor calls instead.  Spans are kept in flat
arrays while the benchmark runs and written out once at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: Traced functions per module, in the order their metrics are reported.
LAYERS = {
    "states": ("build_ghz", "mix_with_white_noise", "pauli_expectation"),
    "correlation": ("tensor_from_state", "ghz_planar_tensor"),
    "tensor_analysis": ("t_max", "sum_of_squares", "analytic_inner_product"),
    "functional_space": ("project", "saturating_response"),
    "lhv": (
        "verify_bound",
        "random_ensemble",
        "ensemble_inner_product",
        "lr_inner_product",
        "two_setting_model_exists",
    ),
    "criterion": ("ghz_scan", "ri_criterion", "classify"),
    "cli": ("main",),
}

#: Constructor calls the benchmark makes itself; spans, not wrappers.
CONSTRUCTOR_SPANS = ("states.DensityMatrix", "states.StateVector")


def _count_t_max(counters, result):
    counters["tensor_analysis.t_max.sweeps"] += result.iterations
    counters["tensor_analysis.t_max.starts"] += result.starts_used
    counters["tensor_analysis.t_max.certified"] += int(result.certified)
    counters["tensor_analysis.t_max.converged"] += int(result.converged)


def _count_verify_bound(counters, result):
    counters["lhv.verify_bound.trials"] += result.trials


def _count_tensor_from_state(counters, result):
    counters["correlation.tensor_from_state.entries"] += result.values.size


#: Counters read from the dataclasses some traced functions return.
RESULT_COUNTERS = {
    "tensor_analysis.t_max": _count_t_max,
    "lhv.verify_bound": _count_verify_bound,
    "correlation.tensor_from_state": _count_tensor_from_state,
}


def traced_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
    return names + list(CONSTRUCTOR_SPANS)


class Tracer:
    """Records (name, parent, request, start, end) for every span.

    A request is one benchmark item: the outermost span opened by the
    benchmark, whose index every nested span carries.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request[self._stack[0]] if self._stack else idx)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        count = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counters, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every rotbell name that holds a listed function."""
        import rotbell.cli  # noqa: F401  (not imported by the package itself)

        modules = [m for n, m in list(sys.modules.items()) if n == "rotbell" or n.startswith("rotbell.")]
        for mod_name, fns in LAYERS.items():
            home = sys.modules.get(f"rotbell.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                original = getattr(home, fn_name, None)
                if not callable(original) or isinstance(original, type):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebound.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def layer_metrics(self) -> dict[str, float]:
        """calls/self_s/total_s per traced name, plus module roll-ups."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child

        out: dict[str, float] = {}
        module_self: dict[str, float] = defaultdict(float)
        for name in traced_names():
            hit = nid == self._ids[name] if name in self._ids else np.zeros(nid.shape, bool)
            self_s = float(own[hit].sum())
            out[f"{name}.calls"] = int(hit.sum())
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = float(dur[hit].sum())
            module_self[name.split(".")[0]] += self_s
        for mod in LAYERS:
            out[f"{mod}.self_s"] = module_self[mod]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
