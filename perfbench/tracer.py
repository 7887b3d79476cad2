"""Span tracing of lieprolong from outside the package.

Every public function of the package modules, and the numpy/scipy kernels
they call, is replaced by a wrapper in each module namespace that holds
it, so a call is recorded whichever module looked the name up.  A span is
(name, start, end, parent); spans are kept in compact arrays in memory
and written out once, at the end.  Counts and inclusive times are kept at
the same boundaries.

``tangent_space`` is too thin to be a layer of its own: its cost lands in
the self time of whichever layer called it.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from array import array

LAYERS = ("groups", "prolongation", "rep_algebra", "catalog", "cli")
KERNEL = "kernel"

# Kernels are module attributes that package code looks up at call time.
KERNEL_FUNCS = {
    "numpy.linalg": ("cond", "inv", "svd", "lstsq", "solve", "eigh", "det", "norm"),
    "scipy.linalg": ("expm", "logm", "block_diag"),
    "scipy.spatial.distance": ("pdist", "squareform"),
}

# Metric groups whose time is counted once, at the outermost call: the
# samplers call each other, mat_exp recurses over product factors.
GROUPS = {
    "groups.sample_tangent_element": "groups.sample",
    "groups.sample_group_element": "groups.sample",
}

CATALOG_ACCESSORS = ("catalog.catalog_list", "catalog.catalog_entry", "catalog.catalog_names")


class Tracer:
    """Records spans while ``active``; ``op`` tags each span with its round."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.active = False
        self.op = -1
        self.measure_memory = False
        self.faithfulness_peak_bytes = 0
        self.first_catalog_s: float | None = None
        self._depth: dict[str, int] = {}
        # per op: {group key: [calls, inclusive seconds]}
        self.totals: dict[int, dict[str, list]] = {}

    def _intern(self, name: str, layer: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self.name_id[name]

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        sid = self._intern(name, layer)
        key = GROUPS.get(name, name)
        is_kernel = layer == KERNEL
        is_faithfulness = name == "rep_algebra.faithfulness_probe"
        is_catalog_accessor = name in CATALOG_ACCESSORS

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            if is_kernel and (not stack or tracer.layer_of[tracer.span_name[stack[-1]]] == KERNEL):
                # Only kernels called by package code count, not the ones
                # numpy and scipy call internally.
                return fn(*args, **kwargs)
            index = len(tracer.span_start)
            tracer.span_name.append(sid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            depth = tracer._depth.get(key, 0)
            tracer._depth[key] = depth + 1
            memory = is_faithfulness and tracer.measure_memory
            if memory:
                tracemalloc.start()
            stack.append(index)
            start = time.perf_counter()
            tracer.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.span_end[index] = end
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.faithfulness_peak_bytes = max(tracer.faithfulness_peak_bytes, peak)
                tracer._depth[key] = depth
                slot = tracer.totals.setdefault(tracer.op, {}).setdefault(key, [0, 0.0])
                slot[0] += 1
                if depth == 0:
                    slot[1] += end - start
                if is_catalog_accessor and tracer.first_catalog_s is None:
                    tracer.first_catalog_s = end - start

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    @staticmethod
    def _replace(namespaces, original, wrapper) -> None:
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the package's public functions and its kernels everywhere."""
        layers = {layer: importlib.import_module(f"lieprolong.{layer}") for layer in LAYERS}
        package = [m for name, m in list(sys.modules.items())
                   if name == "lieprolong" or name.startswith("lieprolong.")]
        for layer, module in layers.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not callable(fn) or isinstance(fn, type):
                    continue
                self._replace(package, fn, self._wrap(fn, f"{layer}.{attr}", layer))
        for module_name, attrs in KERNEL_FUNCS.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                setattr(module, attr, self._wrap(fn, f"kernel.{attr}", KERNEL))

    # -- aggregation -------------------------------------------------------

    def op_totals(self, ops) -> dict[str, list]:
        """Calls and inclusive seconds per name or group, summed over ``ops``."""
        out: dict[str, list] = {}
        for op in ops:
            for key, (calls, seconds) in self.totals.get(op, {}).items():
                slot = out.setdefault(key, [0, 0.0])
                slot[0] += calls
                slot[1] += seconds
        return out

    def summary(self, ops) -> dict:
        return {"totals": self.op_totals(ops), "self": self.layer_self_seconds(ops)}

    def layer_self_seconds(self, ops) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        import numpy as np

        if not len(self.span_start):
            return {layer: 0.0 for layer in LAYERS + (KERNEL,)}
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        op_tags = np.frombuffer(self.span_op, dtype=np.int32)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - covered
        keep = np.isin(op_tags, list(ops))
        layer_index = np.array([LAYERS.index(l) if l in LAYERS else len(LAYERS)
                                for l in self.layer_of])
        per_span_layer = layer_index[names]
        sums = np.bincount(per_span_layer[keep], weights=self_time[keep],
                           minlength=len(LAYERS) + 1)
        return {layer: float(sums[i]) for i, layer in enumerate(LAYERS + (KERNEL,))}

    def dump(self, path) -> None:
        """Write every span, with its name table, to an ``.npz`` file."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )
