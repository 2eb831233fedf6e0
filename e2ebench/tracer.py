"""Spans around the public functions of each monotonia module, from outside the library.

``Tracer.install`` replaces every public function of the layer modules, in
every monotonia module namespace that holds it (``monotonia.loi``,
``monotonia.indices.derivative``, ...), with a wrapper that records a span.
Constructions are counted by wrapping each dataclass's ``__post_init__``.
Nothing is installed unless a traced run asks for it, and ``uninstall`` puts
the originals back, so a run can switch tracing on and off between rounds.

A span is (name, start, end, parent, operation id), kept in flat integer
arrays while the run lasts and written out once at the end.  A layer's self
time is the time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import inspect
from array import array
from time import perf_counter_ns

import numpy as np

LAYER_MODULES = ("cli", "functions", "indices", "orderings", "measures", "risk")
LAYERS = ("cli", "functions", "kernels", "indices", "orderings", "measures", "risk")
KERNELS = ("transform_reduce", "sign_split_sums")
# Constructors whose cells count as one validation pass each.
VALIDATING = {"SampledFunction": "xs", "DerivativeProfile": "lengths"}
OP = "op"  # root span of one benchmark operation


class Tracer:
    """Records spans and cell counts; ``install`` and ``uninstall`` switch the wrappers."""

    def __init__(self):
        self.names: list[str] = [OP]
        self.layer_of: list[str] = ["bench"]
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.stack: list[int] = []
        self.op = -1
        self.validated_cells = 0
        self.reduced_cells = 0
        self._plan: list[tuple[object, str, object]] | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.op)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._open(0)

    def end_op(self) -> None:
        self._close(self.stack[-1])

    def _name(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str, on_return=None):
        nid = self._name(name, layer)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_return is not None:
                on_return(args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, m) -> None:
        """Put the wrappers in place; they are made on the first call and reused after."""
        if self._plan is None:
            self._plan = self._make_plan(m)
        for owner, attr, wrapper in self._plan:
            self._restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _make_plan(self, m) -> list[tuple[object, str, object]]:
        plan = []
        wrappers: dict[int, object] = {}
        modules = {name: getattr(m, name) for name in LAYER_MODULES}

        def count_reduced(args):
            self.reduced_cells += args[0].shape[0]

        backend = getattr(m, "_backend", None)  # absent if the package drops its backend switch
        for name in KERNELS if backend is not None else ():
            fn = getattr(backend, name)
            wrappers[id(fn)] = self._wrap(fn, f"_backend.{name}", "kernels", count_reduced)

        for layer, mod in modules.items():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    plan.append((obj, "__post_init__", self._wrap_post_init(obj, layer)))

        namespaces = [m, *modules.values()] + ([backend] if backend is not None else [])
        for ns in namespaces:
            for attr, value in vars(ns).items():
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    plan.append((ns, attr, wrapper))
        return plan

    def _wrap_post_init(self, cls, layer: str):
        on_return = None
        field = VALIDATING.get(cls.__name__)
        if field is not None:
            def on_return(args, field=field):
                self.validated_cells += getattr(args[0], field).shape[0]
        return self._wrap(vars(cls)["__post_init__"], f"{layer}.{cls.__name__}", layer, on_return)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Self nanoseconds and span counts per layer, over all recorded spans."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nid = np.frombuffer(self.name_id, dtype=np.int64)
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0])
        self_ns = dur - children
        layer_index = {layer: k for k, layer in enumerate(("bench",) + LAYERS)}
        span_layer = np.asarray([layer_index[layer] for layer in self.layer_of])[nid]
        totals = np.bincount(span_layer, weights=self_ns, minlength=len(layer_index))
        counts = np.bincount(span_layer, minlength=len(layer_index))
        kernel_ns = float(np.sum(dur[span_layer == layer_index["kernels"]]))
        return {
            "self_ns": {layer: float(totals[k]) for layer, k in layer_index.items()},
            "calls": {layer: int(counts[k]) for layer, k in layer_index.items()},
            "kernel_ns": kernel_ns,
            "op_ns": float(np.sum(dur[nid == 0])),
        }

    def write(self, path: str) -> None:
        """One line per span: name, start_ns, end_ns, parent index, operation id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            names = self.names
            for row in zip(self.name_id, self.start, self.end, self.parent, self.op_id):
                fh.write(f"{names[row[0]]},{row[1]},{row[2]},{row[3]},{row[4]}\n")
