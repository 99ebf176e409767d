"""Per-layer spans and counters for the benchmark, recorded from outside vermajet.

A traced run wraps each layer function listed in LAYERS.  Every binding of
the function inside the ``vermajet`` package is replaced: the defining
module's global, every copy made by ``from .x import name`` in another
module or in the package namespace, and every class attribute that holds it
(``Poly.__rmul__`` is the same function as ``Poly.__mul__``).  A binding that
is missed would let calls bypass the wrapper and undercount the layer, so
``stale_bindings`` scans the package independently and reports any left.

Each wrapped call records a span: its name, its parent span, and three
clock readings: ``start`` and ``end`` around the call, and ``done`` after the
tracer has updated its counters.  A span covers ``[start, done]`` in its
parent, so the cost of counting is charged to neither the span nor its
parent; self time is ``end - start`` minus the time its children cover.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import pkgutil
import time
import types
from array import array

LAYERS = (
    "plethysm.act",
    "filtration.apply_pbw_monomial",
    "jets.section_space",
    "jets.plucker_polynomial",
    "linalg.SparseMatrix.from_rows",
    "linalg.rref",
    "linalg.rank",
    "linalg.kernel_basis",
    "linalg.span_dim",
    "polynomials.Poly.__mul__",
    "polynomials.Poly.substitute",
    "polynomials.det",
    "discriminant.graded_relations",
    "discriminant.multiple_root_eliminant",
    "discriminant.irreducibility_witness",
    "suite.case_report",
    "suite.disc_report",
)

# Layers whose argument tuples are counted, to expose recomputation.
DISTINCT_ARGS = frozenset({
    "jets.section_space", "jets.plucker_polynomial",
    "discriminant.graded_relations", "discriminant.multiple_root_eliminant",
})
# Layers whose zero results are counted, to expose wasted action work.
ZERO_RESULTS = frozenset({"plethysm.act", "filtration.apply_pbw_monomial"})

PACKAGE = "vermajet"


def package_modules() -> list[types.ModuleType]:
    """The package and every submodule, imported."""
    package = importlib.import_module(PACKAGE)
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__, PACKAGE + "."):
        modules.append(importlib.import_module(info.name))
    return modules


def resolve(layer: str):
    """The original function behind a layer name such as 'linalg.rref'."""
    module_name, *path = layer.split(".")
    owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    return _unwrap_descriptor(inspect.getattr_static(owner, path[-1]))


def _bindings():
    """Yield (namespace, key, raw value) for every module global and class
    attribute defined in the package."""
    for module in package_modules():
        for key, value in list(vars(module).items()):
            yield module, key, value
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                for ckey, cvalue in list(vars(value).items()):
                    yield value, ckey, cvalue


def _unwrap_descriptor(raw):
    return raw.__func__ if isinstance(raw, staticmethod) else raw


def stale_bindings(originals) -> list[str]:
    """Places in the package that still reach an original layer function:
    globals, class attributes, and default arguments or closure cells of the
    package's own functions."""
    targets = {id(fn) for fn in originals}
    found = []
    for owner, key, raw in _bindings():
        where = f"{owner.__name__}.{key}"
        fn = _unwrap_descriptor(raw)
        if id(fn) in targets:
            found.append(where)
        elif isinstance(fn, types.FunctionType) and fn.__module__.startswith(PACKAGE):
            hidden = list(fn.__defaults__ or ()) + list((fn.__kwdefaults__ or {}).values())
            hidden += [cell.cell_contents for cell in fn.__closure__ or ()
                       if cell.cell_contents is not None]
            if any(id(v) in targets for v in hidden):
                found.append(where + " (default or closure)")
    return found


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.done = array("d")
        self.parent = array("l")
        self.name = array("l")
        self._stack = [-1]
        self.keys: dict[str, set] = {layer: set() for layer in DISTINCT_ARGS}
        self.zeros = dict.fromkeys(ZERO_RESULTS, 0)
        self.rref_rows = 0
        self.rref_nnz_in = 0
        self.rref_max_bits = 0
        self.mul_term_products = 0
        self._originals: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    # -- spans ----------------------------------------------------------

    def _open(self, index: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(index)
        self.end.append(0.0)
        self.done.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = self.done[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def job(self, label: str):
        """A root span around one benchmark job."""
        sid = self._open(self._index(f"job.{label}"))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, layer: str, fn):
        index = self._index(layer)
        count = self._counter(layer, fn)
        clock = time.perf_counter
        done = self.done

        def wrapper(*args, **kwargs):
            sid = self._open(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if count is not None:
                count(args, kwargs, result)
                done[sid] = clock()
            return result

        # Not functools.wraps: a wrapper must not pass for package code,
        # or stale_bindings would find the original in its closure.
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _counter(self, layer: str, fn):
        if layer in DISTINCT_ARGS:
            signature = inspect.signature(fn)
            keys = self.keys[layer]

            def count(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                keys.add(repr(tuple(bound.arguments.values())))
            return count
        if layer in ZERO_RESULTS:
            def count(args, kwargs, result):
                if result.is_zero:
                    self.zeros[layer] += 1
            return count
        if layer == "linalg.rref":
            def count(args, kwargs, result):
                matrix = args[0] if args else kwargs["matrix"]
                self.rref_rows += matrix.rows
                self.rref_nnz_in += len(matrix.entries)
                bits = max((max(v.numerator.bit_length(), v.denominator.bit_length())
                            for v in result.reduced.entries.values()), default=0)
                self.rref_max_bits = max(self.rref_max_bits, bits)
            return count
        if layer == "polynomials.Poly.__mul__":
            def count(args, kwargs, result):
                left, right = args
                right_terms = len(right.terms) if hasattr(right, "terms") else 1
                self.mul_term_products += len(left.terms) * right_terms
            return count
        return None

    # -- installing the wrappers ----------------------------------------

    def install(self) -> None:
        """Replace every binding of every layer function by its wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            fn = resolve(layer)
            self._originals[layer] = fn
            wrappers[id(fn)] = self._wrap(layer, fn)
        for owner, key, raw in _bindings():
            wrapper = wrappers.get(id(_unwrap_descriptor(raw)))
            if wrapper is None:
                continue
            self._restore.append((owner, key, raw))
            setattr(owner, key, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def uninstall(self) -> None:
        for owner, key, raw in reversed(self._restore):
            setattr(owner, key, raw)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @property
    def originals(self) -> list:
        return list(self._originals.values())

    # -- results --------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Calls, total time and self time per span name, from the spans."""
        cover = [0.0] * len(self.start)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                cover[parent] += self.done[sid] - self.start[sid]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for sid, index in enumerate(self.name):
            entry = out[self.names[index]]
            duration = self.end[sid] - self.start[sid]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - cover[sid]
        return out

    def write_spans(self, handle, workload: str, run: str) -> None:
        """Append every span to an open text file as JSON lines; times are
        seconds from the first span's start."""
        origin = self.start[0] if self.start else 0.0
        for sid in range(len(self.start)):
            parent = self.parent[sid]
            handle.write(json.dumps({
                "span": sid,
                "parent": parent if parent >= 0 else None,
                "name": self.names[self.name[sid]],
                "start": round(self.start[sid] - origin, 7),
                "end": round(self.end[sid] - origin, 7),
                "done": round(self.done[sid] - origin, 7),
                "workload": workload,
                "run": run,
            }, separators=(",", ":")) + "\n")


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """The per-layer metrics of one traced job list, by metric name."""
    times = recorder.layer_times()
    out: dict[str, float] = {}
    for layer in LAYERS:
        for key, value in times.get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0}).items():
            out[f"{layer}.{key}"] = value
    for layer in DISTINCT_ARGS:
        out[f"{layer}.distinct_ratio"] = _ratio(len(recorder.keys[layer]), out[f"{layer}.calls"])
    for layer in ZERO_RESULTS:
        out[f"{layer}.zero_ratio"] = _ratio(recorder.zeros[layer], out[f"{layer}.calls"])
    out["linalg.rref.rows"] = recorder.rref_rows
    out["linalg.rref.nnz_in"] = recorder.rref_nnz_in
    out["linalg.rref.max_bits"] = recorder.rref_max_bits
    out["polynomials.Poly.__mul__.term_products"] = recorder.mul_term_products
    return out
