"""Span tracer that wraps the program's functions from outside.

Every public function of the seven layer modules, and the public methods of
`poly.Polynomial`, is replaced by a wrapper that records one span per call.
The replacement happens at every binding site: a module that did
`from .genfun import expand_in_gbasis` holds its own reference, and a cached
recursive function such as `count_partitions` re-enters through its module
global, so each module's globals (and the package namespace) are rebound, not
only the defining one.

Spans stay in memory; `summary()` aggregates them once, at the end.  Time
the wrappers themselves take lands in the calling span's self time; the
traced run reports the total as trace.overhead_s.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from fractions import Fraction

LAYERS = ("cli", "spectral", "genfun", "transfer", "linalg", "poly", "partitions")

# Functions whose returned objects feed the size.* counters.  The private
# `_t_matrix_entries` is the only place the product-basis matrix of T is
# returned on the `spectrum` path; it is observed (and timed, inside the
# spectral layer) like the public functions.
_BASIS_FUNCS = {("partitions", "admissible_sequences"), ("poly", "monomial_basis")}
_COEFF_FUNCS = {
    ("spectral", "_t_matrix_entries"),
    ("linalg", "invert"),
    ("linalg", "null_space"),
    ("linalg", "char_poly"),
}


def _layer_functions(module, layer: str):
    """(qualified name, owner, attribute name, function) for every wrapped callable."""
    for name, obj in vars(module).items():
        if name.startswith("_") and (layer, name) not in _COEFF_FUNCS:
            continue
        if inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        yield f"{layer}.{name}", module, name, obj
    if layer == "poly":
        cls = module.Polynomial
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                continue
            if name in ("__repr__", "__init_subclass__", "__subclasshook__"):
                continue
            func = attr.__func__ if isinstance(attr, classmethod) else attr
            if inspect.isfunction(func):
                yield f"poly.Polynomial.{name}", cls, name, attr


_END = -1  # event codes; a code >= 0 opens a span of that function
_REQUEST = -2


class Tracer:
    """Holds the spans of one process.  Create with `install()`.

    Spans are kept as an in-memory event log of (code, value) pairs: opening
    a span appends (function id, start time), closing it (_END, end time), and
    a new request (_REQUEST, request id).  Each span's name, start, end, parent
    and request id follow from the log's nesting; `summary()` reads it once.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.events = array("q")
        self._bases: dict[tuple[int, int, int], int] = {}
        self._gbasis: dict[tuple[int, int, int], tuple] = {}
        self._coeff_objects: dict[int, object] = {}
        self.caches: list = []
        self.current_request = 0

    def start_request(self, request: int) -> None:
        self.current_request = request
        self.events.extend((_REQUEST, request))

    def _wrap(self, qualname: str, func):
        fid = len(self.names)
        self.names.append(qualname)
        append = self.events.append
        clock = time.perf_counter_ns
        key = tuple(qualname.split(".")[:2])
        observe = None
        if key in _BASIS_FUNCS:
            observe = self._observe_basis
        elif key in _COEFF_FUNCS:
            observe = self._observe_coeffs

        if inspect.isgeneratorfunction(func):

            def wrapper(*args, **kwargs):
                append(fid)
                append(clock())
                try:
                    # run the generator inside the span, so its work is timed here
                    return iter(list(func(*args, **kwargs)))
                finally:
                    append(_END)
                    append(clock())

        elif observe is not None:

            def wrapper(*args, **kwargs):
                append(fid)
                append(clock())
                try:
                    result = func(*args, **kwargs)
                finally:
                    append(_END)
                    append(clock())
                observe(qualname, args, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                append(fid)
                append(clock())
                try:
                    return func(*args, **kwargs)
                finally:
                    append(_END)
                    append(clock())

        functools.update_wrapper(wrapper, func)
        return wrapper

    def _observe_basis(self, qualname, args, result) -> None:
        # one count per component per request, whichever basis it obtained
        self._bases.setdefault((self.current_request, args[0], args[1]), len(result))

    def _observe_coeffs(self, qualname, args, result) -> None:
        # kept until summary(), so counting happens outside every span
        self._coeff_objects.setdefault(id(result), result)
        if qualname == "spectral._t_matrix_entries" and args[2] == "gbasis":
            self._gbasis.setdefault((self.current_request, args[0], args[1]), result)

    def summary(self) -> dict:
        """Aggregate the spans: per wrapped function (called or not) calls,
        inclusive time (outermost span of that function only, so recursion is
        not counted twice) and self time (duration minus the time its child
        spans cover).  Cache counts are None when the program has no caches."""
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        active = [0] * len(self.names)
        stack: list[list[int]] = []  # [function id, start, covered by children]
        roots_ns = 0
        ev = self.events
        for i in range(0, len(ev), 2):
            code, value = ev[i], ev[i + 1]
            if code >= 0:
                stack.append([code, value, 0])
                active[code] += 1
            elif code == _END:
                fid, start, covered = stack.pop()
                dur = value - start
                active[fid] -= 1
                calls[fid] += 1
                if not active[fid]:
                    incl[fid] += dur
                self_ns[fid] += dur - covered
                if stack:
                    stack[-1][2] += dur
                else:
                    roots_ns += dur
        infos = [c.cache_info() for c in self.caches]
        return {
            "functions": {name: [calls[f], incl[f], self_ns[f]] for f, name in enumerate(self.names)},
            "roots_ns": roots_ns,
            "cache_hits": sum(i.hits for i in infos) if infos else None,
            "cache_misses": sum(i.misses for i in infos) if infos else None,
            "dim_sum": sum(self._bases.values()),
            "gbasis_nonzeros": sum(1 for m in self._gbasis.values() for row in m for v in row if v),
            "max_coeff_bits": max((_max_bits(o) for o in self._coeff_objects.values()), default=0),
        }


def _max_bits(obj) -> int:
    if isinstance(obj, Fraction):
        return max(abs(obj.numerator).bit_length(), obj.denominator.bit_length())
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, (list, tuple)):
        return max((_max_bits(v) for v in obj), default=0)
    return 0


def install() -> Tracer:
    """Wrap every layer function of the imported `fockspectra` at every binding site."""
    tracer = Tracer()
    wrappers: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"fockspectra.{layer}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_info") and all(obj is not c for c in tracer.caches):
                tracer.caches.append(obj)
        for qualname, owner, name, obj in list(_layer_functions(module, layer)):
            if isinstance(obj, classmethod):
                wrapped = classmethod(tracer._wrap(qualname, obj.__func__))
            else:
                wrapped = tracer._wrap(qualname, obj)
            wrappers[id(obj)] = (obj, wrapped)
            if inspect.isclass(owner):
                setattr(owner, name, wrapped)
    for modname, module in list(sys.modules.items()):
        if modname != "fockspectra" and not modname.startswith("fockspectra."):
            continue
        for name, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
    return tracer
