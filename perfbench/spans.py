"""Layer spans recorded from outside the program.

A traced pass replaces the public functions (and the public methods,
properties and operators of public classes) of each fockfield layer
module with thin wrappers.  Every alias of a wrapped object in any
loaded fockfield module is replaced as well, so names imported with
``from .field import commutator_sweep`` are traced too.  ``Tracer.remove``
puts every original object back.

A span is (layer, start, end, parent).  A layer's self time is the sum
over its spans of the span's duration minus the part of that interval
covered by its child spans.  Work counters are taken only at layer
boundaries (a span whose parent belongs to another layer, or that has no
parent), so a layer calling itself does not count the same work twice.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

PACKAGE = "fockfield"
LAYERS = ("fock", "wick", "field", "dynamics", "qinfo", "artifacts", "cli")

# Operators and the printer are public behaviour of the classes that define
# them; constructors and validation hooks stay untraced.
TRACED_DUNDERS = frozenset({"__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__str__"})


def self_times(spans):
    """Per-span self time for spans given as (start, end, parent_index).

    parent_index is None for a root span.  Child intervals are clipped to
    the parent and merged before subtraction, so overlapping children are
    not subtracted twice.
    """
    children = [[] for _ in spans]
    for i, (_, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][0], start), min(spans[c][1], end)) for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and boundary counters for the layers while installed."""

    def __init__(self):
        self.spans = []  # (layer, start, end, parent)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counters = {}
        self._stack = []  # (span index, layer) of the open spans
        self._patched = []  # (owner, name, original)
        self._metadata_path = None
        self.paused = False  # set while the benchmark checks outputs

    # -- installation -------------------------------------------------

    def install(self):
        mods = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        self._metadata_path = mods["artifacts"].metadata_path
        replacements = {}  # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replacements[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def _wrap_class(self, layer, cls):
        for name, member in list(vars(cls).items()):
            public = not name.startswith("_") or name in TRACED_DUNDERS
            if not public:
                continue
            if inspect.isfunction(member):
                self._patched.append((cls, name, member))
                setattr(cls, name, self._wrap(layer, f"{cls.__name__}.{name}", member))
            elif isinstance(member, property) and member.fget is not None:
                self._patched.append((cls, name, member))
                setattr(cls, name, property(self._wrap(layer, f"{cls.__name__}.{name}", member.fget),
                                            member.fset, member.fdel, member.__doc__))

    def remove(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- recording ----------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent, parent_layer = stack[-1] if stack else (None, None)
            boundary = parent_layer != layer
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append((index, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (layer, start, end, parent)
            if boundary:
                tracer._count(layer, name, args, kwargs, result)
            return result

        return wrapper

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _count(self, layer, name, args, kwargs, result):
        """Work counts measured from a boundary call's arguments and result."""
        rtype = type(result).__name__
        if layer == "fock" and rtype == "FockVector":
            self.add("fock.components_out", len(result.amplitudes))
        elif layer == "wick" and rtype in ("NormalForm", "DeltaPolynomial"):
            self.add("wick.terms_out", len(result.terms))
        elif layer == "field":
            if name == "commutator_sweep":
                lattice = args[0] if args else kwargs["lattice"]
                pairs = args[1] if len(args) > 1 else kwargs["pairs"]
                self.add("field.mode_terms", len(pairs) * lattice.num_sites)
            elif name == "pauli_jordan":
                lattice = args[0] if args else kwargs["lattice"]
                self.add("field.mode_terms", lattice.num_sites)
            elif name in ("to_momentum", "from_momentum"):
                self.add("field.fft_points", len(result.values))
        elif layer == "dynamics" and name == "trajectory":
            self.add("dynamics.samples", len(result))
        elif layer == "qinfo":
            if rtype == "DensityMatrix":
                self.add("qinfo.rho_entries", result.rho.shape[0] ** 2)
            elif name == "sample_outcomes":
                self.add("qinfo.draws", int(result.sum()))
        elif layer == "artifacts" and name in ("write_csv", "write_text", "write_metadata"):
            path = args[0] if args else next(iter(kwargs.values()))
            if name == "write_metadata":
                path = self._metadata_path(path)
            self.add("artifacts.bytes_written", os.path.getsize(path))
        elif layer == "cli" and name == "main" and result != 0:
            self.add("cli.exit_nonzero", 1)

    # -- summaries ----------------------------------------------------

    def layer_summary(self):
        """{layer: (calls, self_s, errors)} over the spans recorded so far."""
        selfs = self_times([(s, e, p) for _, s, e, p in self.spans])
        out = {layer: [0, 0.0, self.errors[layer]] for layer in LAYERS}
        for (layer, _, _, _), st in zip(self.spans, selfs):
            out[layer][0] += 1
            out[layer][1] += st
        return {k: tuple(v) for k, v in out.items()}

    def reset(self):
        self.spans.clear()
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counters = {}
