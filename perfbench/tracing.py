"""Span tracing around the public entry points of each degenpoly layer.

The wrappers live here, in the benchmark, not in the package.  Each one
records a span (name, start, end, parent) in memory; the spans are written
when the traced process ends, and the driver computes per-layer self time
(duration minus the time covered by child spans) from them.

A function imported by name into several modules has one binding per
module, so ``install`` rebinds every ``degenpoly`` module attribute that is
the original object, not only the defining one.  Wrappers sit outside any
``lru_cache``, so cached calls still register (and are counted as repeats).
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from array import array
from functools import cached_property
from pathlib import Path

from spec import re_im

# Bound before ``install`` wraps json.dumps, so writing spans adds none.
_dumps = json.dumps


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Four int64 per span: name id, start ns, end ns, parent span index.
        self.spans = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._seen: dict[str, set] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def first_call(self, name: str, args, kwargs) -> bool:
        """True for the first call with these arguments; later calls count
        in ``<name>.repeat_calls``."""
        key = (args, tuple(sorted(kwargs.items())))
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self.count(name + ".repeat_calls")
            return False
        seen.add(key)
        return True

    def span(self, fn, name=None, name_of=None, after=None):
        """Wrap ``fn`` so that each call records one span.

        ``name_of(args)`` picks a per-call name; ``after(args, kwargs,
        result)`` runs outside the timed interval to update counters.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        fixed = None if name is None else self.name_id(name)
        name_id = self.name_id

        def wrapper(*args, **kwargs):
            nid = fixed if name_of is None else name_id(name_of(args))
            idx = len(spans) >> 2
            spans.extend((nid, 0, 0, stack[-1] if stack else -1))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[4 * idx + 1] = start
                spans[4 * idx + 2] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def write(self, base: str) -> None:
        """Write spans to BASE.spans and names/counters to BASE.json."""
        with open(base + ".spans", "wb") as fh:
            self.spans.tofile(fh)
        with open(base + ".json", "w") as fh:
            fh.write(_dumps({"names": self.names, "counters": self.counters}))


def _rebind(original, replacement) -> None:
    """Point every degenpoly module attribute bound to ``original`` at
    ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "degenpoly" or mod_name.startswith("degenpoly.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _bits(tracer: Tracer, value) -> None:
    for part in re_im(value):
        tracer.maximum("numeric.max_num_bits", abs(part.numerator).bit_length())
        tracer.maximum("numeric.max_den_bits", part.denominator.bit_length())


def _poly_bits(tracer: Tracer, poly) -> None:
    for coeff in poly.terms.values():
        _bits(tracer, coeff)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (see module docstring)."""
    from degenpoly import combinat, egfseries, families, identities, multipoly

    MPoly = multipoly.MPoly

    def terms_of(value) -> int:
        return len(value.terms) if isinstance(value, MPoly) else 1

    def after_mul(args, kwargs, result):
        tracer.count("multipoly.mul.term_pairs", len(args[0].terms) * terms_of(args[1]))
        tracer.maximum("multipoly.max_terms", len(result.terms))

    def after_add(args, kwargs, result):
        tracer.count("multipoly.add.terms_in", len(args[0].terms) + terms_of(args[1]))
        tracer.maximum("multipoly.max_terms", len(result.terms))

    def after_substitute(args, kwargs, result):
        tracer.maximum("multipoly.max_terms", len(result.terms))

    mul = tracer.span(MPoly.__mul__, "multipoly.mul", after=after_mul)
    MPoly.__mul__ = mul
    MPoly.__rmul__ = mul
    add = tracer.span(MPoly.__add__, "multipoly.add", after=after_add)
    MPoly.__add__ = add
    MPoly.__radd__ = add
    MPoly.substitute = tracer.span(MPoly.substitute, "multipoly.substitute",
                                   after=after_substitute)
    MPoly.evaluate = tracer.span(MPoly.evaluate, "multipoly.evaluate",
                                 after=lambda args, kwargs, result: _bits(tracer, result))
    MPoly.to_text = tracer.span(MPoly.to_text, "multipoly.to_text",
                                after=lambda args, kwargs, result: _poly_bits(tracer, args[0]))

    Egf = egfseries.EgfSeries
    Egf.__mul__ = tracer.span(Egf.__mul__, "egfseries.mul")
    Egf.invert = tracer.span(Egf.invert, "egfseries.invert")

    Table = combinat.StirlingTable
    build = Table.__dict__["build"].__func__
    Table.build = classmethod(tracer.span(
        build, name_of=lambda args: "combinat.stirling_build." + args[1].value))

    gff = combinat.gen_falling_factorial

    def after_gff(args, kwargs, result):
        tracer.first_call("combinat.gen_falling_factorial", args, kwargs)

    _rebind(gff, tracer.span(gff, "combinat.gen_falling_factorial", after=after_gff))

    def after_family(name):
        def after(args, kwargs, result):
            if tracer.first_call(name, args, kwargs):
                polys = result.polys if hasattr(result, "polys") else result.coeffs
                for poly in polys:
                    _poly_bits(tracer, poly)
        return after

    for fname in ("family", "family_closed", "classical_family", "kernel_series"):
        original = getattr(families, fname)
        name = "families." + fname
        _rebind(original, tracer.span(original, name, after=after_family(name)))

    Engine = identities.IdentityEngine
    verify = Engine.verify
    shared = [name for name, attr in vars(Engine).items()
              if isinstance(attr, cached_property)]
    forced = weakref.WeakSet()

    def force_shared(engine):
        for name in shared:
            getattr(engine, name)

    force = tracer.span(force_shared, "identities.shared")
    check = tracer.span(verify, name_of=lambda args: "identities.check." + args[1].value)

    def traced_verify(engine, tag):
        # Build the engine's shared families once, in their own span, so
        # that the per-check spans exclude them.
        if engine not in forced:
            forced.add(engine)
            force(engine)
        return check(engine, tag)

    Engine.verify = traced_verify

    Report = identities.IdentityReport
    Report.to_json_dict = tracer.span(Report.to_json_dict, "cli.to_json_dict")
    # The cli serializes through json.dumps.
    json.dumps = tracer.span(json.dumps, "cli.json_dumps")


def self_times(names: list[str], spans: array) -> tuple[dict, dict]:
    """Per-name [calls, inclusive ns, self ns], and per-name inclusive ns of
    the top-level spans (those with no parent)."""
    count = len(spans) >> 2
    child_ns = [0] * count
    for i in range(count):
        parent = spans[4 * i + 3]
        if parent >= 0:
            child_ns[parent] += spans[4 * i + 2] - spans[4 * i + 1]
    stats: dict[str, list[int]] = {}
    top: dict[str, int] = {}
    for i in range(count):
        nid, start, end, parent = spans[4 * i: 4 * i + 4]
        name = names[nid]
        entry = stats.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_ns[i]
        if parent < 0:
            top[name] = top.get(name, 0) + end - start
    return stats, top


def read_spans(base: Path) -> tuple[list[str], dict, array]:
    meta = json.loads(base.with_suffix(".json").read_text())
    spans = array("q")
    path = base.with_suffix(".spans")
    with open(path, "rb") as fh:
        spans.fromfile(fh, path.stat().st_size // spans.itemsize)
    return meta["names"], meta["counters"], spans
