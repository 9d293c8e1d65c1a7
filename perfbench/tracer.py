"""Span tracer that times symgrowth's layers from outside the package.

``Tracer.install`` wraps the public functions named in ``SPANS`` and the
counted callables (``charge_pairs``, every backend's ``multiply``,
``GSet.translate_left``).  Modules import functions by name, so every
module-level binding of a wrapped function inside ``symgrowth`` is
replaced, not only the one in the defining module.  Nothing under ``src/``
changes; ``uninstall`` restores every binding.

A span records its name, start and end (ns), parent span, op id, and the
multiplications, budget charges and shrink candidates counted while it was
the innermost open span.  Spans stay in memory and are written out when the
run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

#: (module, attribute, span name); the span name is the layer metric prefix
SPANS = (
    ("symgrowth.cli", "main", "cli.main"),
    ("symgrowth.groups", "group_from_spec", "groups.construct"),
    ("symgrowth.instances", "generate", "instances.generate"),
    ("symgrowth.gset", "product", "gset.product"),
    ("symgrowth.gset", "doubling_stats", "gset.doubling_stats"),
    ("symgrowth.gset", "power", "gset.power"),
    ("symgrowth.symmetry", "sym_set", "symmetry.sym_set"),
    ("symgrowth.symmetry", "overlap", "symmetry.overlap"),
    ("symgrowth.growth", "shrink_step", "growth.shrink_step"),
    ("symgrowth.growth", "stable_neighbourhood", "growth.stable_neighbourhood"),
    ("symgrowth.oracle", "oracle_product", "oracle.oracle_product"),
    ("symgrowth.oracle", "oracle_level_set", "oracle.oracle_level_set"),
    ("symgrowth.oracle", "oracle_sym_members", "oracle.oracle_sym_members"),
    ("symgrowth.oracle", "oracle_power", "oracle.oracle_power"),
    ("symgrowth.oracle", "verify_certificate", "oracle.verify_certificate"),
    ("symgrowth.serialize", "canonical_dumps", "serialize.canonical_dumps"),
    ("symgrowth.serialize", "load_json", "serialize.load_json"),
)

#: positions of the two set arguments whose sizes give a product's pairs
_PAIR_ARGS = {"gset.product": (0, 1), "oracle.oracle_product": (1, 2)}


class TraceGuardError(RuntimeError):
    """Counted work happened outside every layer span below ``cli.main``."""


class Span:
    __slots__ = ("idx", "name", "parent", "op", "start", "end", "mults", "charges", "charged", "pairs", "cands", "hits", "out_bytes")

    def __init__(self, idx, name, parent, op):
        self.idx = idx
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0
        self.mults = self.charges = self.charged = self.pairs = self.cands = self.hits = self.out_bytes = 0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.root = Span(-1, "<root>", -1, -1)
        self.sink = Span(-1, "<direct_product factors>", -1, -1)
        self.cur = self.root
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        spans = self.spans
        clock = time.perf_counter_ns
        pair_args = _PAIR_ARGS.get(name)

        def wrapper(*args, **kwargs):
            parent = tracer.cur
            sp = Span(len(spans), name, parent.idx, tracer.op)
            spans.append(sp)
            if pair_args is not None:
                try:
                    sp.pairs = len(args[pair_args[0]]) * len(args[pair_args[1]])
                except (IndexError, TypeError):
                    pass
            tracer.cur = sp
            sp.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = clock()
                tracer.cur = parent
            if name == "growth.shrink_step" and getattr(result, "case", None) == "shrink":
                sp.hits = 1
            elif name == "serialize.canonical_dumps":
                sp.out_bytes = len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _charge_wrapper(self, fn):
        tracer = self

        def charge_pairs(needed, *args, **kwargs):
            cur = tracer.cur
            cur.charges += 1
            cur.charged += needed
            return fn(needed, *args, **kwargs)

        charge_pairs.__wrapped__ = fn
        return charge_pairs

    def _multiply_wrapper(self, fn, factors_hidden):
        tracer = self
        if not factors_hidden:
            def multiply(group, x, y):
                tracer.cur.mults += 1
                return fn(group, x, y)
        else:
            # only the outermost call counts: factor multiplies go to a sink
            def multiply(group, x, y):
                cur = tracer.cur
                cur.mults += 1
                tracer.cur = tracer.sink
                try:
                    return fn(group, x, y)
                finally:
                    tracer.cur = cur

        multiply.__wrapped__ = fn
        return multiply

    def _translate_wrapper(self, fn):
        tracer = self

        def translate_left(gset, t):
            tracer.cur.cands += 1
            return fn(gset, t)

        translate_left.__wrapped__ = fn
        return translate_left

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import symgrowth.cli  # noqa: F401  (loads every module that gets patched)
        from symgrowth import budget, groups, gset

        replacements = {}
        for module, attr, name in SPANS:
            fn = getattr(sys.modules[module], attr, None)
            if fn is not None:
                replacements[id(fn)] = (fn, self._span_wrapper(name, fn))
        replacements[id(budget.charge_pairs)] = (budget.charge_pairs, self._charge_wrapper(budget.charge_pairs))

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "symgrowth" or mod_name.startswith("symgrowth.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

        for cls in vars(groups).values():
            if isinstance(cls, type) and issubclass(cls, groups.Group) and "multiply" in vars(cls):
                fn = vars(cls)["multiply"]
                if not getattr(fn, "__isabstractmethod__", False):
                    self._set(cls, "multiply", self._multiply_wrapper(fn, cls is groups.DirectProductGroup))
        if hasattr(gset.GSet, "translate_left"):
            self._set(gset.GSet, "translate_left", self._translate_wrapper(gset.GSet.translate_left))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- per-pass results -----------------------------------------------------

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and check the guard."""
        spans = list(self.spans)
        self.spans.clear()
        leaks = [s for s in spans if s.name == "cli.main" and (s.mults or s.charges)]
        if self.root.mults or self.root.charges or leaks:
            raise TraceGuardError(
                f"multiply/charge_pairs outside a layer span: {self.root.mults} multiplies and "
                f"{self.root.charges} charges with no span open, {sum(s.mults for s in leaks)} multiplies and "
                f"{sum(s.charges for s in leaks)} charges directly under cli.main; a binding was missed"
            )
        return spans


def _ancestry(spans: list[Span]) -> list[frozenset]:
    """For each span of a pass: the names on its ancestor chain."""
    cache: dict = {}
    out: list[frozenset] = []
    for sp in spans:
        if sp.parent < 0:
            out.append(frozenset())
            continue
        key = (out[sp.parent], spans[sp.parent].name)
        above = cache.get(key)
        if above is None:
            above = cache[key] = key[0] | {key[1]}
        out.append(above)
    return out


def layer_metrics(spans: list[Span], op_walls: dict[int, tuple[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans and its timed ops.

    ``op_walls`` maps op id to (op kind, wall seconds measured by the caller).
    Times are seconds per pass.  ``.s`` is the inclusive time of the
    outermost spans of a name, ``.self_s`` the span time not covered by
    child spans, ``.calls`` the number of outermost spans.
    """
    ancestry = _ancestry(spans)
    child_ns = defaultdict(int)
    for sp in spans:
        if sp.parent >= 0:
            child_ns[sp.parent] += sp.end - sp.start

    calls = defaultdict(int)
    incl = defaultdict(int)
    self_ns = defaultdict(int)
    # keys filled only when a span of their kind occurs start at zero
    m = defaultdict(int, {"growth.scan.candidates": 0, "growth.scan.hits": 0, "gset.product.pairs": 0,
                          "oracle.oracle_product.pairs": 0, "oracle.oracle_product.run_s": 0.0,
                          "oracle.oracle_product.verify_s": 0.0})
    run_ops = {op for op, (kind, _) in op_walls.items() if kind == "run"}
    shrink_in_run = products_in_run = 0
    for sp, above in zip(spans, ancestry):
        dur = sp.end - sp.start
        self_ns[sp.name] += dur - child_ns[sp.idx]
        m["groups.multiply.calls"] += sp.mults
        m["budget.charge_pairs.calls"] += sp.charges
        m["budget.pairs_charged"] += sp.charged
        m["serialize.out_bytes"] += sp.out_bytes
        if sp.name == "growth.shrink_step":
            m["growth.scan.candidates"] += sp.cands
            m["growth.scan.hits"] += sp.hits
        if sp.name in ("gset.product", "oracle.oracle_product"):
            m[sp.name + ".pairs"] += sp.pairs
        if sp.name in above:
            continue
        calls[sp.name] += 1
        incl[sp.name] += dur
        if sp.name == "oracle.oracle_product":
            if "growth.stable_neighbourhood" in above:
                m["oracle.oracle_product.run_s"] += dur / 1e9
            if "oracle.verify_certificate" in above:
                m["oracle.oracle_product.verify_s"] += dur / 1e9
        if sp.op in run_ops:
            if sp.name == "growth.shrink_step":
                shrink_in_run += dur
            if sp.name in ("gset.product", "oracle.oracle_product") and not ({"gset.product", "oracle.oracle_product"} & above):
                products_in_run += dur

    def s(ns):
        return ns / 1e9

    for name in ("groups.construct", "instances.generate", "gset.product", "symmetry.overlap",
                 "growth.shrink_step", "oracle.oracle_product"):
        m[name + ".calls"] = calls[name]
    for name in ("groups.construct", "instances.generate", "gset.doubling_stats", "gset.power",
                 "symmetry.sym_set", "symmetry.overlap", "oracle.oracle_level_set",
                 "oracle.oracle_sym_members", "oracle.oracle_power", "serialize.canonical_dumps",
                 "serialize.load_json"):
        m[name + ".s"] = s(incl[name])
    for name in ("gset.product", "growth.shrink_step", "growth.stable_neighbourhood",
                 "oracle.verify_certificate", "cli.main"):
        m[name + ".self_s"] = s(self_ns[name])

    m["growth.scan.hit_ratio"] = m["growth.scan.hits"] / m["growth.scan.candidates"] if m["growth.scan.candidates"] else 0.0
    del m["growth.scan.hits"]
    run_wall = sum(w for kind, w in op_walls.values() if kind == "run")
    all_wall = sum(w for _, w in op_walls.values())
    m["growth.shrink_step.run_share"] = s(shrink_in_run) / run_wall if run_wall else 0.0
    m["products.run_share"] = s(products_in_run) / run_wall if run_wall else 0.0
    fixed = sum(self_ns[n] for n in ("cli.main", "groups.construct", "instances.generate",
                                     "serialize.canonical_dumps", "serialize.load_json"))
    m["fixed_cost.share"] = s(fixed) / all_wall if all_wall else 0.0
    return dict(m)


def write_spans(path, passes: list[list[Span]]) -> None:
    """Write every recorded span as one JSON object per line."""
    with open(path, "w") as fh:
        for i, spans in enumerate(passes):
            for sp in spans:
                fh.write(json.dumps({"pass": i, **sp.as_dict()}, separators=(",", ":")) + "\n")
