"""Deterministic instance generators and parameter sweeps.

An instance is a JSON-style dict {"group": {...}, "set": {...}} whose set
fragment names one of the generators below.  Generation is a pure function
of that dict: the random and perturbed generators draw from the
counter-based PRNG in ``prng`` with the seed given in the instance, so
the same instance yields the same set in any run or implementation.
Every set is built with the group's element law on forms, never with a
set kernel of ``gset``, so the instance set a certificate is checked
against does not come from the fast path the verifier checks.
"""

from __future__ import annotations

import bisect
import copy
import itertools
from typing import Iterable

from .budget import charge_pairs
from .errors import EmptySetError, ParameterError
from .groups import Element, Group, group_from_spec
from .gset import DoublingStats, GSet, doubling_stats
from .prng import splitmix64

#: the fields each set type's spec may hold besides ``type``
SET_FIELDS = {
    "explicit": ("elements",),
    "subgroup": ("generators",),
    "coset_union": ("generators", "reps"),
    "interval": ("start", "length"),
    "ball": ("generators", "radius"),
    "random": ("size", "seed"),
    "perturbed_subgroup": ("generators", "swaps", "seed"),
}

#: the fields of a sweep spec
SWEEP_FIELDS = ("base", "grid")


def _nonempty_list(raw, what: str) -> list:
    if not isinstance(raw, list) or not raw:
        raise ParameterError(f"{what} must be a nonempty list of element encodings")
    return raw


def _coerce_all(group: Group, raw, what: str) -> list[Element]:
    return [group.coerce(x) for x in _nonempty_list(raw, what)]


def _nat(spec: dict, key: str, *, minimum: int = 0) -> int:
    value = spec.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParameterError(f"set spec field {key!r} must be an integer >= {minimum}, got {value!r}")
    return value


def closure(group: Group, generators: Iterable[Element]) -> GSet:
    """The subgroup generated by ``generators`` (finite, so products suffice).

    Every member is a word of length below |G|, so it is the ball of that
    radius.
    """
    return ball(group, generators, group.order)


def ball(group: Group, generators: Iterable[Element], radius: int) -> GSet:
    """Words of length at most ``radius`` in the generators (identity at 0).

    The generating set is used exactly as given: inverses participate only
    if listed, so the ball is the breadth-first expansion of {identity}
    under right multiplication, on forms.  Each generator is decoded once,
    with ``group.coerce``, so it may be a JSON array or an element tuple.
    """
    gens = [group.to_form(group.coerce(g)) for g in generators]
    multiply = group.form_multiply
    frontier = [group.identity_form]
    members = set(frontier)
    for _ in range(radius):
        charge_pairs(len(frontier) * len(gens))
        new = []
        for x in frontier:
            for g in gens:
                y = multiply(x, g)
                if y not in members:
                    members.add(y)
                    new.append(y)
        if not new:
            break
        frontier = new
    return GSet._trusted(group, sorted(members))


def random_set(group: Group, size: int, seed: int) -> GSet:
    """``size`` distinct elements drawn by counter-based index sampling."""
    if size < 1:
        raise EmptySetError("random set size must be at least 1")
    if size > group.order:
        raise ParameterError(f"random set size {size} exceeds the group order {group.order}")
    chosen: set[Element] = set()
    counter = 0
    while len(chosen) < size:
        index = splitmix64(seed, counter) % group.order
        chosen.add(group.element_at(index))
        counter += 1
    return GSet._trusted(group, sorted(map(group.to_form, chosen)))


def perturbed_subgroup(group: Group, generators: Iterable[Element], swaps: int, seed: int) -> GSet:
    """A subgroup with ``swaps`` elements exchanged for outside elements.

    Each swap removes one current member and admits one element from the
    complement (never the one just removed), both picked by the counter
    PRNG, so the size stays |H| while the structure degrades gradually.
    The admitted element is the k-th non-member in encoding order, found by
    walking the members' sorted indices, so the complement is never listed,
    and each swap is charged the |H| steps of that walk.
    """
    base = closure(group, generators)
    charge_pairs(len(base) * max(swaps, 1))
    # the members' indices, ascending, so the j-th member in encoding order is indices[j]
    indices = [group.index_of(x) for x in base.elements]
    # |H| stays fixed, so when H = G no swap can change anything
    free = group.order - len(indices)
    for j in range(swaps if free else 0):
        removed = splitmix64(seed, 2 * j) % len(indices)
        # the added-th non-member: ``indices`` still holds the removed member, so it is never re-admitted
        added = splitmix64(seed, 2 * j + 1) % free
        for i in indices:
            if i > added:
                break
            added += 1
        del indices[removed]
        bisect.insort(indices, added)
    return GSet._trusted(group, [group.to_form(group.element_at(i)) for i in indices])


def generate(spec: dict) -> GSet:
    """Realize an instance spec {"group": {...}, "set": {...}} as a GSet.

    A field the spec, its group or its set type does not define is refused
    (ParameterError, or InvalidGroupError in the group).
    """
    if not isinstance(spec, dict):
        raise ParameterError("instance spec must be a JSON object")
    unknown = sorted(set(spec) - {"group", "set"})
    if unknown:
        raise ParameterError(f"instance spec has unknown fields {unknown}")
    group = group_from_spec(spec.get("group"))
    set_spec = spec.get("set")
    if not isinstance(set_spec, dict) or "type" not in set_spec:
        raise ParameterError("instance spec needs a 'set' object with a 'type'")
    kind = set_spec["type"]
    if not isinstance(kind, str) or kind not in SET_FIELDS:
        raise ParameterError(f"unknown set type {kind!r}; expected one of {', '.join(SET_FIELDS)}")
    unknown = sorted(set(set_spec) - {"type", *SET_FIELDS[kind]})
    if unknown:
        raise ParameterError(f"{kind} set spec has unknown fields {unknown}")

    if kind == "explicit":
        elems = _coerce_all(group, set_spec.get("elements"), "explicit elements")
        return GSet._trusted(group, sorted(set(map(group.to_form, elems))))
    if kind == "subgroup":
        return closure(group, _nonempty_list(set_spec.get("generators"), "subgroup generators"))
    if kind == "coset_union":
        sub = closure(group, _nonempty_list(set_spec.get("generators"), "subgroup generators"))
        reps = set(map(group.to_form, _coerce_all(group, set_spec.get("reps"), "coset representatives")))
        # R·H by the element law along rows, so no set kernel builds the set a certificate is checked against
        charge_pairs(len(reps) * len(sub))
        return GSet._trusted(group, sorted({p for r in reps for p in group.form_row(r, sub.forms)}))
    if kind == "interval":
        if group.kind != "cyclic":
            raise ParameterError(f"interval sets require a cyclic group, got {group.kind}")
        start = set_spec.get("start")
        if not isinstance(start, int) or isinstance(start, bool):
            raise ParameterError(f"interval start must be an integer, got {start!r}")
        length = _nat(set_spec, "length", minimum=1)
        if length > group.order:
            raise ParameterError(f"interval length {length} exceeds the group order {group.order}")
        # a residue is its own form
        return GSet._trusted(group, sorted((start + i) % group.order for i in range(length)))
    if kind == "ball":
        return ball(
            group,
            _nonempty_list(set_spec.get("generators"), "ball generators"),
            _nat(set_spec, "radius"),
        )
    if kind == "random":
        return random_set(group, _nat(set_spec, "size", minimum=1), _nat(set_spec, "seed"))
    return perturbed_subgroup(
        group,
        _nonempty_list(set_spec.get("generators"), "subgroup generators"),
        _nat(set_spec, "swaps"),
        _nat(set_spec, "seed"),
    )


def sweep_from_spec(spec: dict) -> tuple[dict, dict]:
    """The base instance spec and the grid of a sweep spec {"base": {...}, "grid": {...}}.

    A field other than those two is refused; ``family_sweep`` checks the two.
    """
    if not isinstance(spec, dict):
        raise ParameterError("sweep spec must be a JSON object")
    unknown = sorted(set(spec) - set(SWEEP_FIELDS))
    if unknown:
        raise ParameterError(f"sweep spec has unknown fields {unknown}")
    return spec.get("base"), spec.get("grid")


def _apply_dotted(spec: dict, path: str, value) -> None:
    parts = path.split(".")
    node = spec
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ParameterError(f"sweep path {path!r} walks through a non-object")
        node = nxt
    node[parts[-1]] = value


def family_sweep(base: dict, grid: dict) -> list[tuple[dict, tuple, DoublingStats]]:
    """Instantiate ``base`` at every grid point and compute doubling stats.

    ``grid`` maps dotted paths into the instance spec (e.g. "set.length")
    to finite value lists.  Points are visited in row-major order over the
    lists with keys in their given order, so output order is deterministic.
    Each row is (spec, the point's grid values in key order, stats); the
    spec holds copies of the values, so neither ``base`` nor ``grid`` changes.
    """
    if not isinstance(base, dict):
        raise ParameterError("sweep base must be an instance spec object")
    if not isinstance(grid, dict) or not grid:
        raise ParameterError("sweep grid must be a non-empty object of value lists")
    keys = list(grid)
    for key in keys:
        if not isinstance(grid[key], list) or not grid[key]:
            raise ParameterError(f"sweep grid entry {key!r} must be a non-empty list")
    out = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        spec = copy.deepcopy(base)
        for key, value in zip(keys, combo):
            _apply_dotted(spec, key, copy.deepcopy(value))
        out.append((spec, combo, doubling_stats(generate(spec))))
    return out
