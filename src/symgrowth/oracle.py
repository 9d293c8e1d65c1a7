"""Brute-force reference implementations and the certificate verifier.

Everything here recomputes results from first principles with flat loops
over plain element collections, sharing only the group backends with the
fast path.  Oracles are deliberately slow and simple; they exist so that
every fast-path computation and every emitted certificate can be checked
against code with no shared logic to fail in the same way.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .budget import charge_pairs
from .errors import CertificateFormatError, InvalidElementError
from .groups import Element, Group, group_from_spec
from .serialize import fraction_to_str, parse_fraction

CERTIFICATE_FORMAT = "symgrowth.certificate/1"

#: ledger names that carry a step index: step{i}.<field> and trace{i}.<field>
_INDEXED_NAME = re.compile(r"(step|trace)([0-9]+)\.(.*)", re.DOTALL)


def oracle_product(group: Group, a: Iterable[Element], b: Iterable[Element]) -> tuple[Element, ...]:
    """Product set by plain double loop; the reference for fast-path product."""
    a = tuple(a)
    b = tuple(b)
    charge_pairs(len(a) * len(b))
    mul = group.multiply
    out = set()
    for x in a:
        for y in b:
            out.add(mul(x, y))
    return tuple(sorted(out))


def oracle_inverse(group: Group, a: Iterable[Element]) -> tuple[Element, ...]:
    inv = group.inverse
    return tuple(sorted(inv(x) for x in set(a)))


def oracle_power(group: Group, a: Iterable[Element], k: int) -> tuple[Element, ...]:
    if k == 0:
        return (group.identity,)
    a = tuple(sorted(set(a)))
    acc = a
    for _ in range(k - 1):
        acc = oracle_product(group, acc, a)
    return acc


def oracle_conv_value(group: Group, a: Iterable[Element], b: Iterable[Element], x: Element) -> int:
    """Number of ways to write x = u*v with u in A, v in B, by double loop."""
    a = tuple(a)
    b = tuple(b)
    charge_pairs(len(a) * len(b))
    mul = group.multiply
    return sum(1 for u in a for v in b if mul(u, v) == x)


def oracle_conv_table(group: Group, a: Iterable[Element], b: Iterable[Element]) -> dict[Element, int]:
    a = tuple(a)
    b = tuple(b)
    charge_pairs(len(a) * len(b))
    mul = group.multiply
    counts: dict[Element, int] = {}
    for u in a:
        for v in b:
            w = mul(u, v)
            counts[w] = counts.get(w, 0) + 1
    return dict(sorted(counts.items()))


def oracle_quadruples(
    group: Group,
    b: Iterable[Element],
    c: Iterable[Element],
    d: Iterable[Element],
    e: Iterable[Element],
) -> int:
    """Count solutions of b*c = d*e by a literal quadruple loop."""
    b, c, d, e = tuple(b), tuple(c), tuple(d), tuple(e)
    charge_pairs(len(b) * len(c) * len(d) * len(e))
    mul = group.multiply
    total = 0
    for x in b:
        for y in c:
            lhs = mul(x, y)
            for u in d:
                for v in e:
                    total += lhs == mul(u, v)
    return total


def oracle_overlap(group: Group, a: Sequence[Element], t: Element) -> int:
    """|A ∩ tA| by direct counting over A."""
    members = frozenset(a)
    mul = group.multiply
    return sum(1 for v in a if mul(t, v) in members)


def oracle_sym_members(group: Group, a: Iterable[Element], eta: Fraction) -> tuple[Element, ...]:
    """Symmetry-set members recomputed from the definition."""
    a = tuple(sorted(set(a)))
    candidates = oracle_product(group, a, oracle_inverse(group, a))
    charge_pairs(len(candidates) * len(a))
    need = Fraction(eta) * len(a)
    return tuple(t for t in candidates if oracle_overlap(group, a, t) >= need)


def oracle_level_set(group: Group, aprime: Sequence[Element], tau: Fraction) -> tuple[Element, ...]:
    """All t with |A' ∩ tA'| >= tau, scanned over A'A'^-1."""
    aprime = tuple(sorted(set(aprime)))
    candidates = oracle_product(group, aprime, oracle_inverse(group, aprime))
    charge_pairs(len(candidates) * len(aprime))
    return tuple(t for t in candidates if oracle_overlap(group, aprime, t) >= tau)


def termination_cap(k0: Fraction, eps: Fraction) -> int:
    """Smallest m >= 0 with (1-eps)^m * K0 <= 1, by exact rational descent."""
    value = Fraction(k0)
    shrink = 1 - Fraction(eps)
    m = 0
    while value > 1:
        value *= shrink
        m += 1
        if shrink == 0:
            break
    return m


# ---------------------------------------------------------------------------
# certificate verification


@dataclass(frozen=True)
class CheckRecord:
    name: str
    expected: object
    actual: object
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckRecord, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if not c.passed]

    def as_dict(self) -> dict:
        return {
            "overall": self.overall,
            "checks": [
                {
                    "name": c.name,
                    "expected": c.expected,
                    "actual": c.actual,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
        }


class _Recorder:
    def __init__(self):
        self.checks: list[CheckRecord] = []

    def record(self, name: str, expected, actual) -> bool:
        ok = expected == actual
        self.checks.append(CheckRecord(name, expected, actual, ok))
        return ok

    def flag(self, name: str, ok: bool) -> bool:
        self.checks.append(CheckRecord(name, True, bool(ok), bool(ok)))
        return ok


def _need(cert: dict, key: str, kind, what: str = "certificate"):
    if key not in cert:
        raise CertificateFormatError(f"{what} is missing the '{key}' field")
    value = cert[key]
    if kind is not None and not isinstance(value, kind):
        raise CertificateFormatError(f"{what} field '{key}' has the wrong type")
    return value


def _decode_elements(group: Group, raw, what: str) -> tuple[Element, ...]:
    """Decode a list of encodings, each checked to be an element of ``group``."""
    if not isinstance(raw, list):
        raise CertificateFormatError(f"{what} must be a list of element encodings")
    out = []
    for item in raw:
        if not isinstance(item, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in item
        ):
            raise CertificateFormatError(f"{what} entries must be int arrays, got {item!r}")
        try:
            group.validate(tuple(item))
        except InvalidElementError as exc:
            raise CertificateFormatError(f"{what} entry {item!r} is not a group element") from exc
        out.append(tuple(item))
    return tuple(out)


def _relation_holds(relation: str, lhs: Fraction, rhs: Fraction) -> bool:
    if relation == "ge":
        return lhs >= rhs
    if relation == "le":
        return lhs <= rhs
    if relation == "eq":
        return lhs == rhs
    raise CertificateFormatError(f"unknown ledger relation {relation!r}")


def verify_certificate(cert: dict, a_elements: Iterable[Element], instance: dict | None = None) -> VerificationReport:
    """Recompute a certificate from scratch and report every discrepancy.

    The only trusted inputs are the group spec inside the certificate and
    the instance set supplied by the caller.  The shrinking chain is
    replayed step by step, the final symmetry set is recomputed from its
    definition, the power containment is re-derived with oracle products,
    and every ledger line's numbers are recomputed and compared as exact
    strings.  Structural problems raise CertificateFormatError; semantic
    mismatches come back as failed checks.
    """
    rec = _Recorder()

    if not isinstance(cert, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    fmt = _need(cert, "format", str)
    rec.record("format", CERTIFICATE_FORMAT, fmt)

    inst = _need(cert, "instance", dict)
    group_spec = _need(inst, "group", dict, "instance spec")
    try:
        group = group_from_spec(group_spec)
    except Exception as exc:
        raise CertificateFormatError(f"certificate group spec is invalid: {exc}") from exc
    if instance is not None:
        rec.record(
            "instance_spec_matches",
            json.dumps(instance, sort_keys=True),
            json.dumps(inst, sort_keys=True),
        )

    a = tuple(sorted(set(tuple(x) for x in a_elements)))
    for x in a:
        group.validate(x)
    if not a:
        raise CertificateFormatError("instance set is empty")
    rec.record("instance_set_matches", list(map(list, a)), _need(cert, "a", list))

    k = _need(cert, "k", int)
    if isinstance(k, bool) or k < 1:
        raise CertificateFormatError(f"certificate k must be a positive integer, got {k!r}")
    eps = parse_fraction(_need(cert, "epsilon", str), "certificate epsilon")
    if not 0 < eps <= 1:
        # the replay and the termination cap are only defined for these
        raise CertificateFormatError(f"certificate epsilon must lie in (0, 1], got {eps}")
    rec.record("epsilon_matches_k", fraction_to_str(Fraction(1, k + 1)), fraction_to_str(eps))

    trace = _need(cert, "trace", dict)
    steps = _need(trace, "steps", list, "trace")
    if not steps:
        raise CertificateFormatError("trace has no steps")
    rec.record("trace_epsilon", fraction_to_str(eps), _need(trace, "epsilon", str, "trace"))

    # replay the shrinking chain from A, checking each recorded step
    cur = a
    mul = group.multiply
    chain_sizes: list[int] = []
    replayed_level_sets: list[tuple[Element, ...]] = []
    replayed_products: list[tuple[Element, ...]] = []
    taus: list[Fraction] = []
    final_level_set: tuple[Element, ...] | None = None
    shape_ok = True
    for i, step in enumerate(steps):
        if not isinstance(step, dict):
            raise CertificateFormatError(f"trace step {i} is not an object")
        tag = f"step{i}"
        chain_sizes.append(len(cur))
        rec.record(f"{tag}.index", i, step.get("index"))
        rec.record(f"{tag}.aprime_size", len(cur), step.get("aprime_size"))
        prod = oracle_product(group, cur, a)
        replayed_products.append(prod)
        rec.record(f"{tag}.product_size", len(prod), step.get("product_size"))
        tau = Fraction(len(cur) ** 4, 2 * len(prod) * len(a) ** 2)
        taus.append(tau)
        rec.record(f"{tag}.tau", fraction_to_str(tau), step.get("tau"))
        level = oracle_level_set(group, cur, tau)
        replayed_level_sets.append(level)
        rec.record(f"{tag}.level_set_size", len(level), step.get("level_set_size"))

        # the canonical scan: first t in the level set whose shrink passes
        witness = None
        shrunk = None
        limit = (1 - eps) * len(prod)
        for t in level:
            cand = tuple(sorted(set(cur) & {mul(t, v) for v in cur}))
            if cand and len(oracle_product(group, cand, a)) <= limit:
                witness = t
                shrunk = cand
                break

        action = step.get("action")
        last = i == len(steps) - 1
        if action == "shrink":
            shape_ok = shape_ok and not last
            rec.record(f"{tag}.t", list(witness) if witness is not None else None,
                       step.get("t"))
            if witness is None:
                # recorded chain diverges; replay cannot continue faithfully
                break
            cur = shrunk
        elif action == "terminate":
            shape_ok = shape_ok and last
            rec.flag(f"{tag}.no_shrink_witness", witness is None)
            final_level_set = level
        else:
            raise CertificateFormatError(f"trace step {i} has unknown action {action!r}")
    rec.flag("trace_shape", shape_ok and final_level_set is not None)
    if final_level_set is None:
        return VerificationReport(tuple(rec.checks))

    i0 = len(steps) - 1
    rec.record("i0", i0, _need(trace, "i0", int, "trace"))
    k0 = Fraction(len(replayed_products[0]), len(a))
    rec.record("doubling", fraction_to_str(k0), _need(trace, "doubling", str, "trace"))
    cap = termination_cap(k0, eps)
    rec.record("termination_cap", cap, _need(trace, "termination_cap", int, "trace"))

    aprime = cur
    rec.record("aprime_matches", list(map(list, aprime)), _need(cert, "aprime", list))

    # the terminal symmetry set, recomputed from its definition
    final_product = replayed_products[-1]
    threshold = (1 - eps) if eps < 1 else Fraction(1, len(final_product))
    rec.record("s_threshold", fraction_to_str(threshold), _need(cert, "s_threshold", str))
    s = _decode_elements(group, _need(cert, "s", list), "certificate S")
    rec.flag("s_sorted_unique", all(x < y for x, y in zip(s, s[1:])))
    expected_s = oracle_sym_members(group, final_product, threshold)
    rec.record("s_matches_symmetry_set", list(map(list, expected_s)), list(map(list, s)))
    rec.flag("s_contains_identity", group.identity in set(s))
    rec.flag("s_symmetric", all(group.inverse(x) in set(s) for x in s))

    # the headline containment, from freshly computed powers and products
    a2 = oracle_product(group, a, a)
    quad = set(oracle_product(group, a2, oracle_inverse(group, a2)))
    sk = oracle_power(group, s, k)
    rec.record("power_containment_violations", 0, sum(1 for x in sk if x not in quad))

    # every ledger line, recomputed
    ledger = _need(cert, "ledger", list)
    expected_names = ["step%d.level_set_lower" % i for i in range(len(steps))]
    for i in range(len(steps) - 1):
        expected_names += ["step%d.shrink_size_lower" % i, "step%d.shrink_product_upper" % i]
    expected_names += [
        "step%d.sym_size_lower" % i0,
        "step%d.level_set_in_sym" % i0,
        "identity_in_neighbourhood",
        "neighbourhood_symmetric",
        "power_containment",
        "neighbourhood_size_lower_bound",
    ]
    expected_names += ["trace%d.product_growth_bound" % i for i in range(len(steps))]
    expected_names += ["trace%d.size_lower_bound" % i for i in range(len(steps))]
    expected_names += ["termination_bound"]

    seen = [e.get("name") if isinstance(e, dict) else None for e in ledger]
    rec.record("ledger_names", sorted(expected_names), sorted(x for x in seen if isinstance(x, str)))

    s_set = set(s)

    def recompute(name: str):
        """Return (relation, lhs, rhs) for a ledger entry name."""
        indexed = _INDEXED_NAME.fullmatch(name)
        if indexed is not None:
            head, idx, field = indexed.group(1), int(indexed.group(2)), indexed.group(3)
            if idx >= len(steps):
                raise CertificateFormatError(f"ledger entry {name!r} indexes a missing step")
            if head == "step":
                nA = len(a)
                nAp = chain_sizes[idx]
                nP = len(replayed_products[idx])
                if field == "level_set_lower":
                    return "ge", Fraction(len(replayed_level_sets[idx])), Fraction(nAp**3, 2 * nP * nA)
                if field in ("shrink_size_lower", "shrink_product_upper") and idx == i0:
                    raise CertificateFormatError(f"ledger entry {name!r} shrinks past the last step")
                if field == "shrink_size_lower":
                    return "ge", Fraction(chain_sizes[idx + 1]), taus[idx]
                if field == "shrink_product_upper":
                    return "le", Fraction(len(replayed_products[idx + 1])), (1 - eps) * nP
                if field == "sym_size_lower":
                    return "ge", Fraction(len(s)), Fraction(len(replayed_level_sets[idx]))
                if field == "level_set_in_sym":
                    outside = sum(1 for t in replayed_level_sets[idx] if t not in s_set)
                    return "eq", Fraction(outside), Fraction(0)
            else:
                if field == "product_growth_bound":
                    return "le", Fraction(len(replayed_products[idx])), (1 - eps) ** idx * k0 * len(a)
                if field == "size_lower_bound":
                    exponent = (4**idx - 1) // 3
                    return "ge", Fraction(chain_sizes[idx]), Fraction(len(a)) / (2 * k0) ** exponent
            raise CertificateFormatError(f"unknown ledger entry {name!r}")
        if name == "identity_in_neighbourhood":
            return "eq", Fraction(1 if group.identity in s_set else 0), Fraction(1)
        if name == "neighbourhood_symmetric":
            return "eq", Fraction(sum(1 for x in s if group.inverse(x) not in s_set)), Fraction(0)
        if name == "power_containment":
            return "eq", Fraction(sum(1 for x in sk if x not in quad)), Fraction(0)
        if name == "neighbourhood_size_lower_bound":
            return "ge", Fraction(len(s)), Fraction(len(aprime) ** 3, 2 * len(final_product) * len(a))
        if name == "termination_bound":
            return "le", Fraction(i0), Fraction(cap)
        raise CertificateFormatError(f"unknown ledger entry {name!r}")

    for entry in ledger:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise CertificateFormatError("ledger entries must be objects with a name")
        name = entry["name"]
        relation, lhs, rhs = recompute(name)
        ok = (
            entry.get("relation") == relation
            and entry.get("lhs") == fraction_to_str(lhs)
            and entry.get("rhs") == fraction_to_str(rhs)
            and entry.get("holds") is True
            and _relation_holds(relation, lhs, rhs)
        )
        rec.flag(f"ledger.{name}", ok)

    rec.flag("verified_flag", cert.get("verified") is True)
    return VerificationReport(tuple(rec.checks))
