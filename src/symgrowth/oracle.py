"""Brute-force reference implementations and the certificate verifier.

Everything here recomputes results from first principles with flat loops
over plain element collections, sharing only the group backends with the
fast path.  Oracles are deliberately slow and simple; they exist so that
every fast-path computation and every emitted certificate can be checked
against code with no shared logic to fail in the same way.

The replay's level sets and candidates are read off ``oracle_overlaps``,
the ordered double loop over A and A⁻¹.  The terminal symmetry set is
counted over unordered pairs instead, since |X ∩ tX| = |X ∩ t⁻¹X|: one
loop over u < w in X gives every count, charged as the ordered loop, and
``oracle_sym_counts`` keys them by XX⁻¹.  X = A'A lies in A², so the
verifier reads off those keys that a member of S^k lies in A²A⁻² without
a multiplication, and tests only the other members against A².

The one exception to plain collections is the verifier's replay of the
shrink scan.  It builds one row table: step 0 indexes A·A and stores each
row xA as an int mask over that index.  Every later A' is a subset of A,
so A'A is the OR of its members' rows, and its size the bit count; the
members of A'A are decoded from the set bits only at the terminate step.
A candidate ORs its rows one at a time and is dropped once the bit count
passes the int floor((1-eps)|A'A|).  Each step is still charged |A'||A|.
The index and the masks are built here, from ``group.multiply`` alone, so
the verifier still shares nothing with the fast path; tests check each
mask count against a product built by definition.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterable

from .budget import charge_pairs
from .errors import CertificateFormatError, InvalidElementError, ParameterError
from .groups import Element, Group, group_from_spec
from .serialize import fraction_to_str, parse_fraction

CERTIFICATE_FORMAT = "symgrowth.certificate/1"


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
    """A^k by repeated products, stopping once A^(j+1) equals A^j as a set.

    A set without the identity may never repeat (as {x}^j), so the loop
    also stops once only the sizes agree: if |A^(j+1)| = |A^j|, then for
    each s in A, A^j·s ⊆ A^(j+1) has the same size, so A^(j+1) = A^j·s and
    A^(j+i) = A·A^(j+i-1) = A^j·s^i.  A^k is then the one translate
    A^j·s^(k-j), so the work does not grow with k.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ParameterError(f"power exponent must be a nonnegative integer, got {k!r}")
    if k == 0:
        return (group.identity,)
    a = tuple(sorted(set(a)))
    acc = a
    for j in range(1, k):
        nxt = oracle_product(group, acc, a)
        if nxt == acc:
            break
        if len(nxt) == len(acc):
            return oracle_product(group, acc, (_element_power(group, a[0], k - j),))
        acc = nxt
    return acc


def _element_power(group: Group, s: Element, e: int) -> Element:
    """s^e for e >= 1 by square-and-multiply, charged before it multiplies."""
    charge_pairs(e.bit_count() + e.bit_length() - 1)
    mul = group.multiply
    result = group.identity
    while e:
        if e & 1:
            result = mul(result, s)
        e >>= 1
        if e:
            s = mul(s, s)
    return result


def oracle_outside(group: Group, xs: Iterable[Element], t: Iterable[Element], w: Iterable[Element]) -> int:
    """Number of x in xs outside T·W⁻¹, by membership: x ∈ TW⁻¹ iff xw ∈ T for some w ∈ W.

    Each member tested is charged |W| multiplications and stops at its first hit,
    so the set T·W⁻¹ itself is never built.
    """
    t = frozenset(t)
    w = tuple(w)
    mul = group.multiply
    outside = 0
    for x in xs:
        charge_pairs(len(w))
        if not any(mul(x, v) in t for v in w):
            outside += 1
    return outside


def oracle_overlaps(group: Group, a: Iterable[Element]) -> dict[Element, list[Element]]:
    """For every t in AA⁻¹, the members of A ∩ tA in ascending order, keyed by t in first-seen order.

    t = u·v⁻¹ with u, v in A exactly when u = tv lies in A ∩ tA, so one
    double loop over (u, v⁻¹), charged |A|², lists every overlap at once.
    """
    a = tuple(sorted(set(a)))
    inv = oracle_inverse(group, a)
    charge_pairs(len(a) * len(inv))
    mul = group.multiply
    table: defaultdict[Element, list[Element]] = defaultdict(list)
    for u in a:
        for w in inv:
            table[mul(u, w)].append(u)
    table.default_factory = None  # a missing t is a KeyError, as in a dict
    return table


def oracle_sym_counts(group: Group, a: Iterable[Element]) -> dict[Element, int]:
    """|A ∩ tA| for every t in AA⁻¹, the t keyed in no particular order.

    |A ∩ tA| counts the pairs (u, w) of A with u·w⁻¹ = t.  The pairs u = w
    give t = e, |A| times, and swapping u and w turns t into t⁻¹.  So one
    loop over the pairs u < w, counting each u·w⁻¹ in h, gives every count:
    h(t) + h(t⁻¹) for t ≠ e (2h(t) for an involution) and |A| for e, and
    the keys are AA⁻¹.  It multiplies |A|(|A| - 1)/2 pairs but is charged
    the |A|² of the ordered loop.
    """
    a = sorted(set(a))
    n = len(a)
    charge_pairs(n * n)
    if not a:
        return {}
    mul = group.multiply
    inv = group.inverse
    inverses = [inv(w) for w in a]
    half: dict[Element, int] = {}
    get = half.get
    for i, u in enumerate(a, 1):
        for w in inverses[i:]:
            t = mul(u, w)
            half[t] = get(t, 0) + 1
    # each h(t) is added to the count of t⁻¹, so t ends with h(t) + h(t⁻¹)
    counts = dict(half)
    current = counts.get
    for t, count in half.items():
        t_inv = inv(t)
        counts[t_inv] = current(t_inv, 0) + count
    counts[group.identity] = n
    return counts


def _at_least(counts: dict[Element, int], eta: Fraction, n: int) -> tuple[Element, ...]:
    """The t of an ``oracle_sym_counts`` table with |X ∩ tX| >= eta·n, in ascending order.

    A count is an int, so it is compared with ceil(eta·n), not with a Fraction.
    """
    least = math.ceil(Fraction(eta) * n)
    return tuple(sorted([t for t, count in counts.items() if count >= least]))


def _level(overlaps: dict[Element, list[Element]], tau: Fraction) -> tuple[Element, ...]:
    """The t of an ``oracle_overlaps`` table with at least tau members, in ascending order.

    A count is an int, so it is compared with ceil(tau), not with a Fraction.
    """
    least = math.ceil(tau)
    return tuple(sorted(t for t, inside in overlaps.items() if len(inside) >= least))


def _row_table(group: Group, a: tuple[Element, ...]) -> tuple[dict[Element, int], dict[Element, int]]:
    """An index of A·A, each product's bit in first-seen order, and each row xA (x ∈ A) as an int mask over it.

    Every A' of the replay is a subset of A, so A'A is the OR of these rows.
    """
    mul = group.multiply
    index: defaultdict[Element, int] = defaultdict(itertools.count().__next__)
    rows = {}
    for x in a:
        mask = 0
        for v in a:
            mask |= 1 << index[mul(x, v)]
        rows[x] = mask
    return index, rows


def _union(rows: dict[Element, int], xs: Iterable[Element]) -> int:
    """The mask of XA: the OR of the rows of the x in X."""
    mask = 0
    for x in xs:
        mask |= rows[x]
    return mask


def _decode(index: dict[Element, int], mask: int) -> list[Element]:
    """The members of a mask over ``index``, read off its set bits alone."""
    elements = list(index)
    out = []
    while mask:
        low = mask & -mask
        out.append(elements[low.bit_length() - 1])
        mask ^= low
    return out


def _scan(level: Iterable[Element], overlaps: dict[Element, list[Element]], rows: dict[Element, int],
          most: int) -> tuple[Element | None, int]:
    """The first t of ``level`` whose |(A' ∩ tA')A| is at most ``most``, with that size; (None, 0) if none.

    The OR of a candidate's rows only grows, so it is dropped at the first
    row that takes it past ``most``, and a witness is OR-ed in full.
    """
    for t in level:
        cover = 0
        for x in overlaps[t]:
            cover |= rows[x]
            if cover.bit_count() > most:
                break
        else:
            return t, cover.bit_count()
    return None, 0


def _outside_quad(group: Group, xs: Iterable[Element], inside: Collection[Element], a2: Collection[Element]) -> int:
    """Number of x in xs outside A²A⁻², each charged |A²| pairs as ``oracle_outside`` charges it.

    ``inside`` is a subset of A²A⁻², as XX⁻¹ is for X ⊆ A²: its members
    need no multiplication, and ``oracle_outside`` tests the rest.
    """
    rest = []
    for x in xs:
        if x in inside:
            charge_pairs(len(a2))
        else:
            rest.append(x)
    return oracle_outside(group, rest, a2, a2)


def termination_cap(k0: Fraction, eps: Fraction) -> int:
    """Smallest m >= 0 with (1-eps)^m * K0 <= 1.

    With K0 = p/q and 1-eps = a/b that is the smallest m with
    p·a^m <= q·b^m, that is with L <= m·λ for L = ln(p/q) and λ = ln(b/a).
    At large k the answer m is about k·log K0, and a^m has millions of
    digits, so L and λ are bracketed between integers over 2^P by
    ``_ln_bracket``, and m is read off the brackets.  The exact powers are
    compared only for the m the brackets cannot decide.  Near the crossing
    m·λ is within λ of L, and the error of m·λ grows with m, so P grows
    with the bit lengths of 1/eps and of K0.
    """
    k0, eps = Fraction(k0), Fraction(eps)
    shrink = 1 - eps
    if not 0 <= shrink < 1:
        raise ParameterError(f"termination cap needs eps in (0, 1], got {eps}")
    p, q = k0.numerator, k0.denominator
    a, b = shrink.numerator, shrink.denominator
    if p <= q:
        return 0
    if a == 0:
        return 1
    # 2^eps_bits >= 1/eps >= 1/λ, and m is at most L/λ + 1
    eps_bits = max(0, eps.denominator.bit_length() - eps.numerator.bit_length() + 1)
    bits = 128 + 2 * eps_bits + p.bit_length()
    l_lo, l_hi = _ln_bracket(p, q, bits)
    lam_lo, lam_hi = _ln_bracket(b, a, bits)
    fails = -(-l_lo // lam_hi)  # every m below this fails
    holds = -(-l_hi // lam_lo)  # and this m holds
    return next((m for m in range(fails, holds) if p * a**m <= q * b**m), holds)


def _ln_bracket(num: int, den: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits·ln(num/den) <= hi, for num >= den >= 1.

    ln(num/den) = e·ln 2 + 2·atanh(z) with 2^e <= num/den < 2^(e+1) and
    z = (num - den·2^e)/(num + den·2^e) < 1/3, and ln 2 = 2·atanh(1/3).
    """
    e = (num // den).bit_length() - 1
    lo, hi = _atanh_bracket(num - (den << e), num + (den << e), bits)
    if e:
        two_lo, two_hi = _atanh_bracket(1, 3, bits)
        lo, hi = lo + e * two_lo, hi + e * two_hi
    return 2 * lo, 2 * hi


def _atanh_bracket(u: int, v: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits·atanh(u/v) <= hi, for 0 <= u/v <= 1/3.

    The series sum of z^(2i+1)/(2i+1), each power floored from the one
    before; each term then lies less than 3 below its true value, and the
    tail after the last nonzero power is below 2.
    """
    power = (u << bits) // v
    u2, v2 = u * u, v * v
    total, terms = 0, 0
    while power:
        total += power // (2 * terms + 1)
        power = power * u2 // v2
        terms += 1
    return total, total + 3 * terms + 2


# ---------------------------------------------------------------------------
# certificate verification


@dataclass(frozen=True)
class CheckRecord:
    name: str
    expected: object
    actual: object
    passed: bool


@dataclass
class VerificationReport:
    checks: list[CheckRecord] = field(default_factory=list)

    def record(self, name: str, expected, actual) -> None:
        # expected values are ints, strs, None and lists of them, on which equal
        # reprs mean equal JSON text too, so 10.0 or true never pass for 10 or 1
        ok = expected == actual and repr(expected) == repr(actual)
        self.checks.append(CheckRecord(name, expected, actual, ok))

    def flag(self, name: str, ok: bool) -> None:
        self.checks.append(CheckRecord(name, True, bool(ok), bool(ok)))

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

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


def _need(cert: dict, key: str, kind, what: str = "certificate"):
    if key not in cert:
        raise CertificateFormatError(f"{what} is missing the '{key}' field")
    value = cert[key]
    if kind is not None and not isinstance(value, kind):
        raise CertificateFormatError(f"{what} field '{key}' has the wrong type")
    return value


def _decode_elements(group: Group, raw: Iterable, what: str) -> tuple[Element, ...]:
    """Decode element arrays into a certificate's group with ``group.coerce``, the decoder instances use too.

    An entry that is not an element of ``group`` is a CertificateFormatError,
    an instance set entry included: the certificate is then for another group.
    """
    out = []
    for item in raw:
        try:
            out.append(group.coerce(item))
        except InvalidElementError as exc:
            raise CertificateFormatError(f"{what} entry {item!r} is not a group element") from exc
    return tuple(out)


def _relation_holds(relation: str, lhs: Fraction, rhs: Fraction) -> bool:
    if relation == "ge":
        return lhs >= rhs
    if relation == "le":
        return lhs <= rhs
    if relation == "eq":
        return lhs == rhs
    raise CertificateFormatError(f"unknown ledger relation {relation!r}")


def _ledger_names(last: int) -> frozenset[str]:
    """Every ledger name of a trace of shrink steps 0 to last - 1, then the terminate step ``last``.

    Each step has three lines, each shrink step two more, the terminate
    step two more, and the run five.
    """
    names = {
        "identity_in_neighbourhood",
        "neighbourhood_symmetric",
        "power_containment",
        "neighbourhood_size_lower_bound",
        "termination_bound",
        f"step{last}.sym_size_lower",
        f"step{last}.level_set_in_sym",
    }
    for i in range(last + 1):
        names.update((f"step{i}.level_set_lower", f"trace{i}.product_growth_bound", f"trace{i}.size_lower_bound"))
        if i < last:
            names.update((f"step{i}.shrink_size_lower", f"step{i}.shrink_product_upper"))
    return frozenset(names)


def verify_certificate(cert: dict, a_elements: Iterable[Element], instance: dict | None = None) -> VerificationReport:
    """Recompute a certificate from scratch and report every discrepancy.

    The only trusted inputs are the group spec inside the certificate and
    the instance set supplied by the caller; both the instance set and
    the certificate's S are decoded by ``group.coerce``, as instance files
    are.  Every structural check runs first, before any multiplication:
    each field's presence and type, each trace step's action, the trace's
    shape (shrink steps, then one terminate step, the last) and each
    ledger entry's name, which must be one such a trace has.  A
    structural defect raises CertificateFormatError before the replay.

    The shrinking chain is then replayed step by step from one row table:
    step 0 indexes A·A and builds each row xA for x in A as an int mask
    over that index, and every later A' ⊆ A takes its rows from it, so
    |A'A| is the bit count of their OR (each step is still charged
    |A'||A|).  Each step builds the table ``oracle_overlaps(A')`` and reads
    its level set, every candidate's A' ∩ tA' and the next A' off it; a
    candidate ORs its members' rows until the bit count passes the int
    floor((1-eps)|A'A|), so the scan itself multiplies nothing and carries
    sizes, not sets, into the ledger.  The final symmetry set is
    recomputed from its definition (``oracle_sym_counts`` over the
    unordered pairs of the last product X, decoded from its mask), and the
    power containment is re-derived member by member (``oracle_power``,
    whose work does not grow with the certificate's k): a member of S^k in
    XX⁻¹, the keys of those counts, lies in A²A⁻² since X ⊆ A², and every
    other member is tested against A², each charged |A²| either way.
    Every ledger line's numbers are recomputed once, during the replay,
    and compared as exact strings.  Semantic mismatches come back as
    failed checks; the replay stops early only at a claimed shrink step it
    finds no witness for, and then ``trace_shape`` fails.
    """
    if not isinstance(cert, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    fmt = _need(cert, "format", str)
    inst = _need(cert, "instance", dict)
    group_spec = _need(inst, "group", dict, "instance spec")
    try:
        group = group_from_spec(group_spec)
    except Exception as exc:
        raise CertificateFormatError(f"certificate group spec is invalid: {exc}") from exc
    a = tuple(sorted(set(_decode_elements(group, a_elements, "instance set"))))
    if not a:
        raise CertificateFormatError("instance set is empty")

    # -- decode: every structural check that does not need the replay
    claimed_a = _need(cert, "a", list)
    k = _need(cert, "k", int)
    if isinstance(k, bool) or k < 1:
        raise CertificateFormatError(f"certificate k must be a positive integer, got {k!r}")
    try:
        eps = parse_fraction(_need(cert, "epsilon", str), "certificate epsilon")
    except ParameterError as exc:
        raise CertificateFormatError(str(exc)) from exc
    if not 0 < eps <= 1:
        # the replay and the termination cap are only defined for these
        raise CertificateFormatError(f"certificate epsilon must lie in (0, 1], got {eps}")
    try:
        expected_eps = fraction_to_str(Fraction(1, k + 1))
    except ValueError as exc:  # k + 1 past the integer digit limit
        raise CertificateFormatError(f"certificate k cannot be written out: {exc}") from exc
    trace = _need(cert, "trace", dict)
    steps = _need(trace, "steps", list, "trace")
    if not steps:
        raise CertificateFormatError("trace has no steps")
    trace_eps = _need(trace, "epsilon", str, "trace")
    last = len(steps) - 1
    for i, step in enumerate(steps):
        if not isinstance(step, dict):
            raise CertificateFormatError(f"trace step {i} is not an object")
        action = step.get("action")
        if action not in ("shrink", "terminate"):
            raise CertificateFormatError(f"trace step {i} has unknown action {action!r}")
        if (action == "terminate") != (i == last):
            raise CertificateFormatError(f"trace step {i} is a {action} step, but the last step, and only it, must terminate")
    claimed_i0 = _need(trace, "i0", int, "trace")
    claimed_k0 = _need(trace, "doubling", str, "trace")
    claimed_cap = _need(trace, "termination_cap", int, "trace")
    claimed_aprime = _need(cert, "aprime", list)
    claimed_threshold = _need(cert, "s_threshold", str)
    s = _decode_elements(group, _need(cert, "s", list), "certificate S")
    ledger = _need(cert, "ledger", list)
    names = _ledger_names(last)
    for entry in ledger:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise CertificateFormatError("ledger entries must be objects with a name")
        if entry["name"] not in names:
            raise CertificateFormatError(f"unknown ledger entry {entry['name']!r}")

    rec = VerificationReport()
    rec.record("format", CERTIFICATE_FORMAT, fmt)
    if instance is not None:
        rec.record(
            "instance_spec_matches",
            json.dumps(instance, sort_keys=True),
            json.dumps(inst, sort_keys=True),
        )
    rec.record("instance_set_matches", list(map(list, a)), claimed_a)
    rec.record("epsilon_matches_k", expected_eps, fraction_to_str(eps))
    rec.record("trace_epsilon", fraction_to_str(eps), trace_eps)

    # replay the shrinking chain from A, checking each recorded step and
    # recomputing its ledger lines once: name -> (relation, lhs, rhs)
    n_a = len(a)
    table: dict[str, tuple[str, Fraction, Fraction]] = {}
    cur = a
    for i, step in enumerate(steps):
        tag = f"step{i}"
        rec.record(f"{tag}.index", i, step.get("index"))
        rec.record(f"{tag}.aprime_size", len(cur), step.get("aprime_size"))
        # each step is charged |A'||A|, but only step 0 multiplies: its rows
        # xA serve every later A' ⊆ A, and A'A is the OR of their masks
        charge_pairs(len(cur) * n_a)
        if i == 0:
            a2, rows = _row_table(group, a)  # the replay's first product is A·A
            k0 = Fraction(len(a2), n_a)
        prod = _union(rows, cur)
        n_ap, n_p = len(cur), prod.bit_count()
        rec.record(f"{tag}.product_size", n_p, step.get("product_size"))
        tau = Fraction(n_ap**4, 2 * n_p * n_a**2)
        rec.record(f"{tag}.tau", fraction_to_str(tau), step.get("tau"))
        # the step's overlaps A' ∩ tA' give its level set and every candidate
        overlaps = oracle_overlaps(group, cur)
        level = _level(overlaps, tau)
        rec.record(f"{tag}.level_set_size", len(level), step.get("level_set_size"))

        # the canonical scan: first t in the level set whose shrink passes
        limit = (1 - eps) * n_p
        witness, n_cover = _scan(level, overlaps, rows, math.floor(limit))

        table[f"{tag}.level_set_lower"] = ("ge", Fraction(len(level)), Fraction(n_ap**3, 2 * n_p * n_a))
        table[f"trace{i}.product_growth_bound"] = ("le", Fraction(n_p), (1 - eps) ** i * k0 * n_a)
        exponent = (4**i - 1) // 3
        table[f"trace{i}.size_lower_bound"] = ("ge", Fraction(n_ap), Fraction(n_a) / (2 * k0) ** exponent)
        if i == last:
            rec.flag(f"{tag}.no_shrink_witness", witness is None)
            break
        rec.record(f"{tag}.t", list(witness) if witness is not None else None, step.get("t"))
        if witness is None:
            # recorded chain diverges; replay cannot continue faithfully
            break
        cur = tuple(overlaps[witness])
        table[f"{tag}.shrink_size_lower"] = ("ge", Fraction(len(cur)), tau)
        table[f"{tag}.shrink_product_upper"] = ("le", Fraction(n_cover), limit)
    # whether the replay reached the terminate step
    rec.flag("trace_shape", i == last)
    if i != last:
        return rec

    rec.record("i0", last, claimed_i0)
    rec.record("doubling", fraction_to_str(k0), claimed_k0)
    cap = termination_cap(k0, eps)
    rec.record("termination_cap", cap, claimed_cap)

    aprime = cur
    rec.record("aprime_matches", list(map(list, aprime)), claimed_aprime)

    # the terminal symmetry set, recomputed from its definition over X = A'A;
    # prod, n_p and level are the last replayed step's
    threshold = (1 - eps) if eps < 1 else Fraction(1, n_p)
    rec.record("s_threshold", fraction_to_str(threshold), claimed_threshold)
    rec.flag("s_sorted_unique", all(x < y for x, y in zip(s, s[1:])))
    counts = oracle_sym_counts(group, _decode(a2, prod))
    expected_s = _at_least(counts, threshold, n_p)
    rec.record("s_matches_symmetry_set", list(map(list, expected_s)), list(map(list, s)))
    s_set = set(s)
    has_identity = group.identity in s_set
    asymmetric = sum(1 for x in s if group.inverse(x) not in s_set)
    rec.flag("s_contains_identity", has_identity)
    rec.flag("s_symmetric", asymmetric == 0)

    # the headline containment, member by member: x ∈ A²A⁻² if x ∈ XX⁻¹ (the
    # keys of counts, as X ⊆ A²), and otherwise iff xA² ∩ A² ≠ ∅
    violations = _outside_quad(group, oracle_power(group, s, k), counts, a2)
    rec.record("power_containment_violations", 0, violations)

    table[f"step{last}.sym_size_lower"] = ("ge", Fraction(len(s)), Fraction(len(level)))
    level_outside = sum(1 for t in level if t not in s_set)
    table[f"step{last}.level_set_in_sym"] = ("eq", Fraction(level_outside), Fraction(0))
    table["identity_in_neighbourhood"] = ("eq", Fraction(int(has_identity)), Fraction(1))
    table["neighbourhood_symmetric"] = ("eq", Fraction(asymmetric), Fraction(0))
    table["power_containment"] = ("eq", Fraction(violations), Fraction(0))
    size_bound = Fraction(len(aprime) ** 3, 2 * n_p * n_a)
    table["neighbourhood_size_lower_bound"] = ("ge", Fraction(len(s)), size_bound)
    table["termination_bound"] = ("le", Fraction(last), Fraction(cap))

    # the table's keys are the names the decode allowed, so every lookup succeeds
    rec.record("ledger_names", sorted(table), sorted(entry["name"] for entry in ledger))
    for entry in ledger:
        name = entry["name"]
        relation, lhs, rhs = table[name]
        ok = (
            entry.get("relation") == relation
            and entry.get("lhs") == fraction_to_str(lhs)
            and entry.get("rhs") == fraction_to_str(rhs)
            and entry.get("holds") is True
            and _relation_holds(relation, lhs, rhs)
        )
        rec.flag(f"ledger.{name}", ok)

    rec.flag("verified_flag", cert.get("verified") is True)
    return rec
