"""Brute-force reference implementations and the certificate verifier.

Everything here recomputes results from first principles with flat loops
over plain element collections.  It takes from ``groups`` each backend's
element law (``to_form``, ``form_row``, ``form_multiply``,
``form_inverse``, ``identity_form`` and ``from_form``) and nothing
set-level: nothing comes from ``gset``, ``masks``, ``symmetry``,
``growth`` or ``instances``.
Each oracle turns its operands into forms once, multiplies forms along
rows (x·y for one x and every y of a list, in one ``form_row`` call),
and encodes only what the report shows: what an oracle returns, and
what the verifier prints or compares.  Every pair is still multiplied,
and charged before its row is made.  Every backend but S1 writes its
row apart from ``form_multiply``, which the loop kernels run, so the
verifier multiplies through code the fast path does not run.  Oracles
are deliberately slow and simple; they exist so that every fast-path
computation and every emitted certificate can be checked against code
with no shared logic to fail in the same way.

There are two exceptions to a plain transcription of a definition.
``_sym_counts`` loops over unordered pairs only, since
|X ∩ tX| = |X ∩ t⁻¹X|.  The verifier's replay holds its products as int
masks over the members of A·A, which it builds here from the element law
alone, so it still shares nothing set-level with the fast path; tests
check each mask count against a product built by definition.
``verify_certificate`` runs in phases, and ``_replay`` and
``_check_terminal`` say how they use each.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import Counter, defaultdict
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
    to = group.to_form
    a = list(map(to, a))
    b = list(map(to, b))
    charge_pairs(len(a) * len(b))
    row = group.form_row
    out = set()
    for x in a:
        out.update(row(x, b))
    return tuple(map(group.from_form, sorted(out)))


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
    mul = group.form_multiply
    s = group.to_form(s)
    result = group.identity_form
    while e:
        if e & 1:
            result = mul(result, s)
        e >>= 1
        if e:
            s = mul(s, s)
    return group.from_form(result)


def _overlaps(group: Group, a: list) -> dict:
    """For every t in AA⁻¹, the members of A ∩ tA in ascending order, all as forms; A is given as its forms, ascending.

    t = u·v⁻¹ with u, v in A exactly when u = tv lies in A ∩ tA, so one
    double loop over (u, v⁻¹), charged |A|², lists every overlap at once.
    """
    charge_pairs(len(a) ** 2)
    row = group.form_row
    inv = list(map(group.form_inverse, a))
    table: defaultdict = defaultdict(list)
    for u in a:
        for t in row(u, inv):
            table[t].append(u)
    return table


def _sym_counts(group: Group, a: list) -> dict:
    """|A ∩ tA| for every t in AA⁻¹, keyed by its form in no particular order; A is given as its distinct forms, and is nonempty.

    |A ∩ tA| counts the pairs (u, w) of A with u·w⁻¹ = t.  The pairs u = w
    give t = e, |A| times, and swapping u and w turns t into t⁻¹.  So one
    loop over the pairs u < w, counting each u·w⁻¹ in h, gives every count:
    h(t) + h(t⁻¹) for t ≠ e (2h(t) for an involution) and |A| for e, and
    the keys are AA⁻¹.  It multiplies |A|(|A| - 1)/2 pairs but is charged
    the |A|² of the ordered loop.
    """
    n = len(a)
    charge_pairs(n * n)
    row = group.form_row
    inv = group.form_inverse
    inverses = [inv(w) for w in a]
    half = Counter()  # form -> count
    for i, u in enumerate(a, 1):
        half.update(row(u, inverses[i:]))
    # each h(t) is added to the count of t⁻¹, so t ends with h(t) + h(t⁻¹)
    counts = dict(half)
    current = counts.get
    for t, count in half.items():
        t_inv = inv(t)
        counts[t_inv] = current(t_inv, 0) + count
    counts[group.identity_form] = n
    return counts


def _at_least(counts: dict, least: int) -> tuple:
    """The t of a table of counts |X ∩ tX| whose count is at least ``least``, in ascending order.

    A count is an int, so a Fraction threshold such as tau or eta·|X| is
    passed as its ceiling, not compared as a Fraction.
    """
    return tuple(sorted([t for t, count in counts.items() if count >= least]))


def _row_table(group: Group, a: list) -> tuple[list, dict]:
    """The members of A·A in first-seen order, and each row xA (x ∈ A) as an int mask, bit i for the i-th member.

    A, the members and the row keys are forms.  Every A' of the replay is a
    subset of A, so A'A is the OR of these rows.
    """
    row = group.form_row
    index: defaultdict = defaultdict(itertools.count().__next__)
    rows = {}
    for f in a:
        mask = 0
        for p in row(f, a):
            mask |= 1 << index[p]
        rows[f] = mask
    return list(index), rows


def _union(rows: dict, xs: Iterable) -> int:
    """The mask of XA: the OR of the rows of the x in X."""
    mask = 0
    for x in xs:
        mask |= rows[x]
    return mask


def _decode(elements: list, mask: int) -> list:
    """The members of a mask over ``elements``, read off its set bits alone."""
    out = []
    while mask:
        low = mask & -mask
        out.append(elements[low.bit_length() - 1])
        mask ^= low
    return out


def _scan(level: Iterable, overlaps: dict, rows: dict, most: int) -> tuple:
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


def _outside_quad(group: Group, xs: Iterable[Element], inside: Collection, a2: list) -> int:
    """Number of x in xs outside A²A⁻², by membership: x ∈ A²A⁻² iff its row xA² meets A².

    ``inside`` holds the forms of a subset of A²A⁻², as XX⁻¹ does for
    X ⊆ A², and ``a2`` those of A²: a member in ``inside`` needs no
    multiplication, and every other member's row is tested against A²'s
    forms.  Each member is charged |A²| pairs either way.
    """
    rest = []
    for x in map(group.to_form, xs):
        charge_pairs(len(a2))
        if x not in inside:
            rest.append(x)
    if not rest:
        return 0
    square, row = frozenset(a2), group.form_row
    return sum(1 for x in rest if square.isdisjoint(row(x, a2)))


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


# the relations of the verifier's own ledger lines; a certificate's relation is only compared with them
_RELATIONS = {"ge": operator.ge, "le": operator.le, "eq": operator.eq}


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
    the instance set supplied by the caller.  Only the first phase,
    ``_decode_certificate``, raises CertificateFormatError, before any
    charge.  Every multiplication is charged before it is made, and
    semantic mismatches come back as failed checks.
    """
    decoded = _decode_certificate(cert, a_elements)
    rec = VerificationReport()
    rec.record("format", CERTIFICATE_FORMAT, cert["format"])
    if instance is not None:
        rec.record("instance_spec_matches", json.dumps(instance, sort_keys=True),
                   json.dumps(cert["instance"], sort_keys=True))
    rec.record("instance_set_matches", list(map(list, decoded.a)), cert["a"])
    rec.record("epsilon_matches_k", decoded.expected_eps, fraction_to_str(decoded.eps))
    rec.record("trace_epsilon", fraction_to_str(decoded.eps), cert["trace"]["epsilon"])
    replay = _replay(decoded, rec)
    if replay is not None:
        _check_terminal(decoded, replay, rec)
        _check_ledger(replay.table, cert["ledger"], rec)
        rec.flag("verified_flag", cert.get("verified") is True)
    return rec


@dataclass(frozen=True)
class _Decoded:
    """A certificate whose structure and types are checked, and its parsed fields; the phases read the rest from it."""

    cert: dict
    group: Group
    a: tuple[Element, ...]
    eps: Fraction
    expected_eps: str
    s: tuple[Element, ...]
    last: int  # the index of the terminate step


def _decode_certificate(cert: dict, a_elements: Iterable[Element]) -> _Decoded:
    """Every structural check of a certificate; it neither multiplies nor charges.

    The instance set and the certificate's S are decoded by
    ``group.coerce``, as instance files are.  Checked: each field's
    presence and type, each trace step's action, the trace's shape (shrink
    steps, then one terminate step, the last) and each ledger entry's
    name, which must be one such a trace has.
    """
    if not isinstance(cert, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    _need(cert, "format", str)
    inst = _need(cert, "instance", dict)
    group_spec = _need(inst, "group", dict, "instance spec")
    try:
        group = group_from_spec(group_spec)
    except Exception as exc:
        raise CertificateFormatError(f"certificate group spec is invalid: {exc}") from exc
    a = tuple(sorted(set(_decode_elements(group, a_elements, "instance set"))))
    if not a:
        raise CertificateFormatError("instance set is empty")
    _need(cert, "a", list)
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
    _need(trace, "epsilon", str, "trace")
    last = len(steps) - 1
    for i, step in enumerate(steps):
        if not isinstance(step, dict):
            raise CertificateFormatError(f"trace step {i} is not an object")
        action = step.get("action")
        if action not in ("shrink", "terminate"):
            raise CertificateFormatError(f"trace step {i} has unknown action {action!r}")
        if (action == "terminate") != (i == last):
            raise CertificateFormatError(f"trace step {i} is a {action} step, but the last step, and only it, must terminate")
    _need(trace, "i0", int, "trace")
    _need(trace, "doubling", str, "trace")
    _need(trace, "termination_cap", int, "trace")
    _need(cert, "aprime", list)
    _need(cert, "s_threshold", str)
    s = _decode_elements(group, _need(cert, "s", list), "certificate S")
    names = _ledger_names(last)
    for entry in _need(cert, "ledger", list):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise CertificateFormatError("ledger entries must be objects with a name")
        if entry["name"] not in names:
            raise CertificateFormatError(f"unknown ledger entry {entry['name']!r}")
    return _Decoded(cert, group, a, eps, expected_eps, s, last)


@dataclass(frozen=True)
class _Replay:
    """The replay's terminate step: the forms of A·A in bit order, A', the mask of X = A'A, the forms of its level set, K0 and the ledger lines."""

    a2: list
    aprime: tuple[Element, ...]
    product: int
    level: tuple
    k0: Fraction
    table: dict[str, tuple[str, Fraction, Fraction]]  # name -> (relation, lhs, rhs)


def _replay(decoded: _Decoded, rec: VerificationReport) -> _Replay | None:
    """Replay the shrinking chain from A, checking each claimed step and recomputing its ledger lines once.

    The replay runs on forms, and encodes only each witness t for the
    report.  Step 0 indexes A·A and builds each row xA for x in A as an int
    mask over that index, and every later A' ⊆ A takes its rows from it, so
    |A'A| is the bit count of their OR (each step is still charged
    |A'||A|).  Each step builds the table ``_overlaps(A')`` and reads
    its level set, every candidate's A' ∩ tA' and the next A' off it; a
    candidate ORs its members' rows until the bit count passes the int
    floor((1-eps)|A'A|), so the scan itself multiplies nothing and carries
    sizes, not sets, into the ledger.  The replay stops early, and returns
    None, only at a claimed shrink step it finds no witness for, and then
    ``trace_shape`` fails.
    """
    group, a, eps, last = decoded.group, decoded.a, decoded.eps, decoded.last
    n_a = len(a)
    table: dict[str, tuple[str, Fraction, Fraction]] = {}
    cur = forms = list(map(group.to_form, a))  # ascending, as forms sort as encodings do
    for i, step in enumerate(decoded.cert["trace"]["steps"]):
        tag = f"step{i}"
        rec.record(f"{tag}.index", i, step.get("index"))
        rec.record(f"{tag}.aprime_size", len(cur), step.get("aprime_size"))
        # each step is charged |A'||A|, but only step 0 multiplies: its rows
        # xA serve every later A' ⊆ A, and A'A is the OR of their masks
        charge_pairs(len(cur) * n_a)
        if i == 0:
            a2, rows = _row_table(group, forms)  # the replay's first product is A·A
            k0 = Fraction(len(a2), n_a)
        prod = _union(rows, cur)
        n_ap, n_p = len(cur), prod.bit_count()
        rec.record(f"{tag}.product_size", n_p, step.get("product_size"))
        tau = Fraction(n_ap**4, 2 * n_p * n_a**2)
        rec.record(f"{tag}.tau", fraction_to_str(tau), step.get("tau"))
        # the step's overlaps A' ∩ tA' give its level set and every candidate
        overlaps = _overlaps(group, cur)
        level = _at_least({t: len(inside) for t, inside in overlaps.items()}, math.ceil(tau))
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
        rec.record(f"{tag}.t", list(group.from_form(witness)) if witness is not None else None, step.get("t"))
        if witness is None:
            # recorded chain diverges; replay cannot continue faithfully
            break
        cur = overlaps[witness]
        table[f"{tag}.shrink_size_lower"] = ("ge", Fraction(len(cur)), tau)
        table[f"{tag}.shrink_product_upper"] = ("le", Fraction(n_cover), limit)
    rec.flag("trace_shape", i == last)
    if i < last:
        return None
    element = dict(zip(forms, a))  # A' in the instance's own elements, with nothing encoded
    return _Replay(a2, tuple(element[f] for f in cur), prod, level, k0, table)


def _check_terminal(decoded: _Decoded, replay: _Replay, rec: VerificationReport) -> None:
    """Check the run-level claims at the terminate step, and add the run's ledger lines to the replay's table.

    The symmetry set is recomputed from its definition (``_sym_counts``
    over the unordered pairs of the last product X, read off its mask as
    forms, and only the expected S is encoded), and S is checked against
    the level set as forms.  The power containment is re-derived
    member by member (``oracle_power``, whose work does not grow with the
    certificate's k): a member of S^k in XX⁻¹, the keys of those counts,
    lies in A²A⁻² since X ⊆ A², and every other member is tested against
    A², each charged |A²| either way.  On an honest certificate no member
    is tested: each s in S has |X ∩ sX| >= (1-eps)|X|, so with
    eps = 1/(k+1) the sets X, s_1X, s_1s_2X, ..., s_1...s_kX share a
    member, and s_1...s_k lies in XX⁻¹.
    """
    cert, group, eps, s, last = decoded.cert, decoded.group, decoded.eps, decoded.s, decoded.last
    trace, table = cert["trace"], replay.table
    n_a, n_p = len(decoded.a), replay.product.bit_count()
    rec.record("i0", last, trace["i0"])
    rec.record("doubling", fraction_to_str(replay.k0), trace["doubling"])
    cap = termination_cap(replay.k0, eps)
    rec.record("termination_cap", cap, trace["termination_cap"])
    rec.record("aprime_matches", list(map(list, replay.aprime)), cert["aprime"])

    threshold = (1 - eps) if eps < 1 else Fraction(1, n_p)
    rec.record("s_threshold", fraction_to_str(threshold), cert["s_threshold"])
    rec.flag("s_sorted_unique", all(x < y for x, y in zip(s, s[1:])))
    counts = _sym_counts(group, _decode(replay.a2, replay.product))
    expected_s = _at_least(counts, math.ceil(threshold * n_p))
    rec.record("s_matches_symmetry_set", [list(group.from_form(t)) for t in expected_s], list(map(list, s)))
    s_forms = list(map(group.to_form, s))
    s_set = set(s_forms)
    has_identity = group.identity_form in s_set
    asymmetric = sum(1 for f in s_forms if group.form_inverse(f) not in s_set)
    rec.flag("s_contains_identity", has_identity)
    rec.flag("s_symmetric", asymmetric == 0)

    # the headline containment, member by member: x ∈ A²A⁻² if x ∈ XX⁻¹ (the
    # form keys of counts, as X ⊆ A²), and otherwise iff xA² ∩ A² ≠ ∅
    violations = _outside_quad(group, oracle_power(group, s, cert["k"]), counts, replay.a2)
    rec.record("power_containment_violations", 0, violations)

    table[f"step{last}.sym_size_lower"] = ("ge", Fraction(len(s)), Fraction(len(replay.level)))
    level_outside = sum(1 for t in replay.level if t not in s_set)
    table[f"step{last}.level_set_in_sym"] = ("eq", Fraction(level_outside), Fraction(0))
    table["identity_in_neighbourhood"] = ("eq", Fraction(int(has_identity)), Fraction(1))
    table["neighbourhood_symmetric"] = ("eq", Fraction(asymmetric), Fraction(0))
    table["power_containment"] = ("eq", Fraction(violations), Fraction(0))
    size_bound = Fraction(len(replay.aprime) ** 3, 2 * n_p * n_a)
    table["neighbourhood_size_lower_bound"] = ("ge", Fraction(len(s)), size_bound)
    table["termination_bound"] = ("le", Fraction(last), Fraction(cap))


def _check_ledger(table: dict[str, tuple[str, Fraction, Fraction]], ledger: list, rec: VerificationReport) -> None:
    """Compare each ledger line with the table's as exact strings; the decode allowed only the table's names."""
    rec.record("ledger_names", sorted(table), sorted(entry["name"] for entry in ledger))
    for entry in ledger:
        name = entry["name"]
        relation, lhs, rhs = table[name]
        ok = (
            entry.get("relation") == relation
            and entry.get("lhs") == fraction_to_str(lhs)
            and entry.get("rhs") == fraction_to_str(rhs)
            and entry.get("holds") is True
            and _RELATIONS[relation](lhs, rhs)
        )
        rec.flag(f"ledger.{name}", ok)
