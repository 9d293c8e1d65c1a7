"""Shared test fixtures, references, structure checks and the acceptance summary hook.

Unit tests draw random instances through CounterStream so every run sees the
same data.  The ``oracle_*`` references count by definition, with the same
loops and budget charges as the oracles in ``symgrowth.oracle``, for values
no command computes that way; ``oracle_level_set`` filters a level set
from ``oracle_overlaps``, and ``oracle_sym_members`` a symmetry set from
``oracle_sym_counts``; ``reference_scan`` finds a shrink step's
witness by building every candidate's product with ``oracle_product``,
and ``from_both_ends`` puts a list in the order the level-set lookup yields;
``SIDES`` stands in for the mask cost rule to send calls to one kernel,
and ``on_side`` patches it in; ``conv_table`` is the loop kernel's
convolution table, charged as ``gset`` charges a call;
``encode_value``, ``one_line`` and ``encode_one_line`` are independent
references for the JSON encoder and the symmetric backend's Lehmer codes,
and ``termination_cap_by_bisection`` for the termination cap.  The ``check_*`` helpers state the
paper's structural facts about symmetry sets; every one of them returns
True on every input in its domain, so a False signals a bug, and raises
ParameterError outside the domain.  Acceptance tests register one line per
criterion here; the terminal-summary hook prints them after the run,
outside pytest's capture.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from unittest import mock

import pytest

from symgrowth.groups import (
    CyclicGroup,
    DihedralGroup,
    HeisenbergGroup,
    SymmetricGroup,
)
from symgrowth import masks
from symgrowth.budget import charge_pairs
from symgrowth.errors import InvalidElementError, ParameterError
from symgrowth.gset import GSet, product
from symgrowth.oracle import oracle_overlaps, oracle_power, oracle_product, oracle_sym_counts
from symgrowth.prng import splitmix64
from symgrowth.symmetry import check_eta, sym_set

try:
    from hypothesis import settings

    settings.register_profile("repo", deadline=None, max_examples=60, derandomize=True)
    settings.load_profile("repo")
except ImportError:  # pragma: no cover
    pass


# (criterion, "PASS"/"FAIL", detail) triples appended by tests/test_acceptance.py.
ACCEPTANCE_LINES: list[tuple[str, str, str]] = []


def record_acceptance(name: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append((name, "PASS" if ok else "FAIL", detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for name, status, detail in ACCEPTANCE_LINES:
        terminalreporter.write_line(f"[{status}] {name}: {detail}")


class CounterStream:
    """Sequential reader over the splitmix64 stream for one seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.index = 0

    def next(self) -> int:
        value = splitmix64(self.seed, self.index)
        self.index += 1
        return value

    def below(self, bound: int) -> int:
        """Next value reduced mod ``bound`` (bound >= 1)."""
        return self.next() % bound


def oracle_conv_value(group, a, b, x) -> int:
    """Number of ways to write x = u*v with u in A, v in B, by double loop."""
    a = tuple(a)
    b = tuple(b)
    charge_pairs(len(a) * len(b))
    mul = group.multiply
    return sum(1 for u in a for v in b if mul(u, v) == x)


def oracle_conv_table(group, a, b) -> dict:
    """Number of ways to write each x = u*v, by double loop; the reference for conv_table's entry lengths."""
    a = tuple(a)
    b = tuple(b)
    charge_pairs(len(a) * len(b))
    mul = group.multiply
    counts = {}
    for u in a:
        for v in b:
            w = mul(u, v)
            counts[w] = counts.get(w, 0) + 1
    return dict(sorted(counts.items()))


def oracle_quadruples(group, b, c, d, e) -> int:
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


def oracle_overlap(group, a, t) -> int:
    """|A ∩ tA| by direct counting over A; the check by definition of ``oracle_overlaps``."""
    members = frozenset(a)
    mul = group.multiply
    return sum(1 for v in a if mul(t, v) in members)


def failures(report) -> list:
    """The failed checks of a ``VerificationReport``."""
    return [c for c in report.checks if not c.passed]


def encode_value(value):
    """The JSON form of a value by an explicit walk: Fractions to strings, tuples to lists.

    ``canonical_dumps(x)`` must equal ``json.dumps(encode_value(x), sort_keys=True,
    indent=2, ensure_ascii=True) + "\\n"``.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: encode_value(v) for k, v in value.items()}
    if value is None or isinstance(value, (int, str)):
        return value
    raise ParameterError(f"value {value!r} has no canonical JSON form")


def one_line(group: SymmetricGroup, code) -> tuple:
    """The one-line form (p(0), ..., p(n-1)) of a Lehmer code, filled from the right.

    ``l_i`` counts the later values below ``p(i)``, so placing ``p(i) = l_i``
    and raising every later value at or above it rebuilds ``p``.
    """
    assert len(code) == group.n
    perm = [0] * group.n
    for i in reversed(range(group.n)):
        perm[i] = code[i]
        for j in range(i + 1, group.n):
            if perm[j] >= perm[i]:
                perm[j] += 1
    return tuple(perm)


def encode_one_line(group: SymmetricGroup, perm) -> tuple:
    """The Lehmer code of a one-line permutation of 0..n-1, which is checked first."""
    perm = tuple(perm)
    if sorted(perm) != list(range(group.n)):
        raise InvalidElementError(f"not a permutation of 0..{group.n - 1}: {perm!r}")
    return tuple(sum(1 for q in perm[i + 1 :] if q < p) for i, p in enumerate(perm))


def termination_cap_by_bisection(k0, eps) -> int:
    """Smallest m >= 0 with (1-eps)^m * K0 <= 1, by doubling and then bisection on m.

    Each test brackets 2^P·(a/b)^m (1-eps = a/b) by its own square-and-multiply
    with floor and ceiling rounding, and compares exact powers only when the
    bracket cannot decide; the reference for ``termination_cap``.
    """
    k0 = Fraction(k0)
    shrink = 1 - Fraction(eps)
    if not 0 <= shrink < 1:
        raise ParameterError(f"termination cap needs eps in (0, 1], got {eps}")
    p, q = k0.numerator, k0.denominator
    a, b = shrink.numerator, shrink.denominator

    def holds(m: int) -> bool:
        bits = 128 + 2 * (p.bit_length() + q.bit_length() + b.bit_length() + m.bit_length())
        scaled_q = q << bits
        lo = hi = 1 << bits  # lo <= 2^bits·(a/b)^m <= hi
        base_lo = (a << bits) // b
        base_hi = -(-(a << bits) // b)
        e = m
        while e:
            if e & 1:
                lo = lo * base_lo >> bits
                hi = -(-(hi * base_hi) >> bits)
            e >>= 1
            if e:
                base_lo = base_lo * base_lo >> bits
                base_hi = -(-(base_hi * base_hi) >> bits)
        if p * hi <= scaled_q:
            return True
        if p * lo > scaled_q:
            return False
        return p * a**m <= q * b**m

    if holds(0):
        return 0
    fails, passes = 0, 1  # holds(fails) is false; double passes until it holds
    while not holds(passes):
        fails, passes = passes, 2 * passes
    while passes - fails > 1:
        mid = (fails + passes) // 2
        if holds(mid):
            passes = mid
        else:
            fails = mid
    return passes


def conv_counts(table: dict) -> dict:
    """The convolution counts of a ``conv_table``: each x -> the number of its terms."""
    return {x: len(terms) for x, terms in table.items()}


def pair_energy(a: GSet, b: GSet, c: GSet, d: GSet) -> int:
    """#{(u, v, w, z) in A x B x C x D : uv = wz}, the inner product of two convolution tables."""
    right = conv_table(c, d)
    return sum(len(terms) * len(right.get(x, ())) for x, terms in conv_table(a, b).items())


def check_nesting(a: GSet, eta, eta_prime) -> bool:
    """Whether sym(A, eta) ⊆ sym(A, eta') for eta >= eta'."""
    if check_eta(eta) < check_eta(eta_prime):
        raise ParameterError(f"nesting check needs eta >= eta', got {eta} < {eta_prime}")
    return sym_set(a, eta).subset_of(sym_set(a, eta_prime))


def check_submultiplicativity(a: GSet, eps, eps_prime) -> bool:
    """Whether sym(A,1-eps) * sym(A,1-eps') ⊆ sym(A,1-eps-eps'), for eps + eps' < 1."""
    eps, eps_prime = Fraction(eps), Fraction(eps_prime)
    if not (0 <= eps and 0 <= eps_prime and eps + eps_prime < 1):
        raise ParameterError(f"slacks must be nonnegative and sum below 1, got {eps} + {eps_prime}")
    s1 = sym_set(a, 1 - eps)
    s2 = sym_set(a, 1 - eps_prime)
    return product(s1, s2).subset_of(sym_set(a, 1 - eps - eps_prime))


def check_iterated_power(a: GSet, eps, k: int) -> bool:
    """Whether sym(A,1-eps)^k ⊆ sym(A,1-k*eps), for k*eps < 1; S^k by ``oracle_power``."""
    eps = Fraction(eps)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1 or not 0 <= eps < 1 or k * eps >= 1:
        raise ParameterError(f"need a positive integer k with k*eps < 1, got k={k!r}, eps={eps}")
    s = sym_set(a, 1 - eps)
    target = sym_set(a, 1 - k * eps)
    return all(x in target for x in oracle_power(a.group, s.elements, k))


#: stand-ins for the mask cost rule, ``masks.Rotations.cost``, that send every
#: call to the loop, or to the masks with level-set counts by popcount, or to
#: the masks with level-set counts by Kronecker lanes
SIDES = {
    "loop": lambda cls, order, translations, width=1: math.inf,
    "popcount": lambda cls, order, translations, width=1: -1 if width == 1 else 0,
    "kronecker": lambda cls, order, translations, width=1: 0,
}


def on_side(side):
    """A patch of the cost rule, the one place both ``gset._kernel`` and the masks' level sets read it, to ``SIDES[side]``."""
    return mock.patch.object(masks.Rotations, "cost", classmethod(SIDES[side]))


def conv_table(a: GSet, b: GSet | None = None, least: int = 1) -> dict:
    """The loop kernel's convolution table of A with B (A^-1 when ``b`` is None), charged |A||B| pairs up front.

    Maps every x in AB with 1_A * 1_B(x) >= least to the list of u in A, in
    canonical order, with x in uB; with B = A^-1 the entry at t is A ∩ tA.
    """
    if b is not None:
        a.same_group(b)
    charge_pairs(len(a) * len(a if b is None else b))
    return a.group.loop.conv_table(a, b, least)


def from_both_ends(items) -> list:
    """The items last, first, next to last, second, and so on: a deque popped from each end in turn."""
    rest, out = deque(items), []
    while rest:
        out.append(rest.pop())
        if rest:
            out.append(rest.popleft())
    return out


def oracle_level_set(group, aprime, tau) -> tuple:
    """All t with |A' ∩ tA'| >= tau, in ascending order, filtered from ``oracle_overlaps(A')``.

    A count is an int, so it is compared with ceil(tau), not with a Fraction.
    """
    least = math.ceil(tau)
    return tuple(sorted(t for t, inside in oracle_overlaps(group, aprime).items() if len(inside) >= least))


def oracle_sym_members(group, a, eta) -> tuple:
    """Symmetry-set members |A ∩ tA| >= eta |A|, in ascending order, filtered from ``oracle_sym_counts(A)``.

    A count is an int, so it is compared with ceil(eta |A|), not with a Fraction.
    """
    a = set(a)
    least = math.ceil(Fraction(eta) * len(a))
    return tuple(sorted(t for t, count in oracle_sym_counts(group, a).items() if count >= least))


def reference_scan(group, aprime, a, eps):
    """The first level-set t whose (A' ∩ tA')A has at most (1-eps)|A'A| elements, by full products."""
    n_p = len(oracle_product(group, aprime, a))
    for t in oracle_level_set(group, aprime, Fraction(len(aprime) ** 4, 2 * n_p * len(a) ** 2)):
        translate = {group.multiply(t, v) for v in aprime}
        cand = tuple(x for x in aprime if x in translate)
        if len(oracle_product(group, cand, a)) <= (1 - eps) * n_p:
            return t, cand
    return None, None


def small_group_pool():
    """Mixed abelian/non-abelian groups, all orders <= 60."""
    return [
        CyclicGroup(12),
        CyclicGroup(20),
        CyclicGroup(31),
        DihedralGroup(5),
        DihedralGroup(8),
        HeisenbergGroup(3),
        SymmetricGroup(4),
    ]


def draw_subset(group, size, stream: CounterStream) -> GSet:
    """Size distinct elements of group, drawn by index."""
    if size > group.order:
        raise ValueError("subset larger than group")
    seen = {}
    while len(seen) < size:
        seen.setdefault(group.element_at(stream.below(group.order)), None)
    return GSet(group, list(seen))


def draw_fraction(stream: CounterStream, max_den: int = 12) -> Fraction:
    """A fraction in (0, 1] with a small denominator."""
    den = 1 + stream.below(max_den)
    num = 1 + stream.below(den)
    return Fraction(num, den)


@pytest.fixture
def stream():
    return CounterStream(0xACCE55)
