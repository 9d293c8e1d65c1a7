"""Shared test fixtures, structure checks and the acceptance summary hook.

Unit tests draw random instances through CounterStream so every run sees the
same data.  The ``check_*`` helpers state the paper's structural facts about
symmetry sets; every one of them returns True on every input in its domain,
so a False signals a bug, and raises ParameterError outside the domain.  Acceptance tests register one line per criterion here; the
terminal-summary hook prints them after the run, outside pytest's capture.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from symgrowth.groups import (
    CyclicGroup,
    DihedralGroup,
    HeisenbergGroup,
    SymmetricGroup,
)
from symgrowth.errors import ParameterError
from symgrowth.gset import GSet, conv_table, product
from symgrowth.oracle import oracle_power
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
