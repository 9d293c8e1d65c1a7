"""Symmetry sets of a finite set under exact thresholds.

For a nonempty set A and a rational threshold eta in (0, 1], the symmetry
set collects the group elements whose left translate overlaps A in at least
eta * |A| points:

    sym(A, eta).members = { x : |A ∩ xA| >= eta |A| }

Equivalently the members are the level set of the convolution of A with
A^-1, so they all lie inside A A^-1, and ``sym_set`` reads them off that
convolution table.  The comparison is exact (rational against integer
count) and non-strict, so boundary cases are decided the same way on every
platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InvariantViolation, ParameterError
from .groups import Element
from .gset import GSet, conv_table, inverse_set, power, product


def check_eta(eta) -> Fraction:
    """Validate a symmetry threshold, returning it as an exact Fraction."""
    eta = Fraction(eta)
    if not 0 < eta <= 1:
        raise ParameterError(f"threshold must lie in (0, 1], got {eta}")
    return eta


def overlap(a: GSet, t: Element) -> int:
    """|A ∩ tA|, the number of v in A with t*v still in A."""
    g = a.group
    g.validate(t)
    mul = g.multiply
    return sum(1 for v in a if mul(t, v) in a)


@dataclass(frozen=True)
class SymmetrySet:
    """A symmetry-set query result: the base set, the threshold, the members."""

    base: GSet
    eta: Fraction
    members: GSet

    def __contains__(self, x: object) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)


def sym_set(a: GSet, eta, *, domain: Iterable[Element] | None = None) -> SymmetrySet:
    """The symmetry set of A at threshold eta.

    |A ∩ xA| is the convolution count of A with A^-1 at x, so the members
    are read off one ``conv_table(a, inverse_set(a))`` at |A|^2
    multiplications; every member lies in A A^-1.  ``domain``, if given,
    restricts the candidates to its elements, which are validated; any
    superset of A A^-1 gives the full symmetry set.
    """
    a.require_nonempty("symmetry set input")
    eta = check_eta(eta)
    g = a.group
    if domain is not None:
        domain = set(domain)
        for t in domain:
            g.validate(t)
    counts = conv_table(a, inverse_set(a)).counts
    need = eta * len(a)
    cands = counts if domain is None else domain
    members = GSet(g, [t for t in cands if counts.get(t, 0) >= need], validate=False)
    # identity and closure under inversion hold by definition; failing here means
    # the computation itself is broken, not the input
    if g.identity not in members:
        raise InvariantViolation("identity escaped a symmetry set")
    if not members.is_symmetric():
        raise InvariantViolation("symmetry set not closed under inversion")
    return SymmetrySet(base=a, eta=eta, members=members)


def check_nesting(a: GSet, eta, eta_prime) -> bool:
    """Whether sym(A, eta).members ⊆ sym(A, eta').members for eta >= eta'.

    True for every valid input; a False return signals a bug, and tests
    treat it as one.
    """
    eta = check_eta(eta)
    eta_prime = check_eta(eta_prime)
    if eta < eta_prime:
        raise ParameterError(f"nesting check needs eta >= eta', got {eta} < {eta_prime}")
    hi = sym_set(a, eta)
    lo = sym_set(a, eta_prime)
    return hi.members.subset_of(lo.members)


def check_submultiplicativity(a: GSet, eps, eps_prime) -> bool:
    """Whether sym(A,1-eps).members * sym(A,1-eps').members ⊆ sym(A,1-eps-eps').members.

    Requires eps, eps' in [0, 1) with eps + eps' < 1 so the combined
    threshold stays positive.  True for every valid input.
    """
    eps, eps_prime = Fraction(eps), Fraction(eps_prime)
    for e in (eps, eps_prime):
        if not 0 <= e < 1:
            raise ParameterError(f"slack must lie in [0, 1), got {e}")
    if eps + eps_prime >= 1:
        raise ParameterError(f"slacks must sum below 1, got {eps} + {eps_prime}")
    s1 = sym_set(a, 1 - eps)
    s2 = sym_set(a, 1 - eps_prime)
    s12 = sym_set(a, 1 - eps - eps_prime)
    return product(s1.members, s2.members).subset_of(s12.members)


def check_iterated_power(a: GSet, eps, k: int) -> bool:
    """Whether power(sym(A,1-eps).members, k) ⊆ sym(A,1-k*eps).members.

    Requires k*eps < 1.  This is the iterated form of sub-multiplicativity
    and drives the power containment of the main construction.
    """
    eps = Fraction(eps)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ParameterError(f"power must be a positive integer, got {k!r}")
    if not 0 <= eps < 1 or k * eps >= 1:
        raise ParameterError(f"need k*eps < 1, got k={k}, eps={eps}")
    s = sym_set(a, 1 - eps)
    target = sym_set(a, 1 - k * eps)
    return power(s.members, k).subset_of(target.members)
