"""Symmetry sets of a finite set under exact thresholds.

For a nonempty set A and a rational threshold eta in (0, 1], the symmetry
set collects the group elements whose left translate overlaps A in at least
eta * |A| points:

    sym(A, eta) = { x : |A ∩ xA| >= eta |A| }

Equivalently the members are the level set of the convolution of A with
A^-1 at eta |A|, so they all lie inside A A^-1, and ``sym_set`` takes
them from ``gset.level_set``, as the shrink step takes its level set.  The
comparison is exact (rational against integer count) and non-strict, so
boundary cases are decided the same way on every platform.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantViolation, ParameterError
from .gset import GSet, level_set
from .serialize import parse_fraction


def check_eta(eta) -> Fraction:
    """Validate a threshold or shrink slack in (0, 1], returning it as an exact Fraction.

    A Fraction or an int passes; a string must be an exact 'p/q' or 'p' as
    ``parse_fraction`` reads it.  Everything else, floats and bools
    included, is a ParameterError: a float such as 0.3 is not the rational
    it looks like, and would put a binary fraction into a certificate.
    """
    if not isinstance(eta, Fraction):
        eta = parse_fraction(eta, "threshold")
    if not 0 < eta <= 1:
        raise ParameterError(f"threshold must lie in (0, 1], got {eta}")
    return eta


def sym_set(a: GSet, eta) -> GSet:
    """The members of the symmetry set of A at threshold eta.

    |A ∩ xA| is the convolution count of A with A^-1 at x, so the members
    are the level set of A at eta |A|, charged |A|^2 pairs; every member
    lies in A A^-1.
    """
    a.require_nonempty("symmetry set input")
    eta = check_eta(eta)
    members, _ = level_set(a, eta * len(a))
    # identity and closure under inversion hold by definition; failing here means
    # the computation itself is broken, not the input
    if not members.contains_identity():
        raise InvariantViolation("identity escaped a symmetry set")
    if not members.is_symmetric():
        raise InvariantViolation("symmetry set not closed under inversion")
    return members

