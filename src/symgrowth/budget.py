"""Global pair budget shared by the fast path and the reference oracles.

Product-style operations cost one group multiplication per element pair.
Any single call whose pair count would exceed the budget is refused up
front with ``PairBudgetError`` so runaway instances fail fast instead of
grinding.  The default is 10^8 pairs; ``set_pair_budget`` (the CLI's
``--budget-pairs``) overrides it.
"""

from __future__ import annotations

from .errors import PairBudgetError, ParameterError

DEFAULT_PAIR_BUDGET = 10**8

_pair_budget: int | None = None


def pair_budget() -> int:
    """Current cap on group multiplications per product-style call."""
    return _pair_budget if _pair_budget is not None else DEFAULT_PAIR_BUDGET


def set_pair_budget(value: int | None) -> None:
    """Override the pair budget for this process; None restores the default."""
    global _pair_budget
    if value is not None:
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise ParameterError(f"pair budget must be a positive integer, got {value!r}")
    _pair_budget = value


def charge_pairs(needed: int) -> None:
    """Raise PairBudgetError if ``needed`` multiplications exceed the budget."""
    budget = pair_budget()
    if needed > budget:
        raise PairBudgetError(needed, budget)
