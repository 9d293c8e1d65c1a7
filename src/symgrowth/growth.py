"""The iterative shrinking construction and its certificates.

Given a nonempty finite A in a group, one *shrink step* on a subset A' of A
either finds t with a markedly smaller |(A' ∩ tA')A|, or certifies that the
symmetry set of A'A at threshold 1-eps is large.  Iterating from A' = A
terminates quickly, and running the iteration with eps = 1/(k+1) yields a
symmetric neighbourhood S of the identity with S^k contained in A^2 A^-2.

Every run carries an inequality ledger whose left- and right-hand sides are
exact rationals, and the driver re-derives the headline containment with
the brute-force oracle before marking a certificate verified.  Certificates
serialize to canonical JSON (see ``serialize``) so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import InvariantViolation, ParameterError
from .groups import Element
from .gset import GSet, inverse_set, overlap_masks, power, product, row_product
from .oracle import (
    CERTIFICATE_FORMAT,
    oracle_inverse,
    oracle_power,
    oracle_product,
    termination_cap,
)
from .serialize import elements_to_json, fraction_to_str
from .symmetry import SymmetrySet, sym_set

#: closing-remark comparison recorded on certificates; informational only
ALTERNATIVE_SIZE_BOUND = "|S| >= exp(-O(k^2 K log K)) |A|"

CERT_METADATA = {
    "alternative_size_bound": ALTERNATIVE_SIZE_BOUND,
    "alternative_size_bound_note": (
        "best known neighbourhood density via sampling arguments; recorded "
        "for comparison only and never computed here"
    ),
}


@dataclass(frozen=True)
class LedgerEntry:
    """One exact inequality: lhs <relation> rhs with the evaluated verdict."""

    name: str
    relation: str  # "ge" | "le" | "eq"
    lhs: Fraction
    rhs: Fraction
    holds: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "relation": self.relation,
            "lhs": fraction_to_str(self.lhs),
            "rhs": fraction_to_str(self.rhs),
            "holds": self.holds,
        }


def _entry(name: str, relation: str, lhs, rhs) -> LedgerEntry:
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    if relation == "ge":
        holds = lhs >= rhs
    elif relation == "le":
        holds = lhs <= rhs
    elif relation == "eq":
        holds = lhs == rhs
    else:
        raise ParameterError(f"unknown ledger relation {relation!r}")
    return LedgerEntry(name, relation, lhs, rhs, holds)


def _prefixed(prefix: str, entry: LedgerEntry) -> LedgerEntry:
    return LedgerEntry(f"{prefix}.{entry.name}", entry.relation, entry.lhs, entry.rhs, entry.holds)


@dataclass(frozen=True)
class StepOutcome:
    """Result of one shrink step: exactly one of the two cases.

    case "shrink": ``t`` witnesses the shrink, ``shrunk`` is A' ∩ tA' and
    ``shrunk_product`` its product with A.  case "terminate": ``sym`` is
    the symmetry set of A'A at the step threshold and contains the whole
    level set.  ``entries`` holds the step's proven inequalities with
    unprefixed names; callers add a step index when assembling a ledger.
    """

    case: str
    aprime: GSet
    product: GSet
    tau: Fraction
    level_set: GSet
    entries: tuple[LedgerEntry, ...]
    t: Element | None = None
    shrunk: GSet | None = None
    shrunk_product: GSet | None = None
    sym: SymmetrySet | None = None
    threshold: Fraction | None = None


@dataclass(frozen=True)
class StepRecord:
    """Trace row for one step (sizes only; sets live in StepOutcome)."""

    index: int
    aprime_size: int
    product_size: int
    tau: Fraction
    level_set_size: int
    action: str
    t: Element | None = None

    def as_dict(self) -> dict:
        row = {
            "index": self.index,
            "aprime_size": self.aprime_size,
            "product_size": self.product_size,
            "tau": fraction_to_str(self.tau),
            "level_set_size": self.level_set_size,
            "action": self.action,
        }
        if self.action == "shrink":
            row["t"] = list(self.t)
        return row


@dataclass(frozen=True)
class IterationTrace:
    steps: tuple[StepRecord, ...]
    epsilon: Fraction
    doubling: Fraction  # K0 = |AA| / |A|
    i0: int
    termination_cap: int

    def as_dict(self) -> dict:
        return {
            "steps": [s.as_dict() for s in self.steps],
            "epsilon": fraction_to_str(self.epsilon),
            "doubling": fraction_to_str(self.doubling),
            "i0": self.i0,
            "termination_cap": self.termination_cap,
        }


@dataclass(frozen=True)
class Certificate:
    """Self-contained, independently checkable record of one driver run."""

    instance: dict
    k: int
    epsilon: Fraction
    a: GSet
    aprime: GSet
    s: GSet
    s_threshold: Fraction
    trace: IterationTrace
    ledger: tuple[LedgerEntry, ...]
    verified: bool

    def to_json_dict(self) -> dict:
        return {
            "format": CERTIFICATE_FORMAT,
            "instance": self.instance,
            "a": elements_to_json(self.a.elements),
            "k": self.k,
            "epsilon": fraction_to_str(self.epsilon),
            "aprime": elements_to_json(self.aprime.elements),
            "s": elements_to_json(self.s.elements),
            "s_threshold": fraction_to_str(self.s_threshold),
            "trace": self.trace.as_dict(),
            "ledger": [e.as_dict() for e in self.ledger],
            "verified": self.verified,
            "metadata": dict(CERT_METADATA),
        }


def _check_eps(eps) -> Fraction:
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ParameterError(f"shrink slack must lie in (0, 1], got {eps}")
    return eps


def shrink_step(aprime: GSet, a: GSet, eps) -> StepOutcome:
    """One dichotomy step on A' ⊆ A.

    Computes the level set L of translates t with |A' ∩ tA'| >= tau where
    tau = |A'|^4 / (2 |A'A| |A|^2), then scans L in canonical encoding
    order for the first t with |(A' ∩ tA')A| <= (1-eps)|A'A|.  Found:
    case "shrink".  Not found: case "terminate", and the symmetry set of
    A'A at threshold 1-eps (clamped to 1/|A'A| when eps = 1) contains L.

    L comes from one convolution table of A' with A'^-1 and the scan reuses
    the rows of A'A, so a step costs |A'||A| + |A'|^2 multiplications, plus
    |A'A|^2 for the symmetry set when it terminates.

    The step's inequalities hold unconditionally; if any fails the step
    raises InvariantViolation, since that means the computation is broken.
    """
    aprime.same_group(a)
    aprime.require_nonempty("shrink step input A'")
    a.require_nonempty("shrink step input A")
    if not aprime.subset_of(a):
        raise ParameterError("shrink step needs A' to be a subset of A")
    eps = _check_eps(eps)

    rows = row_product(aprime, a)
    p = rows.support()
    np_, na, nap = len(p), len(a), len(aprime)
    tau = Fraction(nap**4, 2 * np_ * na**2)

    overlaps = overlap_masks(aprime)
    level = GSet(
        aprime.group,
        [t for t, mask in overlaps.items() if mask.bit_count() >= tau],
        validate=False,
    )

    entries = [_entry("level_set_lower", "ge", len(level), Fraction(nap**3, 2 * np_ * na))]
    if not entries[0].holds:
        raise InvariantViolation("level set undercut its counting bound")

    # (A' ∩ tA')A is the union of the rows of the members of A' ∩ tA'
    limit = (1 - eps) * np_
    for t in level:
        cover = rows.cover(overlaps[t])
        if cover.bit_count() <= limit:
            shrunk = aprime.pick(overlaps[t])
            shrunk_product = rows.pick(cover)
            entries.append(_entry("shrink_size_lower", "ge", len(shrunk), tau))
            entries.append(_entry("shrink_product_upper", "le", len(shrunk_product), limit))
            if not all(e.holds for e in entries):
                raise InvariantViolation("shrink case inequalities failed")
            return StepOutcome(
                case="shrink",
                aprime=aprime,
                product=p,
                tau=tau,
                level_set=level,
                entries=tuple(entries),
                t=t,
                shrunk=shrunk,
                shrunk_product=shrunk_product,
            )

    threshold = (1 - eps) if eps < 1 else Fraction(1, np_)
    sym = sym_set(p, threshold)
    entries.append(_entry("sym_size_lower", "ge", len(sym.members), len(level)))
    outside = sum(1 for t in level if t not in sym.members)
    entries.append(_entry("level_set_in_sym", "eq", outside, 0))
    if not all(e.holds for e in entries):
        raise InvariantViolation("terminate case inequalities failed")
    return StepOutcome(
        case="terminate",
        aprime=aprime,
        product=p,
        tau=tau,
        level_set=level,
        entries=tuple(entries),
        sym=sym,
        threshold=threshold,
    )


StepHook = Callable[[StepRecord], None]


def _record(index: int, out: StepOutcome) -> StepRecord:
    return StepRecord(
        index=index,
        aprime_size=len(out.aprime),
        product_size=len(out.product),
        tau=out.tau,
        level_set_size=len(out.level_set),
        action=out.case,
        t=out.t,
    )


def _run_iteration(a: GSet, eps: Fraction, step_hook: StepHook | None = None):
    outcomes: list[StepOutcome] = []
    records: list[StepRecord] = []
    cur = a
    cap = None
    while True:
        out = shrink_step(cur, a, eps)
        rec = _record(len(outcomes), out)
        outcomes.append(out)
        records.append(rec)
        if step_hook is not None:
            step_hook(rec)
        if cap is None:
            k0 = Fraction(len(out.product), len(a))
            cap = termination_cap(k0, eps)
        if out.case == "terminate":
            break
        if len(outcomes) > cap:
            # a shrink past the cap would contradict |A'A| >= |A|
            raise InvariantViolation("iteration ran past its termination cap")
        cur = out.shrunk
    trace = IterationTrace(
        steps=tuple(records),
        epsilon=eps,
        doubling=k0,
        i0=len(records) - 1,
        termination_cap=cap,
    )
    return outcomes, trace


def iterate_shrink(a: GSet, eps, step_hook: StepHook | None = None):
    """Iterate shrink steps from A' = A until termination.

    Returns (terminal A', the terminal symmetry set, the trace).  The
    terminal symmetry set is taken on A'A at threshold 1-eps and is at
    least as large as the final level set.
    """
    a.require_nonempty("iteration input")
    eps = _check_eps(eps)
    outcomes, trace = _run_iteration(a, eps, step_hook)
    last = outcomes[-1]
    return last.aprime, last.sym, trace


def _trace_entries(trace: IterationTrace, a_size: int) -> list[LedgerEntry]:
    eps, k0 = trace.epsilon, trace.doubling
    entries = []
    for step in trace.steps:
        i = step.index
        entries.append(
            _entry(
                f"trace{i}.product_growth_bound",
                "le",
                step.product_size,
                (1 - eps) ** i * k0 * a_size,
            )
        )
        exponent = (4**i - 1) // 3
        entries.append(
            _entry(
                f"trace{i}.size_lower_bound",
                "ge",
                step.aprime_size,
                Fraction(a_size) / (2 * k0) ** exponent,
            )
        )
    entries.append(_entry("termination_bound", "le", trace.i0, trace.termination_cap))
    return entries


def stable_neighbourhood(
    a: GSet,
    k: int,
    instance: dict | None = None,
    step_hook: StepHook | None = None,
) -> Certificate:
    """Produce S with S^k ⊆ A²A⁻² and the certificate that proves it.

    Runs the shrink iteration with eps = 1/(k+1); the terminal symmetry
    set S is symmetric, contains the identity, and satisfies the power
    containment, which is re-derived here with the brute-force oracle
    before the certificate is marked verified.  A failed check yields
    verified=False rather than an exception.
    """
    a.require_nonempty("driver input")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ParameterError(f"power parameter k must be a positive integer, got {k!r}")
    eps = Fraction(1, k + 1)
    group = a.group

    outcomes, trace = _run_iteration(a, eps, step_hook)
    last = outcomes[-1]
    aprime, sym = last.aprime, last.sym
    s = sym.members

    ledger: list[LedgerEntry] = []
    for i, out in enumerate(outcomes):
        ledger.extend(_prefixed(f"step{i}", e) for e in out.entries)

    ledger.append(_entry("identity_in_neighbourhood", "eq", 1 if s.contains_identity() else 0, 1))
    asym = sum(1 for x in s if group.inverse(x) not in s)
    ledger.append(_entry("neighbourhood_symmetric", "eq", asym, 0))

    a2 = product(a, a)
    quad = product(a2, inverse_set(a2))
    sk = power(s, k)
    violations = sum(1 for x in sk if x not in quad)
    ledger.append(_entry("power_containment", "eq", violations, 0))

    ledger.append(
        _entry(
            "neighbourhood_size_lower_bound",
            "ge",
            len(s),
            Fraction(len(aprime) ** 3, 2 * len(last.product) * len(a)),
        )
    )
    ledger.extend(_trace_entries(trace, len(a)))

    # independent re-derivation of the headline containment
    oracle_a2 = oracle_product(group, a, a)
    oracle_quad = set(oracle_product(group, oracle_a2, oracle_inverse(group, oracle_a2)))
    oracle_ok = all(x in oracle_quad for x in oracle_power(group, s.elements, k))

    verified = oracle_ok and all(e.holds for e in ledger)

    if instance is None:
        instance = {
            "group": group.describe(),
            "set": {"type": "explicit", "elements": elements_to_json(a.elements)},
        }

    return Certificate(
        instance=instance,
        k=k,
        epsilon=eps,
        a=a,
        aprime=aprime,
        s=s,
        s_threshold=last.threshold,
        trace=trace,
        ledger=tuple(ledger),
        verified=verified,
    )


@dataclass(frozen=True)
class AlmostInvariance:
    """A level l where left-multiplying S^lA by S barely grows it."""

    s: GSet
    l: int
    astar: GSet  # S^l A
    ratio: Fraction  # |S^{l+1}A| / |S^lA|, minimal over l < k
    chain_sizes: tuple[int, ...]  # |S^0 A| .. |S^k A|
    certificate: Certificate
    entries: tuple[LedgerEntry, ...]
    ok: bool

    def as_dict(self) -> dict:
        return {
            "l": self.l,
            "ratio": fraction_to_str(self.ratio),
            "chain_sizes": list(self.chain_sizes),
            "astar_size": len(self.astar),
            "s_size": len(self.s),
            "entries": [e.as_dict() for e in self.entries],
            "certificate_verified": self.certificate.verified,
            "ok": self.ok,
        }


def almost_invariant(a: GSet, k: int, instance: dict | None = None) -> AlmostInvariance:
    """Pigeonhole an almost-invariant level along the chain A, SA, ..., S^kA.

    S comes from ``stable_neighbourhood(a, k)``.  The returned l < k
    minimizes |S^{l+1}A| / |S^lA| (ties to the smallest l), and the minimal
    ratio is at most the geometric mean (|S^kA|/|A|)^{1/k}, checked
    exactly as ratio^k <= |S^kA|/|A|.  The chain stays inside A²A⁻²A,
    which is checked both directly and with oracle products.
    """
    cert = stable_neighbourhood(a, k, instance)
    s = cert.s
    group = a.group

    chain = [a]
    for _ in range(k):
        chain.append(product(s, chain[-1]))
    sizes = tuple(len(x) for x in chain)

    best_l = 0
    best = Fraction(sizes[1], sizes[0])
    for l in range(1, k):
        r = Fraction(sizes[l + 1], sizes[l])
        if r < best:
            best_l, best = l, r

    entries = [
        _entry("pigeonhole_power_bound", "le", best**k, Fraction(sizes[k], sizes[0])),
    ]

    a2 = product(a, a)
    quad_a = product(product(a2, inverse_set(a2)), a)
    violations = sum(1 for x in chain[k] if x not in quad_a)
    entries.append(_entry("chain_in_quad_product", "eq", violations, 0))

    # oracle replay of the chain and the containment
    ochain = tuple(sorted(a.elements))
    for _ in range(k):
        ochain = oracle_product(group, s.elements, ochain)
    oa2 = oracle_product(group, a, a)
    oquad_a = set(oracle_product(group, oracle_product(group, oa2, oracle_inverse(group, oa2)), a))
    oracle_ok = ochain == tuple(chain[k].elements) and all(x in oquad_a for x in ochain)

    ok = cert.verified and oracle_ok and all(e.holds for e in entries)
    return AlmostInvariance(
        s=s,
        l=best_l,
        astar=chain[best_l],
        ratio=best,
        chain_sizes=sizes,
        certificate=cert,
        entries=tuple(entries),
        ok=ok,
    )
