"""The iterative shrinking construction and its certificates.

Given a nonempty finite A in a group, one *shrink step* on a subset A' of A
either finds t with a markedly smaller |(A' ∩ tA')A|, or certifies that the
symmetry set of A'A at threshold 1-eps is large.  Iterating from A' = A
terminates quickly, and running the iteration with eps = 1/(k+1) yields a
symmetric neighbourhood S of the identity with S^k contained in A^2 A^-2.

Every run carries an inequality ledger whose left- and right-hand sides are
exact rationals, and the driver checks the headline containment, on the
same ``gset`` kernels that built the run, before marking a certificate
verified; ``oracle.verify_certificate`` rechecks it independently.
Certificates serialize to canonical JSON (see ``serialize``) so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import InvariantViolation, ParameterError
from .groups import Element
from .gset import GSet, inverse_set, level_set, outside, product, row_product
from .oracle import CERTIFICATE_FORMAT, oracle_product, termination_cap
from .serialize import elements_to_json, fraction_to_str
from .symmetry import check_eta, sym_set

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


#: the comparison each ledger relation names
_RELATIONS = {"ge": operator.ge, "le": operator.le, "eq": operator.eq}


def _entry(name: str, relation: str, lhs, rhs) -> LedgerEntry:
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    return LedgerEntry(name, relation, lhs, rhs, _RELATIONS[relation](lhs, rhs))


def _prefixed(prefix: str, entry: LedgerEntry) -> LedgerEntry:
    return LedgerEntry(f"{prefix}.{entry.name}", entry.relation, entry.lhs, entry.rhs, entry.holds)


@dataclass(frozen=True)
class StepOutcome:
    """Result of one shrink step: exactly one of the two cases.

    case "shrink": ``t`` witnesses the shrink, ``shrunk`` is A' ∩ tA' and
    ``shrunk_product_size`` the size of its product with A.  case
    "terminate": ``sym`` is the symmetry set of A'A at ``threshold`` and
    contains the whole level set.  ``entries`` holds the step's proven
    inequalities with unprefixed names; callers add a step index when
    assembling a ledger.
    """

    case: str
    aprime: GSet
    product: GSet
    tau: Fraction
    level_set: GSet
    entries: tuple[LedgerEntry, ...]
    t: Element | None = None
    shrunk: GSet | None = None
    shrunk_product_size: int | None = None
    sym: GSet | None = None
    threshold: Fraction | None = None


def trace_row(index: int, out: StepOutcome) -> dict:
    """The certificate's trace row for step ``index`` (sizes only)."""
    row = {
        "index": index,
        "aprime_size": len(out.aprime),
        "product_size": len(out.product),
        "tau": fraction_to_str(out.tau),
        "level_set_size": len(out.level_set),
        "action": out.case,
    }
    if out.case == "shrink":
        row["t"] = list(out.t)
    return row


@dataclass(frozen=True)
class IterationTrace:
    steps: tuple[StepOutcome, ...]
    epsilon: Fraction
    doubling: Fraction  # K0 = |AA| / |A|
    termination_cap: int

    @property
    def i0(self) -> int:
        """Index of the terminating step."""
        return len(self.steps) - 1

    def as_dict(self) -> dict:
        return {
            "steps": [trace_row(i, s) for i, s in enumerate(self.steps)],
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


def shrink_step(aprime: GSet, a: GSet, eps) -> StepOutcome:
    """One dichotomy step on A' ⊆ A.

    Computes the level set L of translates t with |A' ∩ tA'| >= tau where
    tau = |A'|^4 / (2 |A'A| |A|^2), then scans L in canonical encoding
    order for the first t with |(A' ∩ tA')A| <= (1-eps)|A'A|.  Found:
    case "shrink".  Not found: case "terminate", and the symmetry set of
    A'A at threshold 1-eps (clamped to 1/|A'A| when eps = 1) contains L.

    L and each scanned A' ∩ tA' come from ``level_set(aprime, tau)``, and
    the scan sizes (A' ∩ tA')A as the OR of the ``row_product`` rows of its
    members, so a step is charged |A'||A| + |A'|^2 pairs, plus |A'A|^2 for
    the symmetry set when it terminates.  The t are scanned in canonical
    order, but each candidate's members come from both ends of it, highest
    first, then lowest, and so on: in a set of small doubling the rows of
    the two extreme members overlap least.  The OR only grows, so the scan
    drops a candidate at the first row that takes it past
    floor((1-eps)|A'A|); a witness never passes that limit and is OR-ed in
    full, and ``shrunk`` is built from the members it OR-ed.  So the order
    changes no witness.  In cyclic, dihedral and Heisenberg groups these may
    run on masks (see ``gset``), and then a candidate decodes only the
    members the scan reaches.

    The step's inequalities hold unconditionally; if any fails the step
    raises InvariantViolation, since that means the computation is broken.
    """
    aprime.same_group(a)
    aprime.require_nonempty("shrink step input A'")
    a.require_nonempty("shrink step input A")
    if not aprime.subset_of(a):
        raise ParameterError("shrink step needs A' to be a subset of A")
    eps = check_eta(eps)

    g = aprime.group
    p, row = row_product(aprime, a)
    np_, na, nap = len(p), len(a), len(aprime)
    tau = Fraction(nap**4, 2 * np_ * na**2)

    level, overlap = level_set(aprime, tau)

    entries = [_entry("level_set_lower", "ge", len(level), Fraction(nap**3, 2 * np_ * na))]
    if not entries[0].holds:
        raise InvariantViolation("level set undercut its counting bound")

    # (A' ∩ tA')A is the union of the rows of the members of A' ∩ tA'; a union
    # only grows, so a candidate is dropped once it holds more than ``most``
    limit = (1 - eps) * np_
    most = math.floor(limit)
    for t in level.forms:
        cover = 0
        taken = []
        for u in overlap(t):
            cover |= row(u)
            if cover.bit_count() > most:
                break
            taken.append(u)
        else:
            # a witness ORs every member, so ``taken`` is the whole of A' ∩ tA'
            shrunk_product_size = cover.bit_count()
            shrunk = GSet._trusted(g, sorted(taken))
            entries.append(_entry("shrink_size_lower", "ge", len(shrunk), tau))
            entries.append(_entry("shrink_product_upper", "le", shrunk_product_size, limit))
            if not all(e.holds for e in entries):
                raise InvariantViolation("shrink case inequalities failed")
            return StepOutcome(
                case="shrink",
                aprime=aprime,
                product=p,
                tau=tau,
                level_set=level,
                entries=tuple(entries),
                t=g.from_form(t),
                shrunk=shrunk,
                shrunk_product_size=shrunk_product_size,
            )

    threshold = (1 - eps) if eps < 1 else Fraction(1, np_)
    sym = sym_set(p, threshold)
    entries.append(_entry("sym_size_lower", "ge", len(sym), len(level)))
    outside = len(set(level.forms).difference(sym.forms))
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


StepHook = Callable[[int, StepOutcome], None]


def iterate_shrink(a: GSet, eps, step_hook: StepHook | None = None) -> IterationTrace:
    """Iterate shrink steps from A' = A until termination.

    Returns the trace whose ``steps`` are the step outcomes, in order.
    The last outcome terminates: its ``aprime`` is the terminal A' and its
    ``sym`` the symmetry set of A'A at threshold 1-eps, at least as large
    as the final level set.  ``step_hook(index, outcome)`` is called after
    each step.
    """
    a.require_nonempty("iteration input")
    eps = check_eta(eps)
    outcomes: list[StepOutcome] = []
    cur = a
    cap = None
    while True:
        out = shrink_step(cur, a, eps)
        if step_hook is not None:
            step_hook(len(outcomes), out)
        outcomes.append(out)
        if cap is None:
            k0 = Fraction(len(out.product), len(a))
            cap = termination_cap(k0, eps)
        if out.case == "terminate":
            break
        if len(outcomes) > cap:
            # a shrink past the cap would contradict |A'A| >= |A|
            raise InvariantViolation("iteration ran past its termination cap")
        cur = out.shrunk
    return IterationTrace(steps=tuple(outcomes), epsilon=eps, doubling=k0, termination_cap=cap)


def _trace_entries(trace: IterationTrace, a_size: int) -> list[LedgerEntry]:
    eps, k0 = trace.epsilon, trace.doubling
    entries = []
    for i, step in enumerate(trace.steps):
        entries.append(
            _entry(
                f"trace{i}.product_growth_bound",
                "le",
                len(step.product),
                (1 - eps) ** i * k0 * a_size,
            )
        )
        exponent = (4**i - 1) // 3
        entries.append(
            _entry(
                f"trace{i}.size_lower_bound",
                "ge",
                len(step.aprime),
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
    containment, which is checked here before the certificate is marked
    verified.  A² is step 0's product A'A, S^k is built by ``product``
    until a power stops growing, and the ``power_containment`` entry counts
    the members x of S^k outside A²A⁻² with ``outside``, which tests
    whether xA² meets A², so A²A⁻² itself is never built.  A failed check
    yields verified=False rather than an exception.
    """
    a.require_nonempty("driver input")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ParameterError(f"power parameter k must be a positive integer, got {k!r}")
    eps = Fraction(1, k + 1)
    group = a.group

    trace = iterate_shrink(a, eps, step_hook)
    last = trace.steps[-1]
    aprime, s = last.aprime, last.sym

    ledger: list[LedgerEntry] = []
    for i, out in enumerate(trace.steps):
        ledger.extend(_prefixed(f"step{i}", e) for e in out.entries)

    ledger.append(_entry("identity_in_neighbourhood", "eq", 1 if s.contains_identity() else 0, 1))
    # inversion is one to one, so |S⁻¹ \ S| counts the members whose inverse is not in S
    asym = len(set(map(group.form_inverse, s.forms)).difference(s.forms))
    ledger.append(_entry("neighbourhood_symmetric", "eq", asym, 0))

    # S holds the identity, so S^j ⊆ S^(j+1): once a power stops growing it is S^k
    power = s
    for _ in range(k - 1):
        nxt = product(power, s)
        if len(nxt) == len(power):
            break
        power = nxt
    a2 = trace.steps[0].product  # step 0 is on A' = A
    ledger.append(_entry("power_containment", "eq", outside(power, a2, a2), 0))

    ledger.append(
        _entry(
            "neighbourhood_size_lower_bound",
            "ge",
            len(s),
            Fraction(len(aprime) ** 3, 2 * len(last.product) * len(a)),
        )
    )
    ledger.extend(_trace_entries(trace, len(a)))

    verified = all(e.holds for e in ledger)

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
    checked member by member with ``outside`` against A², which is the
    certificate's step 0 product, and A⁻¹A²; the chain's last set is also
    replayed with oracle products and must match.
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

    # x ∈ A²A⁻²A iff xw ∈ A² for some w ∈ A⁻¹A²
    a2 = cert.trace.steps[0].product
    violations = outside(chain[k], a2, product(inverse_set(a), a2))
    entries.append(_entry("chain_in_quad_product", "eq", violations, 0))

    # oracle replay of the chain
    ochain = a.elements
    for _ in range(k):
        ochain = oracle_product(group, s.elements, ochain)

    ok = cert.verified and ochain == chain[k].elements and all(e.holds for e in entries)
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
