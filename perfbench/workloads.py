"""Seeded workload instances and certificate mutations for the benchmark.

A workload is a list of ``Instance`` rows, a pure function of the workload
name and the seed.  The program under test only ever sees the instance
files written from these specs.

Seed variation is chosen so that the work in one pass stays nearly the same
from seed to seed: intervals move their start, coset unions move their
representatives within one conjugacy pattern, Heisenberg balls apply an
automorphism to their generators, random cyclic sets average over several
instances, the S6 sets stay fixed, and each ``many-small`` slot fixes its
group, set kind, size and k.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from symgrowth.groups import group_from_spec
from symgrowth.instances import generate

#: mutation kinds for the reject path; the last three are the verifier
#: crashes of ROADMAP item 3 (ledger names it cannot parse or index, and an
#: ``S`` entry of the wrong width)
MUTATIONS = (
    "ledger_lhs",
    "s_element",
    "k",
    "drop_trace_step",
    "ledger_name_unparsable",
    "ledger_shrink_after_last",
    "s_wrong_width",
)


@dataclass(frozen=True)
class Instance:
    name: str
    spec: dict
    k: int
    mutation: str


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _shrink_scan(rng: random.Random) -> list[Instance]:
    # small doubling: the shrink_step candidate scan dominates run and verify
    out = []
    for i in range(2):
        n = 3000
        spec = {"group": {"type": "cyclic", "n": n}, "set": {"type": "interval", "start": rng.randrange(n), "length": 75}}
        out.append((f"interval{i}", spec))
    for i in range(2):
        # H = <r^5> has order 28; reps r^a and r^(a+1+5m) s give the
        # conjugacy pattern of (0,0),(1,1): the scan tries every level-set
        # candidate and finds no shrink witness
        n = 140
        a = rng.randrange(n)
        b = (a + 1 + 5 * rng.randrange(n // 5)) % n
        spec = {
            "group": {"type": "dihedral", "n": n},
            "set": {"type": "coset_union", "generators": [[5, 0]], "reps": [[a, 0], [b, 1]]},
        }
        out.append((f"coset{i}", spec))
    return [Instance(name, spec, 2, MUTATIONS[j % len(MUTATIONS)]) for j, (name, spec) in enumerate(out)]


def _quad_build(rng: random.Random) -> list[Instance]:
    # large doubling: building A^2 A^-2 (fast path and oracle) dominates
    out = []
    for i in range(3):
        spec = {"group": {"type": "cyclic", "n": 800}, "set": {"type": "random", "size": 30, "seed": rng.randrange(2**32)}}
        out.append((f"cyclic{i}", spec))
    for i in range(3):
        # fixed sets: conjugating an S6 set moves its first shrink witness
        # in the canonical scan order, which changes the work of run and
        # verify by up to a quarter
        spec = {"group": {"type": "symmetric", "n": 6}, "set": {"type": "random", "size": 10, "seed": i}}
        out.append((f"symmetric{i}", spec))
    p = 9
    units = [u for u in range(1, p) if math.gcd(u, p) == 1]
    for i in range(2):
        u, v = rng.choice(units), rng.choice(units)
        # (x, y, z) -> (ux, vy, uvz) is an automorphism, so every seed gives
        # an isomorphic ball
        spec = {
            "group": {"type": "heisenberg_mod", "p": p},
            "set": {"type": "ball", "generators": [[u, 0, 0], [0, v, 0], [p - u, 0, 0], [0, p - v, 0]], "radius": 2},
        }
        out.append((f"heisenberg{i}", spec))
    return [Instance(name, spec, 2, MUTATIONS[j % len(MUTATIONS)]) for j, (name, spec) in enumerate(out)]


def _table_spec(base_spec: dict, rng: random.Random) -> dict:
    """The multiplication table of a backend group, with seeded relabelling."""
    base = group_from_spec(base_spec)
    elems = [base.element_at(i) for i in range(base.order)]
    index = {x: i for i, x in enumerate(elems)}
    label = list(range(len(elems)))
    rng.shuffle(label)
    table = [[0] * len(elems) for _ in elems]
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            table[label[i]][label[j]] = label[index[base.multiply(x, y)]]
    return {"type": "table", "table": table, "identity": label[index[base.identity]]}


MANY_SMALL_COUNT = 96
_BACKENDS = ("cyclic", "dihedral", "symmetric", "heisenberg_mod", "direct_product", "table")
_SMALL_GROUPS = {
    "cyclic": [{"type": "cyclic", "n": n} for n in (24, 40, 60, 84, 100)],
    "dihedral": [{"type": "dihedral", "n": n} for n in (6, 10, 16, 25, 40, 50)],
    "symmetric": [{"type": "symmetric", "n": n} for n in (3, 4, 4, 5)],
    "heisenberg_mod": [{"type": "heisenberg_mod", "p": p} for p in (2, 3, 4)],
    "direct_product": [
        {"type": "direct_product", "factors": [{"type": "cyclic", "n": 2}, {"type": "dihedral", "n": 4}]},
        {"type": "direct_product", "factors": [{"type": "cyclic", "n": 3}, {"type": "symmetric", "n": 3}]},
        {"type": "direct_product", "factors": [{"type": "cyclic", "n": 5}, {"type": "cyclic", "n": 6}]},
        {"type": "direct_product", "factors": [{"type": "cyclic", "n": 4}, {"type": "dihedral", "n": 5}]},
    ],
    # bases whose multiplication tables are written out, relabelled per seed
    "table": [
        {"type": "dihedral", "n": 6},
        {"type": "symmetric", "n": 4},
        {"type": "heisenberg_mod", "p": 3},
        {"type": "cyclic", "n": 20},
        {"type": "dihedral", "n": 10},
    ],
}
_SET_KINDS = ("random", "ball", "coset_union", "subgroup", "perturbed_subgroup", "explicit")
_SIZES = (4, 7, 10, 13, 15)


def _small_set(group_spec: dict, kind: str, slot: int, rng: random.Random) -> dict:
    """A set of the given kind with at most 15 elements; the slot fixes its size."""
    group = group_from_spec(group_spec)
    size = min(_SIZES[slot % len(_SIZES)], group.order)

    def draw():
        return list(group.element_at(rng.randrange(group.order)))

    while True:
        if kind == "random":
            s = {"type": "random", "size": size, "seed": rng.randrange(2**32)}
        elif kind == "interval":
            s = {"type": "interval", "start": rng.randrange(group.order), "length": size}
        elif kind == "explicit":
            s = {"type": "explicit", "elements": [list(group.element_at(i)) for i in sorted(rng.sample(range(group.order), size))]}
        elif kind == "ball":
            s = {"type": "ball", "generators": [draw(), draw()], "radius": 1 + slot % 3}
        elif kind == "coset_union":
            s = {"type": "coset_union", "generators": [draw()], "reps": [draw(), draw()]}
        elif kind == "subgroup":
            s = {"type": "subgroup", "generators": [draw()]}
        else:
            s = {"type": "perturbed_subgroup", "generators": [draw()], "swaps": 1 + slot % 2, "seed": rng.randrange(2**32)}
        if len(generate({"group": group_spec, "set": s})) <= 15:
            return s


def _many_small(rng: random.Random) -> list[Instance]:
    # fixed per-call costs: group construction (the table axiom check runs on
    # every load), argparse, JSON I/O, and many tiny kernels.  Each slot fixes
    # the group, the set kind and size, and k; the seed draws the elements,
    # the table labels and which slot gets which mutation.
    muts = [MUTATIONS[i % len(MUTATIONS)] for i in range(MANY_SMALL_COUNT)]
    rng.shuffle(muts)
    out = []
    for i in range(MANY_SMALL_COUNT):
        backend = _BACKENDS[i % len(_BACKENDS)]
        slot = i // len(_BACKENDS)
        groups = _SMALL_GROUPS[backend]
        group_spec = groups[slot % len(groups)]
        if backend == "table":
            group_spec = _table_spec(group_spec, rng)
        kinds = _SET_KINDS + (("interval",) if backend == "cyclic" else ())
        spec = {"group": group_spec, "set": _small_set(group_spec, kinds[slot % len(kinds)], slot, rng)}
        out.append(Instance(f"{backend}{i}", spec, (1, 2, 3, 5)[slot % 4], muts[i]))
    return out


def build(workload: str, seed: int) -> list[Instance]:
    """The instances of ``workload`` for ``seed``."""
    rng = _rng(workload, seed)
    if workload == "shrink-scan":
        return _shrink_scan(rng)
    if workload == "quad-build":
        return _quad_build(rng)
    if workload == "many-small":
        return _many_small(rng)
    raise ValueError(f"unknown workload {workload!r}")


def write_instances(workload: str, seed: int, directory: Path) -> list[tuple[Instance, Path]]:
    """Build the workload and write one instance file per instance."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for inst in build(workload, seed):
        path = directory / f"{inst.name}.json"
        path.write_text(json.dumps(inst.spec, sort_keys=True))
        out.append((inst, path))
    return out


def mutate(cert: dict, kind: str, rng: random.Random) -> dict:
    """A copy of ``cert`` corrupted by one mutation of the given kind."""
    cert = copy.deepcopy(cert)
    ledger = cert["ledger"]
    steps = cert["trace"]["steps"]
    last = len(steps) - 1
    if kind == "ledger_lhs":
        entry = ledger[rng.randrange(len(ledger))]
        entry["lhs"] = entry["lhs"] + "1" if "/" in entry["lhs"] else str(int(entry["lhs"]) + 1)
    elif kind == "s_element":
        del cert["s"][rng.randrange(len(cert["s"]))]
    elif kind == "k":
        cert["k"] += 1
    elif kind == "drop_trace_step":
        del steps[rng.randrange(len(steps))]
    elif kind == "ledger_name_unparsable":
        entry = next(e for e in ledger if e["name"].startswith("step0."))
        entry["name"] = "stepX." + entry["name"].partition(".")[2]
    elif kind == "ledger_shrink_after_last":
        entry = next(e for e in ledger if e["name"] == f"step{last}.sym_size_lower")
        entry["name"] = f"step{last}.shrink_size_lower"
    elif kind == "s_wrong_width":
        cert["s"][rng.randrange(len(cert["s"]))].append(0)
    else:
        raise ValueError(f"unknown mutation kind {kind!r}")
    return cert
