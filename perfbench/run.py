#!/usr/bin/env python3
"""End-to-end benchmark of the symgrowth command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload shrink-scan --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # every workload

One process runs one workload as a closed loop with a single caller: for
every instance it calls ``cli.main`` in-process for ``stats``, ``run --k``,
``verify`` on the certificate, and ``verify`` on one mutated certificate
(the reject path), each call starting after the previous one returned.
After one warm-up pass, passes over the instance list repeat until
``--seconds`` have elapsed.  Each op's wall time is scaled to a reference
host speed (see ``reference.py``); each reported time is, for one op
kind, the sum over instances of the median over passes of that op's scaled
time.  ``--workload all`` runs each workload in its own fresh interpreter and
exits non-zero if any output check failed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics from a traced run (see
``tracer.py``); the names, units and their meaning are in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

#: the seed whose outputs are pinned in digests.json
DEFAULT_SEED = 0
SETUP_SAMPLES = 7
SETUP_KERNEL_REPEATS = 7
MICROBENCH_PAIRS = 2000
MICROBENCH_REPEATS = 7
WORKLOADS = ("shrink-scan", "quad-build", "many-small")
BACKENDS = ("cyclic", "dihedral", "symmetric", "heisenberg_mod", "direct_product", "table")
OPS = ("stats", "run", "verify", "reject")
END_TO_END_UNITS = {
    "setup_s": "s",
    "stats_s": "s",
    "run_s": "s",
    "verify_s": "s",
    "reject_s": "s",
    "peak_rss_mb": "MiB",
}

# a fresh interpreter's set-up: import the package, then build and write
# the workload's instance files; then print the host's current speed
_SETUP_CHILD = """\
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import symgrowth.cli
import workloads
workloads.write_instances(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))
from reference import reference_s
print(reference_s(int(sys.argv[6])))
"""


def op_seconds(passes: list[dict[tuple[str, str], float]]) -> dict[str, float]:
    """Per op kind, the sum over instances of the median over passes of the op's time."""
    out = dict.fromkeys(OPS, 0.0)
    for key in {key for p in passes for key in p}:
        out[key[0]] += statistics.median(p[key] for p in passes if key in p)
    return out


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs passes over one workload's instances and checks every output."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from symgrowth import cli
        import workloads

        self.cli = cli
        self.workdir = workdir
        self.items = workloads.write_instances(workload, seed, workdir / "instances")
        self.mutate = workloads.mutate
        pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        entry = pinned.get(workload, {})
        self.pinned = entry.get("outputs", {}) if entry.get("seed") == seed else {}
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.crashed: dict[str, str] = {}
        self.tracer = None
        self.op_walls: dict[int, tuple[str, float]] = {}
        self.times: dict[tuple[str, str], float] = {}

    def _call(self, kind: str, name: str, argv: list[str]):
        """One timed in-process CLI call: (exit code or exception, stderr).

        Records the call's scaled seconds under (kind, name) in ``times``.
        """
        op_id = len(self.op_walls)
        if self.tracer is not None:
            self.tracer.op = op_id
        err = io.StringIO()
        before = reference_s()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                outcome = self.cli.main(argv)
            except Exception as exc:  # a crash is an outcome to record, not to stop on
                outcome = exc
            wall = time.perf_counter() - start
        after = reference_s()
        self.op_walls[op_id] = (kind, wall)
        self.times[(kind, name)] = wall * REFERENCE_S / ((before + after) / 2)
        self.attempted += 1
        return outcome, err.getvalue()

    def _check_output(self, key: str, path: Path) -> None:
        digest = _sha(path)
        if key in self.pinned and self.pinned[key] != digest:
            self.failures.append(f"{key}: output differs from the pinned digest")
        elif self.seen.setdefault(key, digest) != digest:
            self.failures.append(f"{key}: output differs from an earlier pass")

    def _fail(self, key: str, outcome, stderr: str) -> None:
        what = f"raised {type(outcome).__name__}: {outcome}" if isinstance(outcome, Exception) else f"exit {outcome}"
        self.failures.append(f"{key}: {what} {stderr.strip()[:200]}")

    def run_pass(self) -> dict[tuple[str, str], float]:
        """One pass over every instance; scaled seconds per (op kind, instance)."""
        self.times = {}
        out = self.workdir / "out"
        out.mkdir(exist_ok=True)
        for inst, path in self.items:
            name = inst.name
            stats, cert, report, mutant, rejected = (out / f"{name}.{s}.json" for s in ("stats", "cert", "verify", "mutant", "reject"))
            for f in (stats, cert, report, rejected):
                f.unlink(missing_ok=True)

            rc, err = self._call("stats", name, ["stats", "--instance", str(path), "--out", str(stats)])
            if rc == 0:
                self._check_output(f"{name}/stats", stats)
            else:
                self._fail(f"{name}/stats", rc, err)

            rc, err = self._call("run", name, ["run", "--instance", str(path), "--k", str(inst.k), "--out", str(cert)])
            cert_json = json.loads(cert.read_text()) if rc == 0 else None
            if rc == 0 and cert_json.get("verified") is True:
                self._check_output(f"{name}/cert", cert)
            else:
                self._fail(f"{name}/run", rc, err)

            rc, err = self._call("verify", name, ["verify", "--instance", str(path), "--certificate", str(cert), "--out", str(report)])
            if rc == 0 and json.loads(report.read_text()).get("overall") is True:
                self._check_output(f"{name}/verify", report)
            else:
                self._fail(f"{name}/verify", rc, err)

            if cert_json is None:
                self.attempted += 1
                self.failures.append(f"{name}/reject: no certificate to mutate")
                continue
            rng = random.Random(f"{name}:{inst.mutation}")
            mutant.write_text(json.dumps(self.mutate(cert_json, inst.mutation, rng)))
            rc, err = self._call("reject", name, ["verify", "--instance", str(path), "--certificate", str(mutant), "--out", str(rejected)])
            key = f"{name}/reject.{inst.mutation}"
            if isinstance(rc, Exception):
                # the verifier crashed on a corrupted certificate: a known
                # defect, recorded apart from the output checks
                self.crashed[key] = type(rc).__name__
                outcome = f"crash:{type(rc).__name__}"
            elif rc == 1:
                outcome = f"exit1:{_sha(rejected)}"
            elif rc == 2 and _one_line_json_error(err):
                outcome = f"exit2:{err.strip()}"
            else:
                self._fail(key, rc, err)
                continue
            if self.seen.setdefault(key, outcome) != outcome:
                self.failures.append(f"{key}: outcome differs from an earlier pass")
        return self.times

    def passes(self, seconds: float) -> list[dict[tuple[str, str], float]]:
        """Repeat passes until ``seconds`` have elapsed (at least one)."""
        out = []
        start = time.perf_counter()
        while not out or time.perf_counter() - start < seconds:
            out.append(self.run_pass())
        return out


def _one_line_json_error(stderr: str) -> bool:
    lines = stderr.strip().splitlines()
    if len(lines) != 1:
        return False
    try:
        return "error" in json.loads(lines[0])
    except (json.JSONDecodeError, TypeError):
        return False


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median wall time of fresh interpreters doing the workload's set-up.

    Each sample is scaled by the reference kernel's time in its interpreter,
    measured after the set-up.
    """
    samples = []
    for i in range(SETUP_SAMPLES):
        target = workdir / f"setup{i}"
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE), workload, str(seed), str(target),
             str(SETUP_KERNEL_REPEATS)],
            check=True, stdout=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - start
        samples.append(wall * REFERENCE_S / float(child.stdout))
        shutil.rmtree(target)
    return statistics.median(samples)


def multiply_ns(workload: str, seed: int) -> dict[str, float]:
    """Per-op ns of ``multiply`` alone, per backend, on pairs from the workload's sets.

    A backend the workload does not use is measured on the ``many-small``
    sets of the same seed, which cover every backend.
    """
    from symgrowth.instances import generate
    import workloads

    sets: dict[str, list] = {}
    for source in (workload, "many-small"):
        if all(b in sets for b in BACKENDS):
            break
        found: dict[str, list] = {}
        for inst in workloads.build(source, seed):
            a = generate(inst.spec)
            if a.group.kind not in sets:
                found.setdefault(a.group.kind, []).append(a)
        sets.update(found)
    rng = random.Random(f"multiply:{workload}:{seed}")
    out = {}
    for backend in BACKENDS:
        pairs = []
        for _ in range(MICROBENCH_PAIRS):
            a = rng.choice(sets[backend])
            pairs.append((a.group.multiply, rng.choice(a.elements), rng.choice(a.elements)))
        times = []
        for repeat in range(MICROBENCH_REPEATS + 1):
            start = time.perf_counter_ns()
            for mul, x, y in pairs:
                mul(x, y)
            if repeat:  # the first repeat only warms up
                times.append((time.perf_counter_ns() - start) / len(pairs))
        out[f"groups.multiply.ns.{backend}"] = statistics.median(times)
    return out


def run_untraced(args, workdir: Path) -> tuple[dict, Runner]:
    setup_s = measure_setup(args.workload, args.seed, workdir)
    runner = Runner(args.workload, args.seed, workdir)
    runner.run_pass()  # warm-up: fills the program's in-process caches
    passes = runner.passes(args.seconds)
    metrics = {f"{op}_s": seconds for op, seconds in op_seconds(passes).items()}
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {name: {"value": metrics[name], "unit": END_TO_END_UNITS[name]} for name in END_TO_END_UNITS}, runner


def run_traced(args, workdir: Path) -> tuple[dict, Runner]:
    """A warm-up pass, untraced passes for half the time, then traced passes for the rest."""
    from tracer import Tracer, layer_metrics, write_spans

    micro = multiply_ns(args.workload, args.seed)
    runner = Runner(args.workload, args.seed, workdir)
    runner.run_pass()
    untraced = runner.passes(args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    traced, per_pass, recorded = [], [], []
    start = time.perf_counter()
    try:
        while not traced or time.perf_counter() - start < args.seconds / 2:
            runner.op_walls.clear()
            traced.append(runner.run_pass())
            spans = tracer.take()
            recorded.append(spans)
            per_pass.append(layer_metrics(spans, runner.op_walls))
    finally:
        tracer.uninstall()
        runner.tracer = None
    write_spans(WORK / f"spans-{args.workload}-{args.seed}.jsonl", recorded)

    metrics = dict(micro)
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                runner.failures.append(f"trace: count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["oracle.reject.crashes"] = len(runner.crashed)
    metrics["trace.overhead_frac"] = (
        sum(op_seconds(traced).values()) / sum(op_seconds(untraced).values()) - 1
    )
    return {name: {"value": value, "unit": _layer_unit(name)} for name, value in sorted(metrics.items())}, runner


def _layer_unit(name: str) -> str:
    if ".ns." in name:
        return "ns"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("share", "ratio", "frac")):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in its own interpreter; a summary line per metric."""
    code = 0
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            results[workload] = json.loads(lines[-1])
        except json.JSONDecodeError:
            results[workload] = None
        code = code or proc.returncode or (0 if results[workload] else 1)
    print(json.dumps(results, sort_keys=True))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symgrowth" / "__init__.py").is_file():
        print(f"symgrowth sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        metrics, runner = (run_traced if args.trace else run_untraced)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed {len(runner.failures)}/{runner.attempted} ops")
    for line in runner.failures[:20]:
        print(f"  FAIL {line}")
    print(f"{args.workload} verifier crashes on mutated certificates {len(runner.crashed)}/{len(runner.items)}"
          " (known defect, reported apart from failed ops)")
    for kind in sorted({inst.mutation for inst, _ in runner.items}):
        tried = sum(1 for inst, _ in runner.items if inst.mutation == kind)
        hit = sorted({exc for key, exc in runner.crashed.items() if key.endswith("." + kind)})
        crashed = sum(1 for key in runner.crashed if key.endswith("." + kind))
        print(f"  {kind}: {crashed}/{tried} crashed {' '.join(hit)}")
    correct = not runner.failures
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": len(runner.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
