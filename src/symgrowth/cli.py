"""Command-line front door.

Every subcommand is a thin wrapper over a library call: parse an instance
spec, run the analysis, emit canonical JSON (or CSV for sweeps).  Exit
codes: 0 success (and verified, where that applies), 1 completed but
verification failed, 2 invalid input, 3 pair budget exceeded.  Errors are
written to stderr as one-line JSON objects.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import fields

from .budget import set_pair_budget
from .errors import CertificateFormatError, InvariantViolation, PairBudgetError, SymGrowthError
from .growth import _prefixed, almost_invariant, shrink_step, stable_neighbourhood, trace_row
from .gset import DoublingStats, doubling_stats
from .instances import family_sweep, generate, sweep_from_spec
from .oracle import verify_certificate
from .serialize import (
    atomic_write_text,
    canonical_dumps,
    elements_to_json,
    fraction_to_str,
    load_json,
    parse_fraction,
)
from .symmetry import sym_set

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": "usage", "message": message}), file=sys.stderr)
        raise SystemExit(2)


def _emit(text: str, out: str | None) -> None:
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, out: str | None) -> None:
    _emit(canonical_dumps(payload), out)


def _step_logger(enabled: bool):
    if not enabled:
        return None

    def hook(index, outcome):
        print(json.dumps(trace_row(index, outcome), sort_keys=True), file=sys.stderr)

    return hook


def cmd_stats(args) -> int:
    spec = load_json(args.instance, "instance")
    stats = doubling_stats(generate(spec))
    _emit_json({"instance": spec, "stats": stats.as_dict()}, args.out)
    return 0


def cmd_sym(args) -> int:
    spec = load_json(args.instance, "instance")
    eta = parse_fraction(args.eta, "--eta")
    a = generate(spec)
    members = sym_set(a, eta)
    payload = {
        "instance": spec,
        "eta": eta,
        "base_size": len(a),
        "members": elements_to_json(members.elements),
        "size": len(members),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_lemma(args) -> int:
    spec = load_json(args.instance, "instance")
    eps = parse_fraction(args.epsilon, "--epsilon")
    a = generate(spec)
    out = shrink_step(a, a, eps)
    payload = {
        "instance": spec,
        "epsilon": eps,
        "case": out.case,
        "aprime_size": len(out.aprime),
        "product_size": len(out.product),
        "tau": out.tau,
        "level_set_size": len(out.level_set),
        "entries": [_prefixed("step0", e).as_dict() for e in out.entries],
    }
    if out.case == "shrink":
        payload["t"] = list(out.t)
        payload["shrunk_size"] = len(out.shrunk)
        payload["shrunk_product_size"] = out.shrunk_product_size
    else:
        payload["threshold"] = out.threshold
        payload["sym_size"] = len(out.sym)
        payload["sym_members"] = elements_to_json(out.sym.elements)
    _emit_json(payload, args.out)
    return 0


def cmd_run(args) -> int:
    spec = load_json(args.instance, "instance")
    cert = stable_neighbourhood(generate(spec), args.k, instance=spec, step_hook=_step_logger(args.trace))
    _emit_json(cert.to_json_dict(), args.out)
    return 0 if cert.verified else 1


def cmd_invariant(args) -> int:
    spec = load_json(args.instance, "instance")
    result = almost_invariant(generate(spec), args.k, instance=spec)
    _emit_json({"instance": spec, **result.as_dict()}, args.out)
    return 0 if result.ok else 1


def cmd_sweep(args) -> int:
    base, grid = sweep_from_spec(load_json(args.instance, "sweep spec"))
    rows = family_sweep(base, grid)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(grid) + [f.name for f in fields(DoublingStats)])
    for _, values, stats in rows:
        cells = [v if isinstance(v, (int, str)) else json.dumps(v) for v in values]
        cells += [fraction_to_str(v) for v in stats.as_dict().values()]
        writer.writerow(cells)
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_verify(args) -> int:
    cert = load_json(args.certificate, "certificate", CertificateFormatError)
    spec = load_json(args.instance, "instance")
    report = verify_certificate(cert, generate(spec).elements, instance=spec)
    _emit_json(report.as_dict(), args.out)
    return 0 if report.overall else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser: built on the first ``main`` call, then reused."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--instance", required=True, help="instance spec JSON file")
    shared.add_argument("--out", help="write output here (atomically) instead of stdout")
    shared.add_argument("--budget-pairs", type=int, help="cap the pairs any single call may charge (default 10^8)")
    shared.add_argument("--trace", action="store_true",
                        help="only run prints with it: each shrink step, as a JSON line on stderr")
    parser = _Parser(
        prog="symgrowth",
        description="Exact growth analysis of finite sets in groups, with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary, parents=[shared])
        p.set_defaults(handler=handler)
        return p

    power_k = {"required": True, "type": int, "help": "power parameter k >= 1"}
    command("stats", cmd_stats, "exact sizes and doubling of the instance set")
    command("sym", cmd_sym, "symmetry set of the instance set at a threshold").add_argument(
        "--eta", required=True, help="threshold in (0,1] as an exact fraction, e.g. 4/5")
    command("lemma", cmd_lemma, "one shrink step on A' = A").add_argument(
        "--epsilon", required=True, help="slack in (0,1] as an exact fraction")
    command("run", cmd_run, "full driver: emit a certificate for S with S^k in A^2A^-2").add_argument(
        "--k", **power_k)
    command("invariant", cmd_invariant, "almost-invariant level along A, SA, ..., S^kA").add_argument(
        "--k", **power_k)
    command("sweep", cmd_sweep, "doubling stats over a parameter grid, as CSV")
    command("verify", cmd_verify, "independently recheck a certificate against an instance").add_argument(
        "--certificate", required=True, help="certificate JSON file")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.budget_pairs is not None:
            set_pair_budget(args.budget_pairs)
        return args.handler(args)
    except PairBudgetError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    except InvariantViolation:
        raise  # an inequality the construction proves failed: that is a bug
    except (SymGrowthError, RecursionError) as exc:  # an input nested too deeply to read or write
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    finally:
        set_pair_budget(None)


if __name__ == "__main__":
    sys.exit(main())
