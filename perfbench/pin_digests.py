#!/usr/bin/env python3
"""Rewrite digests.json from one pass of every workload at the default seed.

digests.json pins the sha256 of every ``stats`` output, certificate and
``verify`` report at ``run.DEFAULT_SEED``; ``run.py`` counts an output that
differs as a failed op.  Rerun this, from the repository root, only when the
program's outputs are meant to change::

    python3 perfbench/pin_digests.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    pinned = {}
    for workload in run.WORKLOADS:
        workdir = run.WORK / f"pin-{workload}-{os.getpid()}"
        try:
            runner = run.Runner(workload, run.DEFAULT_SEED, workdir)
            runner.pinned = {}
            runner.run_pass()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        outputs = {key: digest for key, digest in runner.seen.items() if "/reject." not in key}
        pinned[workload] = {"seed": run.DEFAULT_SEED, "outputs": dict(sorted(outputs.items()))}
    run.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
