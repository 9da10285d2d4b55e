"""One fresh-process set-up of a workload, timed by the process that starts it.

Does what a benchmark run does before its first timed operation: import
the package, generate the workload's inputs and warm up with one
operation.  It then prints one JSON line with its own time for
``import oplebesgue`` and the number of modules that import loaded, and
exits.  The parent measures
set-up time from launching this process to reading that line.

    python3 perfbench/probe.py --workload NAME --seed N
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import checkout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    checkout.pin_blas_threads()
    before = len(sys.modules)
    start = time.perf_counter()
    try:
        ol = checkout.load()
    except (checkout.PackageMissing, ImportError) as exc:
        print(f"probe: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    modules = len(sys.modules) - before
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    checkout.load(cls.import_module)
    workdir = checkout.OUT / f"probe-{os.getpid()}"
    wl = cls(ol, args.seed, workdir)
    try:
        wl.warm_up()
        print(json.dumps({"import_s": import_s, "modules_loaded": modules}), flush=True)
    finally:
        wl.cleanup()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
