"""Benchmark for oplebesgue: one closed-loop caller, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation in the timed loop; with ``--trace 1`` it reports the
per-layer metrics from the outside-in tracer, plus the tracer's own
overhead.  Every output is checked against the oracles in ``oracles.py``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout

checkout.pin_blas_threads()  # before numpy is first imported

import tracer  # noqa: E402
import workloads  # noqa: E402

PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_PROBES = 5
IMPORT_PROBES = 3
# op_tail_s is the percentile with at least this many samples beyond it.
TAIL_SAMPLES = 10


class Loop:
    """Whole rounds of operations, timed one by one, outputs checked after."""

    def __init__(self):
        self.times: list[float] = []
        self.ok_times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def run(self, ops, seconds, min_ops=1, tracer=None):
        """Run whole rounds until ``seconds`` of operation time and ``min_ops``.

        With a tracer installed, it records only inside operations.
        """
        while True:
            for op in ops:
                if tracer is not None:
                    tracer.op, tracer.active = self.attempted, True
                self.attempted += 1
                start = time.perf_counter()
                try:
                    out = op.call()
                except Exception as exc:  # an operation that fails is counted, not fatal
                    self.times.append(time.perf_counter() - start)
                    self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    if tracer is not None:
                        tracer.active = False
                elapsed = time.perf_counter() - start
                self.times.append(elapsed)
                self.ok_times.append(elapsed)
                self.problems.extend(f"{op.label}: {p}" for p in op.check(out))
            if sum(self.times) >= seconds and self.attempted >= min_ops:
                return self


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def min_ops_for(q):
    return math.ceil(TAIL_SAMPLES / (1.0 - q) - 1e-9)


def probe(workload, seed):
    """Launch a fresh set-up probe; returns its report plus the set-up time."""
    argv = [sys.executable, str(PROBE), "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=checkout.child_env(), cwd=checkout.ROOT)
    with proc.stdout:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.stdout.read()
    if proc.wait() != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    report = json.loads(line)
    report["setup_s"] = setup_s
    return report


def metric(value, unit):
    return {"value": value, "unit": unit}


def plain_run(wl, args):
    setup = statistics.median(probe(wl.name, args.seed)["setup_s"] for _ in range(SETUP_PROBES))
    wl.warm_up()
    loop = Loop().run(wl.round(), args.seconds, min_ops_for(wl.tail_q))
    rss = (statistics.median(wl.child_rss_kib) if wl.child_rss_kib
           else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    # Eigensolve work is counted on one in-process round, outside the timed loop.
    counting = Loop()
    ops = wl.inprocess_round()
    with tracer.Tracer() as tr:
        counting.run(ops, 0.0, tracer=tr)
    metrics = {
        "setup_s": metric(setup, "s"),
        "op_p50_s": metric(statistics.median(loop.ok_times), "s"),
        "op_tail_s": metric(percentile(loop.ok_times, wl.tail_q), "s"),
        "ops_per_s": metric(len(loop.ok_times) / sum(loop.times), "1/s"),
        "peak_rss_mb": metric(rss / 1024.0, "MB"),
        "eig_work_per_op": metric(tr.counts["eig_work"] / len(ops), "dim3"),
    }
    return metrics, [loop, counting]


def traced_run(wl, args):
    probes = [probe(wl.name, args.seed) for _ in range(IMPORT_PROBES)]
    ops = wl.inprocess_round()
    wl.warm_up()
    phase = args.seconds / 4.0
    untraced = Loop().run(ops, phase)
    with tracer.Tracer() as tr:
        traced = Loop().run(ops, phase, tracer=tr)
    missing = tr.missing(wl.layers)
    if missing:
        raise RuntimeError(f"{wl.name}: traced layers recorded no call: {', '.join(missing)}")
    checkout.OUT.mkdir(exist_ok=True)
    tr.write(checkout.OUT / f"spans-{wl.name}-{args.seed}.json")
    n = traced.attempted

    def per_op(layer):
        return tr.seconds[layer] / n

    def calls(layer):
        return tr.calls[layer] / n

    overhead = statistics.median(traced.ok_times) / statistics.median(untraced.ok_times) - 1.0
    metrics = {
        "startup.import_s": metric(statistics.median(p["import_s"] for p in probes), "s"),
        "startup.modules_loaded": metric(statistics.median(p["modules_loaded"] for p in probes),
                                         "count"),
        "cli.main_s": metric(per_op("cli.main"), "s"),
        "serialize.parse_s": metric(per_op("serialize.parse"), "s"),
        "serialize.render_s": metric(per_op("serialize.render"), "s"),
        "serialize.report_bytes": metric(tr.counts["report_bytes"] / n, "bytes"),
        "core.psd_init_calls": metric(calls(tracer.PSD_INIT), "count"),
        "core.psd_init_s": metric(per_op(tracer.PSD_INIT), "s"),
        "core.eigensolves": metric(calls(tracer.EIGENSOLVE), "count"),
        "core.eigensolve_s": metric(per_op(tracer.EIGENSOLVE), "s"),
        "core.eig_work": metric(tr.counts["eig_work"] / n, "dim3"),
        "core.max_eig_dim": metric(tr.maxima["max_eig_dim"], "dim"),
        "parallel.parallel_sum_calls": metric(calls("parallel.parallel_sum"), "count"),
        "parallel.parallel_sum_s": metric(per_op("parallel.parallel_sum"), "s"),
        "parallel.ando_s": metric(per_op("parallel.ando"), "s"),
        "parallel.ando_terms": metric(tr.counts["ando_terms"] / n, "count"),
        "lebesgue.direct_s": metric(per_op("lebesgue.direct"), "s"),
        "lebesgue.auxiliary_space_s": metric(per_op("lebesgue.auxiliary_space"), "s"),
        "lebesgue.iterate_s": metric(per_op("lebesgue.iterate"), "s"),
        "lebesgue.iterate_steps": metric(tr.counts["iterate_steps"] / n, "count"),
        "forms.form_decompose_s": metric(per_op("forms.form_decompose"), "s"),
        "forms.form_parallel_sum_s": metric(per_op("forms.form_parallel_sum"), "s"),
        "functionals.induced_form_s": metric(per_op("functionals.induced_form"), "s"),
        "functionals.from_form_s": metric(per_op("functionals.from_form"), "s"),
        "functionals.gns_s": metric(per_op("functionals.gns"), "s"),
        "functionals.gram_dim": metric(tr.maxima["gram_dim"], "dim"),
        "trace.overhead_pct": metric(100.0 * overhead, "%"),
    }
    return metrics, [untraced, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ol = checkout.load()
    except (checkout.PackageMissing, ImportError) as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    checkout.load(cls.import_module)
    wl = cls(ol, args.seed, checkout.OUT / f"{cls.name}-{args.seed}-{os.getpid()}")
    try:
        run = traced_run if args.trace else plain_run
        metrics, loops = run(wl, args)
    finally:
        wl.cleanup()
    # Every loop runs whole rounds and checks every output.
    attempted = sum(lp.attempted for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    problems = [p for lp in loops for p in lp.problems]
    print(f"# workload={wl.name} seed={args.seed} blas_threads={checkout.BLAS_THREADS} "
          f"nproc={os.cpu_count()} trace={args.trace}")
    for line in (failures + problems)[:20]:
        print(f"# {line}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
