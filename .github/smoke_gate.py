"""Smoke gate on one traced benchmark run.

Reads the JSON report that ``perfbench/run.py`` prints last, prints the
workload's measured work counts, and exits 1 unless the run is correct with
no failed operation and every count meets its pin:

    python3 perfbench/run.py --workload W --seed 11 --seconds 2 --trace 1 \\
        | tail -n 1 | python3 .github/smoke_gate.py W

The reasons for the pins are given where the gate runs, in
``.github/workflows/tests.yml``.
"""

import json
import sys

EXACTLY, AT_MOST = "exactly", "at most"

# per op at seed 11, traced: metric -> (comparison, pin)
PINS = {
    "cli-small": {
        "core.eigensolves": (EXACTLY, 182 / 12),
        "core.eig_work": (AT_MOST, 943.5),
        "core.psd_init_calls": (EXACTLY, 32 / 12),
    },
    "operator-crosscheck": {
        "core.eigensolves": (EXACTLY, 11),
        "core.eig_work": (AT_MOST, 1138176),
        "core.psd_init_calls": (EXACTLY, 2),
        "parallel.ando_terms": (AT_MOST, 8),
    },
    "functional-blocks": {
        "core.eigensolves": (EXACTLY, 27),
        "core.eig_work": (AT_MOST, 10047),
        "core.psd_init_calls": (EXACTLY, 6),
        "core.max_eig_dim": (AT_MOST, 8),
    },
}

SHOWN = ("core.max_eig_dim", "core.eig_work", "core.eigensolves", "core.psd_init_calls",
         "parallel.ando_terms")


def main() -> int:
    workload = sys.argv[1]
    report = json.load(sys.stdin)
    metrics = {name: entry["value"] for name, entry in report["metrics"].items()}
    print(workload, "correct:", report["correct"], "failed:", report["failed"],
          *(f"{name}: {metrics[name]}" for name in SHOWN))
    missed = [f"{name} {metrics[name]} is not {how} {pin}"
              for name, (how, pin) in PINS[workload].items()
              if (metrics[name] != pin if how == EXACTLY else metrics[name] > pin)]
    for line in missed:
        print("  pin missed:", line)
    return int(report["correct"] is not True or report["failed"] != 0 or bool(missed))


if __name__ == "__main__":
    sys.exit(main())
