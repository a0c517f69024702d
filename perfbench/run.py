"""Time-to-verdict benchmark for partlogic.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads are enumerate, verify,
testspace and cli-cold (see README.md).  The run sets the workload up
SETUP_RUNS times in fresh processes and reports the median set-up time; the
last of those processes goes on to time the jobs.  The last line of output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where the
metrics are the end-to-end ones, or with --trace 1 the per-layer ones.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 3
RUN_TIMEOUT_S = 170
UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s.p50": "s", "job_s.p90": "s", "fail_ratio": "ratio", "peak_rss_mb": "MB"}
# The percentiles are printed but kept out of the JSON result: from run to
# run on a shared 2-core box their spread reaches a third of their value.
PRINTED_ONLY = ("job_s.p50", "job_s.p90")


def main():
    p = argparse.ArgumentParser(description="time-to-verdict benchmark for partlogic")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "partlogic" / "__init__.py").is_file():
        print("perfbench: no partlogic sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    setup = []
    for i in range(SETUP_RUNS):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if i == SETUP_RUNS - 1:
            cmd.append("--measure")
        start = time.monotonic()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                print("perfbench: worker ran past %d s" % RUN_TIMEOUT_S, file=sys.stderr)
                return 1
        lines = out.splitlines()
        if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
            print("perfbench: worker failed with exit code %d" % proc.returncode, file=sys.stderr)
            return 1
        setup.append(float(lines[0].split()[1]) - start)

    report = json.loads(lines[-1])
    for what, count in report["ledger"].items():
        print("ledger: %d x %s" % (count, what))
    for label in report["flagged"]:
        print("flagged (between half the limit and the limit): %s" % label)
    for line in report["unexplained"]:
        print("unexplained failure: %s" % line)
    metrics = report["metrics"]
    if args.trace:
        units = {name: unit for name, unit, _better in layers.per_layer_metrics()}
    else:
        metrics["setup_s"] = statistics.median(setup)
        units = UNITS
    for name in sorted(metrics):
        print("%-48s %14.6f %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": not report["unexplained"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items() if name not in PRINTED_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
