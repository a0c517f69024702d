"""One benchmark process: set up a workload, run its jobs, check and report.

run.py starts this script several times per run.  Every start sets up the
workload (imports, instance generation, one warm-up job per command) and
prints "ready <monotonic time>" just before the first timed job would start;
only the start given --measure goes on to time jobs.

Load is a closed loop with one client: one job at a time, in this process
(or, for cli-cold, in one CLI subprocess at a time).  A run measures whole
passes over the seeded job list until --seconds have gone by, so every run
attempts each job equally often.  Each job has a time limit; a job that
reaches it is abandoned and counts as failed.  Results are checked against
the answer key outside the timed region.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import answers  # noqa: E402
import jobs as commands  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from partlogic.errors import LogicError  # noqa: E402

LIMIT_S = 5.0
REMEASURE_UNDER_S = 0.5
REMEASURE_TOTAL_S = 0.05
REMEASURE_MAX_RUNS = 8
CLI_PROBES = 5
OUT_DIR = HERE / "out"


class JobTimeout(BaseException):
    """Raised by the timer inside a job that reached the limit.

    A BaseException, so no handler in the library catches it; `where` names
    the innermost traced call it interrupted.
    """

    where = None


def _alarm(_signum, _frame):
    raise JobTimeout()


def plain_call(_name, fn, *args):
    return fn(*args)


class Outcome:
    """How one run of a job ended: kind is "done", "error", "exception" or
    "over_limit" until the check replaces it with the verdict."""

    __slots__ = ("kind", "seconds", "result", "error", "where", "last_call")

    def __init__(self, kind, seconds, result=None, error=None, where=None):
        self.kind, self.seconds, self.result, self.error, self.where = kind, seconds, result, error, where
        self.last_call = None


def run_in_process(job, call):
    """Run one job under the limit; the timed region is the command alone."""
    fn = commands.COMMANDS[job.command]
    args = (job.inst.text,) if job.other is None else (job.inst.text, job.other.text)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    start = time.perf_counter()
    try:
        try:
            result = fn(call, *args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout as exc:
        return Outcome("over_limit", LIMIT_S, where=exc.where)
    except LogicError as exc:
        return Outcome("error", time.perf_counter() - start, error=exc)
    except Exception as exc:  # a traceback the CLI would show: count it, keep running
        return Outcome("exception", time.perf_counter() - start, error=exc)
    return Outcome("done", time.perf_counter() - start, result=result)


def cli_env():
    """The environment of a CLI subprocess: this checkout's sources first."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


class CliRunner:
    """Runs cli-cold jobs as `python -m partlogic [--json] CMD SRC` subprocesses."""

    def __init__(self, work):
        self.work = work
        self.env = cli_env()
        self.paths = {}

    def source(self, inst):
        if inst.family == "corpus":
            return inst.name
        if inst.name not in self.paths:
            path = self.work / ("src%d.txt" % len(self.paths))
            path.write_text(inst.text)
            self.paths[inst.name] = str(path)
        return self.paths[inst.name]

    def argv(self, job, use_json):
        argv = ["--json"] if use_json else []
        argv.append(job.command)
        if job.inst is not None:
            argv.append(self.source(job.inst))
        if job.other is not None:
            argv.append(self.source(job.other))
        if job.command == "dot":
            argv += ["--style", "hasse"]
        if job.command == "from-automaton":
            argv += ["--max-word-length", "1"]
        return argv

    def run(self, argv):
        cmd = [sys.executable, "-m", "partlogic"] + argv
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=self.env) as proc:
            try:
                out, err = proc.communicate(timeout=LIMIT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return Outcome("over_limit", LIMIT_S, where="cli.command")
        seconds = time.perf_counter() - start
        if "Traceback" in err:
            return Outcome("exception", seconds, error=err.strip().splitlines()[-1])
        return Outcome("done", seconds, result=(proc.returncode, out))


def cli_jobs(job_list, warm, runner):
    """Every CLI job runs with --json, which the content check reads; the
    warm-up job of each command runs once more printing text, and that run's
    exit status is checked."""
    with_json = [workloads.Job(job.command, job.inst, job.other, tuple(runner.argv(job, True))) for job in job_list]
    text = [workloads.Job(job.command, job.inst, job.other, tuple(runner.argv(job, False))) for job in warm]
    return with_json + text


class Checker:
    """Compares outcomes with the answer key; facts are cached per instance."""

    def __init__(self):
        self.facts = {}

    def _facts(self, inst):
        if inst is None:
            return None
        if inst.name not in self.facts:
            self.facts[inst.name] = answers.Facts(inst)
        return self.facts[inst.name]

    def verdict(self, job, outcome):
        """"ok", or the failure kind: "wrong", "exception" or "over_limit"."""
        if outcome.kind in ("over_limit", "exception"):
            return outcome.kind
        if outcome.kind == "error":
            return "wrong"
        facts = self._facts(job.inst)
        if job.argv is None:
            return "ok" if answers.check(job.command, job.inst, outcome.result, facts) else "wrong"
        status, text = outcome.result
        want = 1 if job.command == "prime" and not facts.prime() else 0
        if status != want:
            return "wrong"
        if "--json" not in job.argv:
            return "ok" if text.strip() else "wrong"
        report = json.loads(text)
        return "ok" if answers.check(job.command, job.inst, report["result"], facts) else "wrong"


def run_passes(job_list, execute, checker, seconds, passes=None):
    """Closed loop over whole passes; returns [(job, outcome)] in run order.

    Each job starts from a collected heap, so it pays for no garbage an
    earlier job left.  Each result is checked, and dropped, right after its
    job; the check is outside the job's timed region.

    Every job that ended, whatever its verdict, in under REMEASURE_UNDER_S
    runs again in further passes: twice, and then while its runs total under
    REMEASURE_TOTAL_S, up to REMEASURE_MAX_RUNS runs.  Its time is the best
    of its runs; the result is checked once, the first time.  On a shared
    2-core box the machine's speed flips between two levels some 40 % apart
    several times a second; the best of runs made at different moments is
    the job's time at the fast level, which is what a change to the program
    moves.  Millisecond jobs, where the median job lies, get the most runs.
    """
    done = []
    elapsed = 0.0
    count = 0
    while (count < passes) if passes is not None else (elapsed < seconds or count == 0):
        start = time.perf_counter()
        this_pass = []
        for job in job_list:
            gc.collect()
            outcome = execute(job)
            outcome.kind = checker.verdict(job, outcome)
            outcome.result = None
            this_pass.append((job, outcome))
        again = [(job, o, [o.seconds]) for job, o in this_pass if o.kind != "over_limit" and o.seconds < REMEASURE_UNDER_S]
        for extra in range(REMEASURE_MAX_RUNS - 1):
            for job, _outcome, runs in again:
                if extra < 2 or sum(runs) < REMEASURE_TOTAL_S:
                    gc.collect()
                    runs.append(execute(job).seconds)
        for _job, outcome, runs in again:
            outcome.seconds = min(runs)
        done += this_pass
        elapsed += time.perf_counter() - start
        count += 1
    return done, count


def cli_probe_medians(env):
    """Median wall time of a bare interpreter, of importing the CLI, and of a full command."""
    probes = {
        "cli.interp_s": [sys.executable, "-c", "pass"],
        "cli.import_s": [sys.executable, "-c", "import partlogic.cli"],
        "cli.command_s": [sys.executable, "-m", "partlogic", "--json", "states", "corpus:fig12"],
    }
    out = {}
    for name, cmd in probes.items():
        times = []
        for _ in range(CLI_PROBES):
            start = time.perf_counter()
            subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True)
            times.append(time.perf_counter() - start)
        out[name] = statistics.median(times)
    return out


def summarize(workload, done):
    """Failure counts, ledger accounting and flagged jobs for one run."""
    failed, unexplained, flagged = 0, [], []
    ledger = {k.what: 0 for k in workloads.LEDGER if k.workload == workload}
    for job, outcome in done:
        if LIMIT_S / 2 <= outcome.seconds < LIMIT_S:
            flagged.append(job.label)
        if outcome.kind == "ok":
            continue
        failed += 1
        entry = workloads.known(workload, job, outcome.kind)
        if entry is None:
            unexplained.append("%s: %s" % (outcome.kind, job.label))
        else:
            ledger[entry.what] += 1
    return failed, unexplained, flagged, ledger


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--measure", action="store_true")
    args = p.parse_args()

    signal.signal(signal.SIGALRM, _alarm)
    job_list, warm = workloads.build(args.workload, args.seed)
    cli = args.workload == "cli-cold"
    work = None
    if cli:
        OUT_DIR.mkdir(exist_ok=True)
        work = OUT_DIR / ("cli-%d" % os.getpid())
        work.mkdir()
        runner = CliRunner(work)
        job_list = cli_jobs(job_list, warm, runner)
        warm = cli_jobs(warm, [], runner)
        execute = lambda job, call=None: runner.run(list(job.argv))
    else:
        execute = lambda job, call=plain_call: run_in_process(job, call)
    try:
        for job in warm:
            execute(job)
        # the per-job collections need not walk the set-up's objects
        gc.collect()
        gc.freeze()
        print("ready %.9f" % time.monotonic(), flush=True)
        if not args.measure:
            return 0
        checker = Checker()
        done, passes = run_passes(job_list, execute, checker, args.seconds)
        times = [outcome.seconds for _job, outcome in done]
        failed, unexplained, flagged, ledger = summarize(args.workload, done)
        report = {"attempted": len(done), "failed": failed, "unexplained": unexplained, "flagged": flagged, "ledger": ledger}
        if args.trace:
            tracer = layers.Tracer(JobTimeout)
            traced_exec = lambda job: tracer.job(job, lambda: execute(job, tracer.call))
            traced, _ = run_passes(job_list, traced_exec, checker, args.seconds, passes=passes)
            metrics = layers.aggregate(tracer, traced)
            metrics["trace.overhead_s"] = sum(o.seconds for _, o in traced) - sum(times)
            metrics.update(cli_probe_medians(cli_env()))
            tracer.dump(OUT_DIR / ("trace-%s-seed%d.json" % (args.workload, args.seed)))
        else:
            q = statistics.quantiles(times, n=10, method="inclusive")
            if cli:
                rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            else:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "jobs_per_s": len(done) / sum(times),
                "job_s.p50": statistics.median(times),
                "job_s.p90": q[8],
                "fail_ratio": failed / len(done),
                "peak_rss_mb": rss_kb / 1024,
            }
        report["metrics"] = metrics
        print(json.dumps(report), flush=True)
        return 0
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
