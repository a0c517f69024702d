"""Spans around the benchmark's calls into each library layer, and the
per-layer metrics aggregated from them.

The layers are the library's modules.  A span is recorded around every call
the benchmark makes into a layer; calls the library makes inside itself count
toward the outer function (oa_to_partition_logic includes its primeness
search).  Spans stay in memory and are written out when the run ends.
"""

import json
import time
from collections import defaultdict

MODULES = ("states", "oa", "partition", "automata", "testspace", "atlas", "dot", "formats")

# (function, extra stats beyond self_s and calls); the per-layer metric list
_FUNCTIONS = (
    ("states.enumerate_two_valued_states", ("out",)),
    ("states.is_prime", ()),
    ("states.state_space_solve", ("wrong",)),
    ("oa.from_greechie", ()),
    ("oa.classify", ()),
    ("oa.verify_quasi_oa", ()),
    ("oa.blocks", ("out", "over_limit")),
    ("partition.pasting_to_oa", ()),
    ("partition.oa_to_partition_logic", ("over_limit",)),
    ("partition.isomorphic", ("over_limit",)),
    ("automata.partition_logic_to_mealy", ()),
    ("automata.propositional_calculus", ()),
    ("testspace.verify_test_space", ()),
    ("testspace.is_algebraic", ()),
    ("testspace.pi_logic", ()),
    ("testspace.completion", ()),
    ("testspace.is_complete", ()),
    ("testspace.omp_conditions", ()),
    ("testspace.ts_to_partition_test_space", ("over_limit",)),
    ("testspace.enumerate_two_valued_weights", ("out", "over_limit")),
    ("atlas.quasi_oa_to_atlas", ("over_limit",)),
    ("dot.render_dot", ()),
    ("formats.parse_any", ()),
    ("formats.serialize", ()),
)
CLI_METRICS = ("cli.interp_s", "cli.import_s", "cli.command_s")
OUT_FUNCTIONS = {name for name, extra in _FUNCTIONS if "out" in extra}


def per_layer_metrics():
    """[(name, unit, better)] for every per-layer metric, in report order."""
    out = []
    for name, extra in _FUNCTIONS:
        out.append((name + ".self_s", "s", "lower"))
        out.append((name + ".calls", "count", "higher"))
        for stat in extra:
            out.append((name + "." + stat, "count", "higher" if stat == "out" else "lower"))
    out += [(m + ".share", "ratio", "lower") for m in MODULES]
    out += [(name, "s", "lower") for name in CLI_METRICS]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    """Records spans: name, start, end, parent span and job id."""

    def __init__(self, timeout_cls):
        self.timeout_cls = timeout_cls
        self.spans = []
        self.stack = []
        self.job_id = -1
        self.last_call = None

    def _open(self, name):
        parent = self.stack[-1]["id"] if self.stack else None
        span = {"id": len(self.spans), "parent": parent, "job": self.job_id, "name": name,
                "start": time.perf_counter(), "end": None, "child_s": 0.0}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self.stack.remove(span)
        if span["parent"] is not None:
            self.spans[span["parent"]]["child_s"] += span["end"] - span["start"]

    def call(self, name, fn, *args):
        """The `call` hook of jobs.py, recording one span around fn(*args)."""
        span = self._open(name)
        self.last_call = name
        try:
            result = fn(*args)
            if name in OUT_FUNCTIONS:
                span["out"] = len(result)
            return result
        except self.timeout_cls as exc:
            if exc.where is None:
                exc.where = name
            raise
        finally:
            self._close(span)

    def job(self, job, run):
        """Run one job inside its own span; spans it opens carry its id.

        The outcome `run` returns learns the name of the job's last call.
        """
        self.job_id += 1
        self.last_call = None
        self._open("job." + job.command)
        try:
            outcome = run()
        finally:
            while self.stack:
                self._close(self.stack[-1])
        outcome.last_call = self.last_call
        return outcome

    def dump(self, path):
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(self.spans))


def aggregate(tracer, traced):
    """Per-layer metrics from the spans of one traced run.

    self_s is a span's duration minus the time its child spans cover, summed
    over every run of a job, re-measurements included; a module's share is
    its self time over the summed job spans.  over_limit is
    charged to the innermost call a timeout interrupted, wrong to the last
    call of a job whose answer failed the check.
    """
    stats = defaultdict(float)
    module_s = defaultdict(float)
    job_s = 0.0
    for span in tracer.spans:
        duration = span["end"] - span["start"]
        if span["name"].startswith("job."):
            job_s += duration
            continue
        own = duration - span["child_s"]
        stats[span["name"] + ".self_s"] += own
        stats[span["name"] + ".calls"] += 1
        stats[span["name"] + ".out"] += span.get("out", 0)
        module_s[span["name"].split(".", 1)[0]] += own
    for _job, outcome in traced:
        if outcome.kind == "over_limit" and outcome.where:
            stats[outcome.where + ".over_limit"] += 1
        elif outcome.kind == "wrong" and outcome.last_call:
            stats[outcome.last_call + ".wrong"] += 1
    for module in MODULES:
        stats[module + ".share"] = module_s[module] / job_s if job_s else 0.0
    return {name: stats[name] for name, _unit, _better in per_layer_metrics()}
