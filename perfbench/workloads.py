"""The four workloads: their seeded job lists and the ledger of known failures.

A job is one verdict a user asks for, a (command, instance) pair.  The seed
sets the names inside the instances and the order of the jobs; the sizes
below are fixed.  Every job runs well below half the time limit or far above
four times it (the cliffs), so a verdict does not flip with machine noise.
"""

import random
from dataclasses import dataclass

import answers
from gen import Generator

WORKLOADS = ("enumerate", "verify", "testspace", "cli-cold")

ENUMERATE_COMMANDS = ("states", "prime", "state-space", "to-pl", "iso", "to-automaton", "from-automaton")
VERIFY_COMMANDS = ("verify", "blocks", "atlas", "dot")
FANO_COMMANDS = VERIFY_COMMANDS + ("states", "prime", "state-space")
GREECHIE_TS_COMMANDS = ("testspace", "pi-logic", "ts-to-pts")
PTS_COMMANDS = ("testspace", "complete", "pi-logic", "omp-conditions", "ts-to-pts")


@dataclass
class Job:
    """A command on an instance.  `other` is iso's second source; `argv` is
    set for jobs run as a CLI subprocess."""

    command: str
    inst: object
    other: object = None
    argv: tuple = None

    @property
    def label(self):
        if self.argv is not None:
            return " ".join(self.argv)
        return " ".join([self.command] + [i.name for i in (self.inst, self.other) if i is not None])


def _over_points(g, commands, base):
    """Jobs whose input is the partition logic or machine of a Greechie instance."""
    jobs = []
    for cmd in commands:
        # the realization machine repeats every partition, written out, in
        # each of its transitions: 400 MB of text for the 843 points of L_14
        if cmd == "to-automaton" and len(base.blocks) > 10:
            continue
        if cmd == "iso":
            jobs.append(Job(cmd, base, other=g.over_points("pl", base)))
        elif cmd == "to-automaton":
            jobs.append(Job(cmd, g.over_points("pl", base)))
        elif cmd == "from-automaton":
            jobs.append(Job(cmd, g.over_points("machine", base)))
        else:
            jobs.append(Job(cmd, base))
    return jobs


def _enumerate(g):
    bases = [g.loop(k) for k in range(3, 15)]
    bases += [g.loop(k, r=2) for k in range(3, 7)]
    bases += [g.chain(k) for k in (2, 4, 8, 12)]
    jobs = [job for base in bases for job in _over_points(g, ENUMERATE_COMMANDS, base)]
    # cliff: state-space on the 4-atom L_16 (194 elements) is still in its
    # exact elimination when the limit strikes, before any state is listed,
    # so its memory at that moment does not depend on how far it got
    jobs.append(Job("state-space", g.loop(16, r=2)))
    warm = _over_points(g, ENUMERATE_COMMANDS, g.loop(3))
    return jobs, warm


def _verify(g):
    bases = [g.block(n) for n in (3, 4, 5)]
    bases += [g.loop(k) for k in (3, 4, 8, 16, 32)]
    jobs = [Job(cmd, b) for b in bases for cmd in VERIFY_COMMANDS]
    # cliff: blocks visits every Boolean subalgebra of a 7-atom block
    jobs += [Job(cmd, g.block(7)) for cmd in ("verify", "blocks", "dot")]
    for digits in (False, True):
        for j in range(8):
            inst = g.fano(j, digits)
            jobs += [Job(cmd, inst) for cmd in FANO_COMMANDS]
    warm = [Job(cmd, g.fano(0, False)) for cmd in FANO_COMMANDS]
    return jobs, warm


def _testspace(g):
    bases = [g.loop(k) for k in range(3, 15)]
    bases += [g.loop(k, r=2) for k in range(3, 8)]
    bases += [g.chain(k) for k in (2, 4, 6, 8, 10, 12, 14)]
    bases += [g.chain(k, r=2) for k in (4, 6)]
    jobs = [Job(cmd, b) for b in bases for cmd in GREECHIE_TS_COMMANDS]
    for base in [g.loop(k) for k in range(3, 7)] + [g.chain(k) for k in range(2, 6)]:
        pts = g.over_points("pts", base)
        jobs += [Job(cmd, pts) for cmd in PTS_COMMANDS]
    # cliff: two-valued weights on the PTS of L_8 (47 points, 25 tests)
    cliff = g.over_points("pts", g.loop(8))
    jobs += [Job(cmd, cliff) for cmd in ("testspace", "complete", "pi-logic")]
    warm = [Job(cmd, g.loop(3)) for cmd in GREECHIE_TS_COMMANDS]
    warm += [Job(cmd, g.over_points("pts", g.loop(3))) for cmd in PTS_COMMANDS]
    return jobs, warm


# (source, commands) for the CLI workload; a source is a generated instance
# written to a file, or a corpus entry with a transcribed answer.
def _cli(g):
    loops = [g.loop(k) for k in (3, 4, 5)]
    chain = g.chain(3)
    block = g.block(3)
    fano = g.fano(0, False)
    fano_digits = g.fano(1, True)
    pl = g.over_points("pl", loops[1])
    machine = g.over_points("machine", loops[1])
    pts = g.over_points("pts", loops[0])
    corpus = [answers.corpus_instance(i) for i in answers.CORPUS_DIAGRAMS]
    table_cmds = ("verify", "states", "prime", "blocks", "atlas", "dot", "testspace")
    plan = [(src, table_cmds) for src in loops + [chain, block, fano, fano_digits] + corpus]
    plan += [(src, ("to-pl",)) for src in loops + [chain]]
    plan += [(pl, ("to-automaton",)), (machine, ("from-automaton",)), (pts, ("testspace", "complete"))]
    jobs = []
    for src, cmds in plan:
        jobs += [Job(cmd, src) for cmd in cmds]
    jobs.append(Job("iso", loops[1], other=pl))
    jobs.append(Job("corpus", None))
    warm = []
    for cmd in dict.fromkeys(job.command for job in jobs):
        warm.append(next(job for job in jobs if job.command == cmd))
    return jobs, warm


_BUILDERS = {"enumerate": _enumerate, "verify": _verify, "testspace": _testspace, "cli-cold": _cli}


def build(workload, seed):
    """(timed jobs in seeded order, one warm-up job per command)."""
    g = Generator(seed)
    jobs, warm = _BUILDERS[workload](g)
    random.Random(seed).shuffle(jobs)
    return jobs, warm


@dataclass(frozen=True)
class Known:
    """A failure the program shows at this commit; see README.md's ledger."""

    workload: str
    what: str
    outcome: str
    test: object

    def matches(self, workload, job, outcome):
        return workload == self.workload and outcome == self.outcome and self.test(job)


def _fam(job):
    inst = job.inst
    return (inst.family, inst.params) if inst is not None else (None, {})


LEDGER = (
    Known(
        "enumerate",
        "state-space on the 4-atom L_16 runs past the limit",
        "over_limit",
        lambda job: job.command == "state-space" and _fam(job) == ("loop", {"k": 16, "r": 2}),
    ),
    Known(
        "verify",
        "blocks of one 7-atom Boolean block runs past the limit",
        "over_limit",
        lambda job: job.command == "blocks" and _fam(job) == ("block", {"n": 7}),
    ),
    Known(
        "verify",
        "state_space_solve reports infeasible on Fano plus j >= 1 attached blocks",
        "wrong",
        lambda job: job.command == "state-space"
        and _fam(job)[0] == "fano"
        and _fam(job)[1]["names"] == "letters"
        and _fam(job)[1]["j"] >= 1,
    ),
    Known(
        "verify",
        "Fano named 1..7: atom 1 collides with the pasting's unit label",
        "wrong",
        lambda job: _fam(job)[0] == "fano" and _fam(job)[1]["names"] == "digits",
    ),
    Known(
        "testspace",
        "testspace (two-valued weights) on the PTS of L_8 runs past the limit",
        "over_limit",
        lambda job: job.command == "testspace" and _fam(job) == ("pts", {"k": 8, "r": 1, "of": "loop"}),
    ),
    Known(
        "cli-cold",
        "Fano named 1..7: atom 1 collides with the pasting's unit label",
        "wrong",
        lambda job: _fam(job)[0] == "fano" and _fam(job)[1]["names"] == "digits" and job.command != "testspace",
    ),
)


def known(workload, job, outcome):
    """The ledger entry that accounts for a failed job, or None."""
    return next((k for k in LEDGER if k.matches(workload, job, outcome)), None)
