"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from partlogic import (  # noqa: E402
    classify,
    enumerate_two_valued_states,
    from_greechie,
    omp_conditions,
    parse,
    parse_any,
)

def small_jobs():
    """Every in-process command on small members of every family."""
    g = gen.Generator(5)
    logics = [g.loop(k) for k in (3, 4, 5)] + [g.loop(3, r=2), g.chain(2), g.chain(4)]
    jobs = []
    for base in logics:
        jobs += workloads._over_points(g, workloads.ENUMERATE_COMMANDS, base)
        jobs += [workloads.Job(cmd, base) for cmd in workloads.VERIFY_COMMANDS + workloads.GREECHIE_TS_COMMANDS]
        if base.params["r"] == 1:
            pts = g.over_points("pts", base)
            jobs += [workloads.Job(cmd, pts) for cmd in workloads.PTS_COMMANDS]
    for n in (3, 4):
        jobs += [workloads.Job(cmd, g.block(n)) for cmd in workloads.VERIFY_COMMANDS]
    for j in (0, 1, 2):
        jobs += [workloads.Job(cmd, g.fano(j, False)) for cmd in workloads.FANO_COMMANDS]
    return jobs


def run(job):
    outcome = worker.run_in_process(job, worker.plain_call)
    return outcome, worker.Checker().verdict(job, outcome)


@pytest.fixture(autouse=True)
def alarm():
    import signal

    old = signal.signal(signal.SIGALRM, worker._alarm)
    yield
    signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_one_job_list(workload):
    def listing(seed):
        job_list, warm = workloads.build(workload, seed)
        return [(j.label, j.inst and j.inst.text, j.other and j.other.text) for j in job_list + warm]

    assert listing(7) == listing(7)
    other = listing(8)
    assert other != listing(7)
    assert len(other) == len(listing(7))


def test_state_rows_follow_lucas_numbers():
    names = gen.Names(__import__("random").Random(0))
    lucas = [2, 1]
    while len(lucas) < 17:
        lucas.append(lucas[-1] + lucas[-2])
    for k in (3, 4, 9, 16):
        assert len(gen.exact_one_states(gen.loop_blocks(k, 1, names))) == lucas[k]
    assert lucas[16] == 2207


def test_answer_sources_agree_with_library():
    g = gen.Generator(3)
    for inst in [g.loop(k) for k in (3, 4, 6)] + [g.loop(4, r=2), g.chain(3), g.block(4), g.fano(2, False)]:
        facts = answers.Facts(inst)
        table = from_greechie(parse("greechie", inst.text))
        atoms = sorted(facts.atoms)
        mine = sorted(tuple(int(a in s) for a in atoms) for s in facts.states)
        theirs = sorted(tuple(s(a) for a in atoms) for s in enumerate_two_valued_states(table))
        assert mine == theirs
        assert facts.elements() == len(table.elements)
        assert facts.structure_class() == classify(table)


def test_partition_test_space_conditions_match_a_reference():
    """omp_conditions against a bitmask re-implementation on small PTS."""
    g = gen.Generator(4)
    for base in (g.loop(3), g.loop(4), g.chain(2), g.chain(3)):
        inst = g.over_points("pts", base)
        cells = sorted({c for part in inst.partitions for c in part}, key=sorted)
        bit = {c: 1 << i for i, c in enumerate(cells)}
        tests = [sum(bit[c] for c in part) for part in inst.partitions]
        events = {sub for t in tests for sub in _submasks(t)}
        orth = lambda e, f: not e & f and any((e | f) & ~t == 0 for t in tests)
        triple = not any(
            orth(e, f) and orth(f, g_) and orth(e, g_) and not orth(e | f, g_)
            for e, f, g_ in itertools.product(events, repeat=3)
        )
        points = lambda e: frozenset().union(*(c for c in cells if bit[c] & e))
        concrete = all((not points(e) & points(f)) == orth(e, f) for e, f in itertools.combinations(events, 2))
        got = omp_conditions(parse_any(inst.text)[1])
        assert (got.triple_condition, got.concrete_condition) == (triple, concrete)
        want = answers.Facts(inst).structure_class() == "omp"
        assert triple is want and concrete is want


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def test_fano_reference_state_is_a_state():
    """1/3 on the Fano atoms and 2/9 on the attached ones is additive."""
    g = gen.Generator(2)
    for j in (1, 4, 7):
        inst = g.fano(j, False)
        table = from_greechie(parse("greechie", inst.text))
        fano = {a for blk in inst.blocks[:7] for a in blk}
        atom_value = {a: Fraction(1, 3) if a in fano else Fraction(2, 9) for a in answers.Facts(inst).atoms}
        value = {}
        for blk in inst.blocks:
            for r in range(len(blk) + 1):
                for sub in itertools.combinations(blk, r):
                    value.setdefault(_element(table, blk, sub), sum(atom_value[a] for a in sub))
        assert len(value) == len(table.elements)
        assert answers._check_state(table, value)


def _element(table, blk, sub):
    """The table element that is the sum of the atoms `sub` of block `blk`."""
    out = table.zero
    for a in sub:
        out = table.sums_from(out)[a]
    return out


def test_every_small_job_checks_out():
    for job in small_jobs():
        outcome, verdict = run(job)
        ledger = workloads.known("verify", job, verdict)
        assert verdict == "ok" or ledger is not None, (job.label, outcome.kind, outcome.error)


def test_a_corrupted_result_counts_as_wrong():
    g = gen.Generator(9)
    loop = g.loop(5)
    checker = worker.Checker()
    corruptions = {
        "states": lambda r: r["rows"].pop(),
        "prime": lambda r: r.update(states=r["states"] + 1),
        "state-space": lambda r: r["_sample"].update({r["_table"].one: Fraction(1, 2)}),
        "blocks": lambda r: r["atoms"].pop(),
        "iso": lambda r: r["_map"].update({r["_tables"][0].zero: r["_tables"][1].one}),
        "to-pl": lambda r: r["partitions"].pop(),
        "verify": lambda r: r.update({"class": "boolean"}),
        "testspace": lambda r: r.update(two_valued_weights=0),
    }
    for cmd, corrupt in corruptions.items():
        job = workloads._over_points(g, [cmd], loop)[0]
        outcome = worker.run_in_process(job, worker.plain_call)
        assert checker.verdict(job, outcome) == "ok", cmd
        corrupt(outcome.result)
        assert checker.verdict(job, outcome) == "wrong", cmd


def test_a_job_past_the_limit_counts_as_over_limit(monkeypatch):
    monkeypatch.setattr(worker, "LIMIT_S", 0.05)
    g = gen.Generator(1)
    known = workloads.Job("blocks", g.block(7))
    unknown = workloads.Job("blocks", g.block(6))
    checker = worker.Checker()
    done, _ = worker.run_passes([known, unknown], lambda job: worker.run_in_process(job, worker.plain_call), checker, 0)
    assert [o.kind for _j, o in done] == ["over_limit", "over_limit"]
    assert [o.seconds for _j, o in done] == [0.05, 0.05]
    failed, unexplained, _flagged, ledger = worker.summarize("verify", done)
    assert failed == 2
    assert unexplained == ["over_limit: blocks block(n=6)"]
    assert sum(ledger.values()) == 1


def test_traced_run_charges_the_interrupted_call(monkeypatch):
    monkeypatch.setattr(worker, "LIMIT_S", 0.05)
    g = gen.Generator(1)
    job = workloads.Job("blocks", g.block(7))
    tracer = layers.Tracer(worker.JobTimeout)
    run = lambda j: tracer.job(j, lambda: worker.run_in_process(j, tracer.call))
    done, _ = worker.run_passes([job], run, worker.Checker(), 0)
    metrics = layers.aggregate(tracer, done)
    assert metrics["oa.blocks.over_limit"] == 1
    assert metrics["oa.from_greechie.calls"] == 1
    assert 0 < metrics["oa.share"] <= 1


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == layers.per_layer_metrics()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
