"""The suffix-refining experiments against the word-enumerating copies."""

import random

import pytest

import partlogic as P
import partlogic.automata as automata
import automata_oracle as oracle
from test_pasting_oracle import loop_diagram


def random_machine(rng, max_states=12, max_inputs=4):
    """A Moore or Mealy machine of 1-12 states, 1-4 inputs and 1-3 outputs.

    A third of the machines send every transition into a random subset of
    the states, which leaves the others unreachable; another third make
    about half the transitions self-loops.  Smaller bounds on the states
    and inputs may be given.
    """
    states = ["q%d" % i for i in range(rng.randint(1, max_states))]
    rng.shuffle(states)
    inputs = ["a%d" % i for i in range(rng.randint(1, max_inputs))]
    outputs = ["y%d" % i for i in range(rng.randint(1, 3))]
    shape = rng.choice(["any", "subset", "self"])
    targets = rng.sample(states, rng.randint(1, len(states))) if shape == "subset" else states
    delta = {}
    for q in states:
        for a in inputs:
            loop = shape == "self" and rng.random() < 0.5
            delta[(q, a)] = q if loop else rng.choice(targets)
    if rng.random() < 0.5:
        lam = {(q, a): rng.choice(outputs) for q in states for a in inputs}
        return P.MealyAutomaton(states, inputs, outputs, delta, lam)
    lam = {q: rng.choice(outputs) for q in states}
    return P.MooreAutomaton(states, inputs, outputs, delta, lam)


def realization(k):
    return P.partition_logic_to_mealy(P.oa_to_partition_logic(P.from_greechie(loop_diagram(k))))


def test_random_machines_match_word_enumeration():
    rng = random.Random(9)
    shapes = {"single": 0, "unreachable": 0, "self-loop": 0}
    for _ in range(300):
        m = random_machine(rng)
        shapes["single"] += len(m.states) == 1
        shapes["unreachable"] += len(set(m.delta.values())) < len(m.states)
        shapes["self-loop"] += any(q == t for (q, _a), t in m.delta.items())
        for length in (1, rng.randint(2, 5)):
            want = oracle.propositional_calculus(m, length).partitions
            assert P.propositional_calculus(m, length).partitions == want, (m, length)
    assert all(shapes.values()), shapes


@pytest.mark.parametrize("k", range(3, 9))
def test_realization_machines_match_word_enumeration(k):
    m = realization(k)
    for length in (1, 2):
        want = oracle.propositional_calculus(m, length).partitions
        assert P.propositional_calculus(m, length).partitions == want, length


def test_experiment_partition_matches_on_random_words():
    rng = random.Random(10)
    empty = 0
    for _ in range(300):
        m = random_machine(rng)
        word = [rng.choice(m.inputs) for _ in range(rng.randint(0, 6))]
        empty += not word
        assert P.experiment_partition(m, word) == oracle.experiment_partition(m, word)
        word.insert(rng.randint(0, len(word)), "nope")
        with pytest.raises(P.StructureError) as new:
            P.experiment_partition(m, word)
        with pytest.raises(P.StructureError) as old:
            oracle.experiment_partition(m, word)
        assert str(new.value) == str(old.value)
    assert empty


def test_experiments_never_run_the_machine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run called")

    monkeypatch.setattr(automata, "run", refuse)
    m = random_machine(random.Random(11))
    P.propositional_calculus(m, 3)
    P.experiment_partition(m, m.inputs * 2)


def test_all_words_match_word_enumeration_past_the_stop():
    # the oracle finds the first length whose words add no partition; all
    # words must give what the words up to one length past it give
    rng = random.Random(12)
    stops = []
    for _ in range(150):
        m = random_machine(rng, max_states=6, max_inputs=3)
        stop = 2
        while oracle.propositional_calculus(m, stop).partitions != oracle.propositional_calculus(m, stop - 1).partitions:
            stop += 1
        stops.append(stop)
        want = oracle.propositional_calculus(m, stop + 1).partitions
        assert P.propositional_calculus(m, None).partitions == want, m
    # some searches run several levels before they stop
    assert max(stops) >= 5, stops


def test_refine_and_cells_match_the_per_state_copies():
    rng = random.Random(13)
    singletons = 0
    for _ in range(300):
        m = random_machine(rng)
        classes = (0,) * len(m.states)
        for _ in range(rng.randint(1, 6)):
            step = m._keyed[rng.randrange(len(m.inputs))]
            refined = automata._refine(step, classes)
            assert refined == oracle._refine(step, classes), m
            classes = refined
            assert automata._cells(m.states, classes) == oracle._cells(m.states, classes)
        singletons += len(m.states) > 1 and len(set(classes)) == len(m.states)
    assert singletons


def test_all_singleton_partition_matches_the_per_state_copies():
    # one input whose outputs tell all 500 states apart
    states = ["q%d" % i for i in range(500)]
    delta = {(q, "a"): states[0] for q in states}
    lam = {(q, "a"): "y" + q for q in states}
    m = P.MealyAutomaton(states, ["a"], sorted(lam.values()), delta, lam)
    classes = (0,) * len(states)
    step = m._keyed[0]
    refined = automata._refine(step, classes)
    assert refined == oracle._refine(step, classes) == tuple(range(len(states)))
    cells = automata._cells(m.states, refined)
    assert cells == oracle._cells(m.states, refined)
    assert cells == tuple(frozenset([q]) for q in states)
    assert P.propositional_calculus(m, None).partitions == (cells,)
