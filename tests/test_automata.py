"""Machine runs, experiment partitions, and the realization construction."""

import random

import pytest

import partlogic as P
import automata_oracle as oracle
from conftest import corpus_entry
from test_automata_oracle import random_machine
from test_pasting_oracle import loop_diagram

fs = frozenset


def mealy_wright():
    return corpus_entry("mealy-wright").payload


def mealy_fig12():
    return corpus_entry("mealy-fig12").payload


def test_run_table11_cell():
    m = mealy_wright()
    p1 = m.inputs[0]
    assert P.run(m, "2", [p1]) == ("2",)


def test_run_table14_cell():
    m = mealy_fig12()
    p2 = m.inputs[1]
    assert P.run(m, "5", [p2]) == ("1",)


def test_empty_word_gives_empty_output():
    m = mealy_wright()
    assert P.run(m, "1", []) == ()


def test_run_matches_the_label_oracle():
    rng = random.Random(12)
    kinds = {"mealy": 0, "moore": 0}
    empty = 0
    for _ in range(400):
        m = random_machine(rng)
        kinds[m.kind] += 1
        word = [rng.choice(m.inputs) for _ in range(rng.randint(0, 8))]
        empty += not word
        q0 = rng.choice(m.states)
        for initial in (False, True):
            want = oracle.run(m, q0, word, include_initial=initial)
            assert P.run(m, q0, word, include_initial=initial) == want, (m, q0, word)
    assert all(kinds.values()) and empty, (kinds, empty)


def test_unknown_symbol_rejected():
    m = mealy_wright()
    with pytest.raises(P.StructureError):
        P.run(m, "1", ["nope"])
    with pytest.raises(P.StructureError):
        P.run(m, "nope", [])


def test_moore_run_convention():
    # two states swapping on input, outputs name the entered state
    m = P.MooreAutomaton(
        ["p", "q"],
        ["t"],
        ["0", "1"],
        {("p", "t"): "q", ("q", "t"): "p"},
        {"p": "0", "q": "1"},
    )
    assert P.run(m, "p", ["t", "t"]) == ("1", "0")
    assert P.run(m, "p", ["t", "t"], include_initial=True) == ("0", "1", "0")
    assert P.run(m, "p", []) == ()


def test_machine_needs_a_state():
    for cls, lam in ((P.MooreAutomaton, {}), (P.MealyAutomaton, {("q", "a"): "0"})):
        with pytest.raises(P.StructureError, match="empty state set"):
            cls([], ["a"], ["0"], {}, lam)


def test_experiment_partition_table11():
    m = mealy_wright()
    part = P.experiment_partition(m, [m.inputs[1]])
    assert set(part) == {fs({"2"}), fs({"3"}), fs({"1", "4"})}


def test_experiment_partition_table14():
    m = mealy_fig12()
    part = P.experiment_partition(m, [m.inputs[3]])
    assert set(part) == {fs({"6"}), fs({"1", "3", "5"}), fs({"2", "4"})}


def test_constant_output_partition_is_trivial():
    m = P.MealyAutomaton(
        ["p", "q"],
        ["t"],
        ["0"],
        {("p", "t"): "p", ("q", "t"): "p"},
        {("p", "t"): "0", ("q", "t"): "0"},
    )
    assert P.experiment_partition(m, ["t"]) == (fs({"p", "q"}),)


# propositional calculus -------------------------------------------------------


def test_table11_calculus_realizes_triangle_logic(wright):
    pc = P.propositional_calculus(mealy_wright(), 2)
    assert len(pc.partitions) == 3
    assert P.isomorphic(P.pasting_to_oa(pc), wright) is not None


def test_table14_calculus_realizes_fig12(fig12):
    pc = P.propositional_calculus(mealy_fig12(), 2)
    assert len(pc.partitions) == 5
    assert P.isomorphic(P.pasting_to_oa(pc), fig12) is not None


def test_moore_machine_calculus():
    # a cycle of three states emitting their own parity
    m = P.MooreAutomaton(
        ["1", "2", "3"],
        ["t"],
        ["even", "odd"],
        {("1", "t"): "2", ("2", "t"): "3", ("3", "t"): "1"},
        {"1": "odd", "2": "even", "3": "odd"},
    )
    assert P.experiment_partition(m, ["t"]) == (fs({"1"}), fs({"2", "3"}))
    pc = P.propositional_calculus(m, 3)
    # length-2 words separate all three states
    assert any(len(part) == 3 for part in pc.partitions)


def test_single_state_machine_gives_two_element_chain():
    m = P.MealyAutomaton(
        ["q"], ["t"], ["0"], {("q", "t"): "q"}, {("q", "t"): "0"}
    )
    pc = P.propositional_calculus(m, 3)
    assert pc.partitions == ((fs({"q"}),),)
    t = P.pasting_to_oa(pc)
    assert len(t.elements) == 2


def test_word_length_bound_is_monotone():
    m = mealy_fig12()
    seen = set()
    for k in (1, 2, 3):
        pc = P.propositional_calculus(m, k)
        current = {fs(part) for part in pc.partitions}
        assert seen <= current
        seen = current


def test_search_stops_at_the_first_level_adding_nothing():
    # 3^40 words of length 40; a level adding no partition ends the search
    m = mealy_wright()
    assert (
        P.propositional_calculus(m, 40).partitions
        == P.propositional_calculus(m, 2).partitions
    )


def test_l14_realization_adds_nothing_at_length_two():
    # 843 states and 43 inputs; 1,849 words of length 2
    pl = P.oa_to_partition_logic(P.from_greechie(loop_diagram(14)))
    m = P.partition_logic_to_mealy(pl)
    assert (len(m.states), len(m.inputs)) == (843, 43)
    one = P.propositional_calculus(m, 1).partitions
    assert len(one) == 43
    assert P.propositional_calculus(m, 2).partitions == one


def test_all_words_equal_length_forty_on_mealy_wright():
    m = mealy_wright()
    assert P.propositional_calculus(m, None).partitions == P.propositional_calculus(m, 40).partitions


def test_calculus_keeps_the_constructor_errors():
    # the calculus hands its partitions on unchecked, but not its ground;
    # a repeated state, input or output is refused before there is a machine
    # to read, the states checked first, then the inputs, then the outputs
    step, out = {("q", "a"): "q", ("q", "b"): "q"}, {("q", "a"): "o"}
    cases = [
        (lambda: P.MealyAutomaton(["q"], [], ["o"], {}, {}), "no partitions given"),
        (
            lambda: P.MealyAutomaton(["q", "q"], ["a"], ["o"], {("q", "a"): "q"}, {("q", "a"): "o"}),
            "duplicate state 'q'",
        ),
        (lambda: P.MealyAutomaton(["q"], ["a", "a"], ["o"], step, out), "duplicate input 'a'"),
        (lambda: P.MealyAutomaton(["q"], ["a"], ["o", "o"], step, out), "duplicate output 'o'"),
        (lambda: P.MooreAutomaton(["q"], ["a", "b", "a"], ["o"], step, {"q": "o"}), "duplicate input 'a'"),
        (lambda: P.MooreAutomaton(["q"], ["a"], ["o", "p", "p"], step, {"q": "o"}), "duplicate output 'p'"),
        (lambda: P.MealyAutomaton(["q", "q"], ["a", "a"], ["o", "o"], {}, {}), "duplicate state 'q'"),
        (lambda: P.MealyAutomaton(["q"], ["a", "a"], ["o", "o"], {}, {}), "duplicate input 'a'"),
    ]
    for machine, message in cases:
        with pytest.raises(P.StructureError) as err:
            P.propositional_calculus(machine(), 1)
        assert str(err.value) == message


def test_realization_refuses_partitions_that_spell_one_input():
    # point names holding ',' let two partitions print as one symbol
    pl = P.PartitionLogic(
        ["a", "b", "c", "a,b"], [[{"a", "b"}, {"c", "a,b"}], [{"a,b"}, {"a", "b", "c"}]]
    )
    with pytest.raises(P.StructureError) as err:
        P.partition_logic_to_mealy(pl)
    assert str(err.value) == "two partitions spell the input 'a,b|a,b,c'"


def test_calculus_requires_positive_length():
    with pytest.raises(P.StructureError):
        P.propositional_calculus(mealy_wright(), 0)


# realization ------------------------------------------------------------------


def test_realization_lambda_matches_reference_tables():
    for pl_id, machine_id in (
        ("pl-wright", "mealy-wright"),
        ("pl-fig12", "mealy-fig12"),
    ):
        built = P.partition_logic_to_mealy(corpus_entry(pl_id).payload)
        reference = corpus_entry(machine_id).payload
        assert built.inputs == reference.inputs
        assert built.lam == reference.lam
        assert built.delta == reference.delta
        assert set(built.delta.values()) == {built.states[0]}


def test_realization_round_trip_corpus():
    for pl_id in ("pl-wright", "pl-fig12"):
        pl = corpus_entry(pl_id).payload
        machine = P.partition_logic_to_mealy(pl)
        pc = P.propositional_calculus(machine, 1)
        assert (
            P.isomorphic(P.pasting_to_oa(pc), P.pasting_to_oa(pl)) is not None
        )


def test_single_partition_logic_realizes_with_one_symbol():
    pl = P.PartitionLogic(["1", "2"], [[{"1"}, {"2"}]])
    m = P.partition_logic_to_mealy(pl)
    assert len(m.inputs) == 1


def test_longer_words_add_nothing_for_realization_machines():
    # delta collapses to one state, so suffix outputs are constant
    for pl_id in ("pl-wright", "pl-fig12"):
        m = P.partition_logic_to_mealy(corpus_entry(pl_id).payload)
        for a in m.inputs:
            for b in m.inputs:
                two = P.experiment_partition(m, [a, b])
                one = P.experiment_partition(m, [a])
                assert set(two) == set(one)


def test_totality_enforced():
    with pytest.raises(P.StructureError):
        P.MealyAutomaton(["q"], ["t"], ["0"], {}, {("q", "t"): "0"})
    with pytest.raises(P.StructureError):
        P.MooreAutomaton(["q"], ["t"], ["0"], {("q", "t"): "q"}, {})
