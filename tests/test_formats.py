"""Text format parsing, canonical serialization, and the corpus registry."""

import random
import tracemalloc

import pytest

import partlogic as P
from conftest import corpus_entry
from test_pasting_oracle import loop_diagram

WRIGHT_TEXT = """\
# three blocks around a loop
atoms: a b c d e f
block: a b c
block: c d e
block: e f a
"""


def test_parse_wright_greechie():
    d = P.parse("greechie", WRIGHT_TEXT)
    assert len(d.atoms) == 6
    assert len(d.blocks) == 3


def test_detect_kind():
    assert P.detect_kind(WRIGHT_TEXT) == "greechie"
    assert P.detect_kind("points: 1 2\npartition: 1 | 2\n") == "partition_logic"
    assert P.detect_kind("omega: 1 2\nchart: 1 | 2\n") == "atlas"
    assert P.detect_kind("base: 1 2\ntest: 1 | 2\n") == "pts"
    assert (
        P.detect_kind("balls: 1\ncolors: red\nball: 1 x\n") == "urn"
    )
    mealy = "states: q\ninputs: t\noutputs: o\ndelta: q t -> q\nlambda: q t -> o\n"
    moore = "states: q\ninputs: t\noutputs: o\ndelta: q t -> q\nlambda: q -> o\n"
    assert P.detect_kind(mealy) == "mealy"
    assert P.detect_kind(moore) == "moore"


def test_duplicate_atom_in_block_is_syntax_error():
    with pytest.raises(P.ParseError) as err:
        P.parse("greechie", "atoms: a b\nblock: a a b\n")
    assert err.value.line == 2


def test_unknown_keyword_reports_line():
    with pytest.raises(P.ParseError) as err:
        P.parse("greechie", "atoms: a b\nblok: a b\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: P.parse("bogus", "atoms: a\n"), "unknown kind 'bogus'"),
        (lambda: P.serialize(42), "cannot serialize 'int'"),
        (
            lambda: P.serialize(P.BooleanAtlas([P.BooleanChart(["a"], ["0", "a"])])),
            "only point-set atlases serialize",
        ),
    ],
)
def test_parse_and_serialize_input_errors(build, message):
    with pytest.raises(P.ParseError) as err:
        build()
    assert str(err.value) == message


def test_empty_input_rejected():
    with pytest.raises(P.ParseError):
        P.parse("greechie", "   \n# comment only\n")


def test_partition_logic_round_trip():
    text = "points: 1 2 3 4\npartition: 1 | 2 | 3 4\npartition: 2 | 3 | 1 4\n"
    pl = P.parse("partition_logic", text)
    out = P.serialize(pl)
    again = P.parse("partition_logic", out)
    assert P.serialize(again) == out


def test_serialize_is_canonical_fixed_point():
    for eid in ("firefly", "wright", "fano", "fig12", "fig15", "fig16"):
        d = corpus_entry(eid).payload
        text = P.serialize(d)
        assert P.serialize(P.parse("greechie", text)) == text


def test_urn_round_trip():
    urn = corpus_entry("urn-firefly").payload
    text = P.serialize(urn)
    again = P.parse("urn", text)
    assert P.serialize(again) == text
    assert again.visible[("1", "red")] == "l"


def test_urn_repeated_header_is_rejected():
    text = "balls: 1 2\ncolors: red\nball: 1 x\nballs: 1\nball: 2 y\n"
    with pytest.raises(P.ParseError, match="^line 4: second balls line$"):
        P.parse("urn", text)
    with pytest.raises(P.ParseError, match="^line 3: second colors line$"):
        P.parse("urn", "balls: 1\ncolors: red\ncolors: green\nball: 1 x\n")


def test_urn_missing_colors_line_is_rejected():
    with pytest.raises(P.ParseError, match="^missing colors line$"):
        P.parse("urn", "balls: 1\nball: 1\n")


def test_automaton_round_trip():
    m = corpus_entry("mealy-wright").payload
    text = P.serialize(m)
    again = P.parse("mealy", text)
    assert again.lam == m.lam
    assert again.delta == m.delta
    assert P.serialize(again) == text


def test_machine_text_takes_little_more_memory_than_itself():
    # the realization machine of L_9 spells each partition in every line
    pl = P.oa_to_partition_logic(P.from_greechie(loop_diagram(9)))
    machine = P.partition_logic_to_mealy(pl)
    tracemalloc.start()
    try:
        text = P.serialize(machine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) >= 1_000_000
    assert peak < 1.5 * len(text)
    assert P.serialize(P.parse("mealy", text)) == text


def test_machine_text_of_short_names_takes_little_more_memory_than_itself():
    # about 23 bytes a line: a list of three references per line would
    # outweigh the text
    rng = random.Random(7)
    states = ["q%d" % i for i in range(2000)]
    inputs = ["a%d" % i for i in range(10)]
    outputs = ["y%d" % i for i in range(3)]
    keys = [(q, a) for q in states for a in inputs]
    machine = P.MealyAutomaton(
        states,
        inputs,
        outputs,
        {key: rng.choice(states) for key in keys},
        {key: rng.choice(outputs) for key in keys},
    )
    tracemalloc.start()
    try:
        text = P.serialize(machine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 3 + 2 * len(keys)
    assert peak < 1.5 * len(text)
    assert P.serialize(P.parse("mealy", text)) == text


def test_moore_round_trip():
    m = P.MooreAutomaton(
        ["p", "q"],
        ["t"],
        ["0", "1"],
        {("p", "t"): "q", ("q", "t"): "p"},
        {"p": "0", "q": "1"},
    )
    text = P.serialize(m)
    again = P.parse("moore", text)
    assert again.lam == m.lam


def test_atlas_round_trip():
    atlas = corpus_entry("nontransitive").payload
    text = P.serialize(atlas)
    again = P.parse("atlas", text)
    assert P.serialize(again) == text
    assert P.verify_atlas(again).passed


def test_pts_round_trip():
    pts = corpus_entry("pts-firefly").payload
    text = P.serialize(pts)
    again = P.parse("pts", text)
    assert P.serialize(again) == text


def test_atlas_chart_must_cover_omega():
    with pytest.raises(P.ParseError):
        P.parse("atlas", "omega: 1 2 3\nchart: 1 | 2\n")


def test_pts_cells_preserved():
    pts = P.parse("pts", "base: 1 2 3 4\ntest: 1 | 3 4 | 2\ntest: 1 | 2 4 | 3\n")
    assert len(pts.cells) == 5
    assert len(pts.tests) == 2


# corpus registry ---------------------------------------------------------------


def test_corpus_has_expected_entries():
    ids = {e.id for e in P.corpus()}
    assert {
        "firefly",
        "wright",
        "fano",
        "fig12",
        "fig15",
        "fig16",
        "urn-firefly",
        "urn-wright",
        "pl-wright",
        "pl-fig12",
        "mealy-wright",
        "mealy-fig12",
        "nontransitive",
        "pts-firefly",
    } <= ids


def test_corpus_wright_shape():
    d = corpus_entry("wright").payload
    assert len(d.blocks) == 3
    assert all(len(b) == 3 for b in d.blocks)


def test_corpus_fano_shape():
    d = corpus_entry("fano").payload
    assert len(d.atoms) == 7
    assert len(d.blocks) == 7
    # each atom on three lines; lines pairwise meet in one atom
    import itertools

    for a in d.atoms:
        assert sum(a in blk for blk in d.blocks) == 3
    for b1, b2 in itertools.combinations(d.blocks, 2):
        assert len(set(b1) & set(b2)) == 1


def test_corpus_fig12_fourth_partition():
    pl = corpus_entry("pl-fig12").payload
    fourth = {frozenset(c) for c in pl.partitions[3]}
    assert fourth == {
        frozenset({"6"}),
        frozenset({"1", "3", "5"}),
        frozenset({"2", "4"}),
    }


def test_every_corpus_entry_verifies():
    for e in P.corpus():
        if e.kind in ("greechie", "partition_logic", "urn", "atlas"):
            assert P.verify_quasi_oa(P.as_table(e)).passed, e.id
        if e.kind == "atlas":
            assert P.verify_atlas(e.payload).passed
        if e.kind == "test_space":
            assert P.verify_test_space(e.payload.as_test_space()).passed
        if e.kind == "automaton":
            assert e.payload.states and e.payload.inputs


def test_every_corpus_entry_serializes_and_reparses():
    kind_map = {
        "greechie": "greechie",
        "partition_logic": "partition_logic",
        "urn": "urn",
        "atlas": "atlas",
        "test_space": "pts",
        "automaton": "mealy",
    }
    for e in P.corpus():
        text = P.serialize(e.payload)
        again = P.parse(kind_map[e.kind], text)
        assert P.serialize(again) == text, e.id
