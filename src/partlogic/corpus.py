"""Bundled worked structures: the standard small logics and their models.

Every entry passes its kind's verifier; ids are stable and usable as
``corpus:<id>`` sources on the command line.  Partition-logic entries keep
their traditional cell order so that realization machines reproduce the
classic output tables.
"""

import functools
from dataclasses import dataclass

from .atlas import BooleanAtlas, BooleanChart, atlas_to_quasi_oa
from .automata import partition_logic_to_mealy
from .errors import StructureError
from .oa import GreechieDiagram, from_greechie
from .partition import PartitionLogic, UrnModel, pasting_to_oa, urn_to_partition_logic
from .testspace import PartitionTestSpace

# each table-like source kind's pasting into a quasi-orthoalgebra
TO_TABLE = {
    "greechie": from_greechie,
    "partition_logic": pasting_to_oa,
    "urn": lambda urn: pasting_to_oa(urn_to_partition_logic(urn)),
    "atlas": atlas_to_quasi_oa,
}


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    kind: str
    payload: object
    summary: str


def _greechie(spec):
    blocks = [b.split() for b in spec.split(";")]
    return GreechieDiagram(dict.fromkeys(a for blk in blocks for a in blk), blocks)


def _pl(points, parts):
    return PartitionLogic(
        points.split(),
        [[frozenset(c.split()) for c in p.split("|")] for p in parts],
    )


@functools.cache
def corpus():
    """All bundled entries, in registry order."""
    entries = []

    def add(eid, kind, payload, summary):
        entries.append(CorpusEntry(eid, kind, payload, summary))

    add(
        "firefly",
        "greechie",
        _greechie("l r n; f b n"),
        "two 3-atom blocks sharing one atom; pastes to a 12-element logic",
    )
    add(
        "wright",
        "greechie",
        _greechie("a b c; c d e; e f a"),
        "three 3-atom blocks in a loop; a 14-element orthoalgebra, not an OMP",
    )
    add(
        "fano",
        "greechie",
        _greechie("a b c; a d e; c f e; a g f; c g d; e g b; b d f"),
        "seven atoms on seven 3-atom lines; admits no two-valued state",
    )
    add(
        "fig12",
        "greechie",
        _greechie("a b c; c d e; a e f; e g h; h i c"),
        "five 3-atom blocks; a 20-element orthoalgebra with six two-valued states",
    )
    add(
        "fig15",
        "greechie",
        _greechie("a b c; c d e; a f e; e g h; h i j; e k j"),
        "two triangle logics glued at one corner atom",
    )
    add(
        "fig16",
        "greechie",
        _greechie("a b c; c d e; a f e; d g h; h i j; j k d"),
        "two triangle logics glued at one side atom",
    )
    add(
        "urn-firefly",
        "urn",
        UrnModel(
            "1 2 3 4 5".split(),
            ("red", "green"),
            {
                ("1", "red"): "l", ("1", "green"): "b",
                ("2", "red"): "l", ("2", "green"): "f",
                ("3", "red"): "r", ("3", "green"): "b",
                ("4", "red"): "r", ("4", "green"): "f",
                ("5", "red"): "n", ("5", "green"): "n",
            },
        ),
        "five ball types under two color filters; models the firefly logic",
    )
    add(
        "urn-wright",
        "urn",
        UrnModel(
            "1 2 3 4".split(),
            ("red", "green", "blue"),
            {
                ("1", "red"): "a", ("1", "green"): "a", ("1", "blue"): "d",
                ("2", "red"): "c", ("2", "green"): "f", ("2", "blue"): "c",
                ("3", "red"): "b", ("3", "green"): "e", ("3", "blue"): "e",
                ("4", "red"): "b", ("4", "green"): "f", ("4", "blue"): "d",
            },
        ),
        "four ball types under three color filters; models the triangle logic",
    )
    wright = _pl("1 2 3 4", ["1 | 2 | 3 4", "2 | 3 | 1 4", "1 | 3 | 2 4"])
    fig12 = _pl(
        "1 2 3 4 5 6",
        [
            "1 2 | 3 4 6 | 5",
            "5 | 1 2 3 4 | 6",
            "1 2 | 3 4 5 | 6",
            "6 | 1 3 5 | 2 4",
            "2 4 | 1 3 6 | 5",
        ],
    )
    add(
        "pl-wright",
        "partition_logic",
        wright,
        "three partitions of four points; pastes to the triangle logic",
    )
    add(
        "pl-fig12",
        "partition_logic",
        fig12,
        "five partitions of six points; pastes to the fig12 logic",
    )
    add(
        "mealy-wright",
        "automaton",
        partition_logic_to_mealy(wright),
        "four-state Mealy machine whose experiments realize the triangle logic",
    )
    add(
        "mealy-fig12",
        "automaton",
        partition_logic_to_mealy(fig12),
        "six-state Mealy machine whose experiments realize the fig12 logic",
    )
    add(
        "nontransitive",
        "atlas",
        BooleanAtlas(
            [
                BooleanChart.from_cells(
                    [frozenset(c.split()) for c in "1 | 2 | 3 | 4 | 5 6".split("|")]
                ),
                BooleanChart.from_cells(
                    [frozenset(c.split()) for c in "1 | 2 | 3 4 | 5 | 6".split("|")]
                ),
            ]
        ),
        "two charts over six points whose union has a non-transitive order",
    )
    add(
        "pts-firefly",
        "test_space",
        PartitionTestSpace(
            "1 2 3 4".split(),
            [
                frozenset({"1"}),
                frozenset({"3", "4"}),
                frozenset({"2"}),
                frozenset({"2", "4"}),
                frozenset({"3"}),
            ],
            [
                frozenset(
                    {frozenset({"1"}), frozenset({"3", "4"}), frozenset({"2"})}
                ),
                frozenset(
                    {frozenset({"1"}), frozenset({"2", "4"}), frozenset({"3"})}
                ),
            ],
        ),
        "partition test space over four points; its class logic is the firefly",
    )
    return tuple(entries)


def get(entry_id):
    for e in corpus():
        if e.id == entry_id:
            return e
    raise StructureError("no corpus entry named %r" % entry_id)


def _to_table(kind, payload, source):
    """Paste a table-like source into a quasi-orthoalgebra by its kind."""
    build = TO_TABLE.get(kind)
    if build is None:
        raise StructureError("source %s (%s) does not define a logic table" % (source, kind))
    return build(payload)


def as_table(entry):
    """Paste a table-like entry into a quasi-orthoalgebra."""
    return _to_table(entry.kind, entry.payload, "corpus:" + entry.id)
