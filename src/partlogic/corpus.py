"""Bundled worked structures: the standard small logics and their models.

Every entry is written in its kind's text format and read by
`formats.parse_any`, so it passes the same reader and checks as a file;
ids are stable and usable as ``corpus:<id>`` sources on the command line.
Partition-logic entries keep their traditional cell order so that
realization machines reproduce the classic output tables.
"""

import functools
from dataclasses import dataclass

from .atlas import atlas_to_quasi_oa
from .automata import partition_logic_to_mealy
from .errors import StructureError
from .formats import SOURCE_KIND, parse_any
from .oa import from_greechie
from .partition import pasting_to_oa, urn_to_partition_logic

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


# (id, summary, source) in registry order; a source is the entry's text, or
# the id of the earlier partition logic whose realization machine it is.
# Diagrams declare their atoms in order of first appearance.
_ENTRIES = (
    ("firefly", "two 3-atom blocks sharing one atom; pastes to a 12-element logic", """
        atoms: l r n f b
        block: l r n
        block: f b n"""),
    ("wright", "three 3-atom blocks in a loop; a 14-element orthoalgebra, not an OMP", """
        atoms: a b c d e f
        block: a b c
        block: c d e
        block: e f a"""),
    ("fano", "seven atoms on seven 3-atom lines; admits no two-valued state", """
        atoms: a b c d e f g
        block: a b c
        block: a d e
        block: c f e
        block: a g f
        block: c g d
        block: e g b
        block: b d f"""),
    ("fig12", "five 3-atom blocks; a 20-element orthoalgebra with six two-valued states", """
        atoms: a b c d e f g h i
        block: a b c
        block: c d e
        block: a e f
        block: e g h
        block: h i c"""),
    ("fig15", "two triangle logics glued at one corner atom", """
        atoms: a b c d e f g h i j k
        block: a b c
        block: c d e
        block: a f e
        block: e g h
        block: h i j
        block: e k j"""),
    ("fig16", "two triangle logics glued at one side atom", """
        atoms: a b c d e f g h i j k
        block: a b c
        block: c d e
        block: a f e
        block: d g h
        block: h i j
        block: j k d"""),
    ("urn-firefly", "five ball types under two color filters; models the firefly logic", """
        balls: 1 2 3 4 5
        colors: red green
        ball: 1 l b
        ball: 2 l f
        ball: 3 r b
        ball: 4 r f
        ball: 5 n n"""),
    ("urn-wright", "four ball types under three color filters; models the triangle logic", """
        balls: 1 2 3 4
        colors: red green blue
        ball: 1 a a d
        ball: 2 c f c
        ball: 3 b e e
        ball: 4 b f d"""),
    ("pl-wright", "three partitions of four points; pastes to the triangle logic", """
        points: 1 2 3 4
        partition: 1 | 2 | 3 4
        partition: 2 | 3 | 1 4
        partition: 1 | 3 | 2 4"""),
    ("pl-fig12", "five partitions of six points; pastes to the fig12 logic", """
        points: 1 2 3 4 5 6
        partition: 1 2 | 3 4 6 | 5
        partition: 5 | 1 2 3 4 | 6
        partition: 1 2 | 3 4 5 | 6
        partition: 6 | 1 3 5 | 2 4
        partition: 2 4 | 1 3 6 | 5"""),
    ("mealy-wright",
     "four-state Mealy machine whose experiments realize the triangle logic", "pl-wright"),
    ("mealy-fig12",
     "six-state Mealy machine whose experiments realize the fig12 logic", "pl-fig12"),
    ("nontransitive", "two charts over six points whose union has a non-transitive order", """
        omega: 1 2 3 4 5 6
        chart: 1 | 2 | 3 | 4 | 5 6
        chart: 1 | 2 | 3 4 | 5 | 6"""),
    ("pts-firefly", "partition test space over four points; its class logic is the firefly", """
        base: 1 2 3 4
        test: 1 | 3 4 | 2
        test: 1 | 2 4 | 3"""),
)


@functools.cache
def corpus():
    """All bundled entries, in registry order."""
    entries = {}
    for eid, summary, source in _ENTRIES:
        if source in entries:
            kind, payload = "automaton", partition_logic_to_mealy(entries[source].payload)
        else:
            kind, payload = parse_any(source)
        entries[eid] = CorpusEntry(eid, SOURCE_KIND.get(kind, kind), payload, summary)
    return tuple(entries.values())


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
