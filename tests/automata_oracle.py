"""Verbatim copies of the word-enumerating experiment code, as a test oracle.

`run` is called once per state and word, and `propositional_calculus` runs
every word up to the length bound.  The library now derives each partition
from the partition of its suffix; these copies are what it is checked
against.  `_refine` and `_cells` are copies of the suffix-refining helpers
as they were written with one Python step per state, before they became
passes of `map` and `dict.fromkeys`.
"""

import itertools
from operator import add

from partlogic.errors import StructureError
from partlogic.partition import PartitionLogic


def run(machine, q0, word, include_initial=False):
    """Feed a preset word and collect the outputs.

    Mealy machines emit one output per consumed symbol.  Moore machines
    emit the output of each state entered; the pre-input output of q0 is
    excluded unless include_initial is set (it carries no information about
    the input word).
    """
    if q0 not in machine.states:
        raise StructureError("unknown initial state %r" % (q0,))
    for a in word:
        if a not in machine.inputs:
            raise StructureError("symbol %r not in the input alphabet" % (a,))
    out = []
    if machine.kind == "moore" and include_initial:
        out.append(machine.lam[q0])
    q = q0
    for a in word:
        if machine.kind == "mealy":
            out.append(machine.lam[(q, a)])
            q = machine.delta[(q, a)]
        else:
            q = machine.delta[(q, a)]
            out.append(machine.lam[q])
    return tuple(out)


def experiment_partition(machine, word):
    """Group states indistinguishable by the word's output sequence.

    Cells are ordered by their first state in declaration order.
    """
    groups = {}
    for q in machine.states:
        groups.setdefault(run(machine, q, word), []).append(q)
    return tuple(frozenset(g) for g in groups.values())


def _words(inputs, max_len):
    for length in range(1, max_len + 1):
        for w in itertools.product(inputs, repeat=length):
            yield w


def propositional_calculus(machine, max_word_length):
    """Partition logic of all experiments up to the given word length.

    Experiments are enumerated length-lexicographically over the input
    alphabet in declaration order; duplicate partitions keep their first
    occurrence.
    """
    if max_word_length < 1:
        raise StructureError("max_word_length must be at least 1")
    partitions = []
    for w in _words(machine.inputs, max_word_length):
        partitions.append(experiment_partition(machine, w))
    return PartitionLogic(machine.states, partitions)


def _refine(step, classes):
    """Class ids of a.w from the step of a and the class ids of w.

    Two states share a class of a.w when a emits the same output from both
    and leads them into one class of w.  Classes are numbered by their first
    state in declaration order, so equal partitions get equal tuples.
    """
    succ, out = step
    ids = {}
    keys = map(add, out, map(classes.__getitem__, succ))
    return tuple([ids.setdefault(k, len(ids)) for k in keys])


def _cells(states, classes):
    """The partition of the states that a tuple of class ids names."""
    cells = {}
    for q, c in zip(states, classes):
        cells.setdefault(c, []).append(q)
    return tuple(frozenset(g) for g in cells.values())
