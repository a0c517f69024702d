"""Moore/Mealy machines, preset experiments, and automaton logics."""

import itertools
from operator import add

from .errors import StructureError
from .partition import PartitionLogic


def _check_declared(machine):
    """Raise unless every transition enters and every output is declared."""
    states = set(machine.states)
    outputs = set(machine.outputs)
    for (q, a), target in machine.delta.items():
        if target not in states:
            raise StructureError(
                "transition (%r, %r) enters undeclared state %r" % (q, a, target)
            )
    for where, out in machine.lam.items():
        if out not in outputs:
            raise StructureError("output %r of %r is not declared" % (out, where))


class MooreAutomaton:
    """Finite transducer emitting one output per state."""

    kind = "moore"

    def __init__(self, states, inputs, outputs, delta, lam):
        self.states = tuple(states)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.delta = dict(delta)
        self.lam = dict(lam)
        for q in self.states:
            if q not in self.lam:
                raise StructureError("no output for state %r" % (q,))
            for a in self.inputs:
                if (q, a) not in self.delta:
                    raise StructureError("no transition for (%r, %r)" % (q, a))
        _check_declared(self)

    def __repr__(self):
        return "MooreAutomaton(%d states, %d inputs)" % (
            len(self.states),
            len(self.inputs),
        )


class MealyAutomaton:
    """Finite transducer emitting one output per transition."""

    kind = "mealy"

    def __init__(self, states, inputs, outputs, delta, lam):
        self.states = tuple(states)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.delta = dict(delta)
        self.lam = dict(lam)
        for q in self.states:
            for a in self.inputs:
                if (q, a) not in self.delta:
                    raise StructureError("no transition for (%r, %r)" % (q, a))
                if (q, a) not in self.lam:
                    raise StructureError("no output for (%r, %r)" % (q, a))
        _check_declared(self)

    def __repr__(self):
        return "MealyAutomaton(%d states, %d inputs)" % (
            len(self.states),
            len(self.inputs),
        )


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


def _steps(machine, word):
    """The step of each symbol: successor index and output id of every state.

    A Mealy step emits lambda(q, a), a Moore step the output lambda(delta(q, a))
    of the state it enters.  Output ids are multiples of the state count, so
    an output id plus a class id below it is one int key per state.
    """
    states = machine.states
    index = {q: i for i, q in enumerate(states)}
    out_id = {o: k * len(states) for k, o in enumerate(machine.outputs)}
    # look the pairs up state by state, the order in which a machine text
    # lists them, so the lookups walk the parsed dicts in memory order
    keys = list(itertools.product(states, word))
    targets = list(map(machine.delta.__getitem__, keys))
    emitted = map(machine.lam.__getitem__, keys if machine.kind == "mealy" else targets)
    succ = list(map(index.__getitem__, targets))
    out = list(map(out_id.__getitem__, emitted))
    m = len(word)
    return [(succ[j::m], out[j::m]) for j in range(m)]


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


def experiment_partition(machine, word):
    """Group states indistinguishable by the word's output sequence.

    Cells are ordered by their first state in declaration order.
    """
    for a in word:
        if a not in machine.inputs:
            raise StructureError("symbol %r not in the input alphabet" % (a,))
    classes = (0,) * len(machine.states)
    for step in reversed(_steps(machine, word)):
        classes = _refine(step, classes)
    return _cells(machine.states, classes)


def propositional_calculus(machine, max_word_length):
    """Partition logic of all experiments up to the given word length.

    Experiments are enumerated length-lexicographically over the input
    alphabet in declaration order; duplicate partitions keep their first
    occurrence.  The partition of a.w depends only on a and the partition
    of w, so level l + 1 applies each input, in order, to the distinct
    partitions of level l in order of first occurrence.  Once a level adds
    no new partition, no later level can, and the search stops.
    """
    if max_word_length < 1:
        raise StructureError("max_word_length must be at least 1")
    steps = _steps(machine, machine.inputs)
    # level 0 is the empty word, whose partition has one cell
    level = dict.fromkeys([(0,) * len(machine.states)])
    found = {}
    for _ in range(max_word_length):
        level = dict.fromkeys(_refine(s, c) for s in steps for c in level)
        if level.keys() <= found.keys():
            break
        found.update(level)
    return PartitionLogic(machine.states, [_cells(machine.states, c) for c in found])


def partition_logic_to_mealy(pl):
    """A machine whose single-symbol experiments reproduce the logic.

    Input symbols are the partitions (serialized canonically), outputs are
    1-based cell indices in the partition's stored cell order, and every
    transition enters the first ground point.
    """
    sink = pl.ground[0]
    inputs = []
    delta = {}
    lam = {}
    max_cells = 0
    for part in pl.partitions:
        symbol = "|".join(",".join(sorted(c, key=str)) for c in part)
        inputs.append(symbol)
        max_cells = max(max_cells, len(part))
        for q in pl.ground:
            delta[(q, symbol)] = sink
            for i, cell in enumerate(part, start=1):
                if q in cell:
                    lam[(q, symbol)] = str(i)
    outputs = [str(i) for i in range(1, max_cells + 1)]
    return MealyAutomaton(pl.ground, inputs, outputs, delta, lam)
