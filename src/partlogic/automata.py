"""Moore/Mealy machines, preset experiments, and automaton logics."""

import itertools

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
