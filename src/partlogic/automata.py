"""Moore/Mealy machines, preset experiments, and automaton logics."""

import itertools
from collections import deque
from functools import cached_property
from operator import add
from types import MappingProxyType

from .errors import StructureError
from .partition import PartitionLogic


def _positions(what, names):
    """Each name's position; raise on a name listed twice."""
    at = {x: i for i, x in enumerate(names)}
    if len(at) != len(names):
        repeated = next(x for i, x in enumerate(names) if at[x] != i)
        raise StructureError("duplicate %s %r" % (what, repeated))
    return at


class _Automaton:
    """A machine stored as its step table.

    `succ[j][i]` is the index of the state that input j leads state i into.
    A Mealy machine's `out[j][i]` is the index of the output it emits on that
    step; a Moore machine's `out[i]` is the index of the output of state i.
    `delta` and `lam` are read-only label views of the table.
    """

    def _set(self, states, inputs, outputs, succ, out):
        self.states = tuple(states)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.succ = succ
        self.out = out

    @classmethod
    def _from_table(cls, states, inputs, outputs, succ, out):
        """A machine from a table already known to be total and declared."""
        machine = cls.__new__(cls)
        machine._set(states, inputs, outputs, succ, out)
        return machine

    def __init__(self, states, inputs, outputs, delta, lam):
        """Raise unless the states, inputs and outputs are each distinct, the
        label dicts are total, every transition enters, every output is
        declared and a state exists; then set the table."""
        states, inputs, outputs = tuple(states), tuple(inputs), tuple(outputs)
        delta, lam = dict(delta), dict(lam)
        index = _positions("state", states)
        _positions("input", inputs)
        out_index = _positions("output", outputs)
        moore = self.kind == "moore"
        for q in states:
            if moore and q not in lam:
                raise StructureError("no output for state %r" % (q,))
            for a in inputs:
                if (q, a) not in delta:
                    raise StructureError("no transition for (%r, %r)" % (q, a))
                if not moore and (q, a) not in lam:
                    raise StructureError("no output for (%r, %r)" % (q, a))
        for (q, a), target in delta.items():
            if target not in index:
                raise StructureError(
                    "transition (%r, %r) enters undeclared state %r" % (q, a, target)
                )
        for where, out in lam.items():
            if out not in out_index:
                raise StructureError("output %r of %r is not declared" % (out, where))
        if not states:
            raise StructureError("empty state set")
        # look the pairs up state by state, the order in which a machine
        # text lists them, so the lookups walk the given dicts in memory order
        keys = list(itertools.product(states, inputs))
        m = len(inputs)
        succ = list(map(index.__getitem__, map(delta.__getitem__, keys)))
        if moore:
            out = [out_index[lam[q]] for q in states]
        else:
            out = list(map(out_index.__getitem__, map(lam.__getitem__, keys)))
            out = [out[j::m] for j in range(m)]
        self._set(states, inputs, outputs, [succ[j::m] for j in range(m)], out)

    @cached_property
    def delta(self):
        states = self.states
        return MappingProxyType({
            (q, a): states[row[i]]
            for i, q in enumerate(states)
            for a, row in zip(self.inputs, self.succ)
        })

    @cached_property
    def lam(self):
        outputs = self.outputs
        if self.kind == "moore":
            return MappingProxyType({q: outputs[o] for q, o in zip(self.states, self.out)})
        return MappingProxyType({
            (q, a): outputs[row[i]]
            for i, q in enumerate(self.states)
            for a, row in zip(self.inputs, self.out)
        })

    @cached_property
    def _keyed(self):
        """The step of each input: successor index and output key of every state.

        A Mealy step emits lambda(q, a), a Moore step the output
        lambda(delta(q, a)) of the state it enters.  Output keys are output
        indices times the state count, so an output key plus a class id
        below it is one int key per state.
        """
        n = len(self.states)
        if self.kind == "mealy":
            return [(s, [o * n for o in row]) for s, row in zip(self.succ, self.out)]
        keys = [o * n for o in self.out]
        return [(s, list(map(keys.__getitem__, s))) for s in self.succ]

    def __repr__(self):
        return "%s(%d states, %d inputs)" % (
            type(self).__name__,
            len(self.states),
            len(self.inputs),
        )


class MooreAutomaton(_Automaton):
    """Finite transducer emitting one output per state."""

    kind = "moore"


class MealyAutomaton(_Automaton):
    """Finite transducer emitting one output per transition."""

    kind = "mealy"


def _columns(machine, word):
    """The input index of each symbol of the word."""
    for a in word:
        if a not in machine.inputs:
            raise StructureError("symbol %r not in the input alphabet" % (a,))
    return [machine.inputs.index(a) for a in word]


def run(machine, q0, word, include_initial=False):
    """Feed a preset word and collect the outputs.

    Mealy machines emit one output per consumed symbol.  Moore machines
    emit the output of each state entered; the pre-input output of q0 is
    excluded unless include_initial is set (it carries no information about
    the input word).
    """
    if q0 not in machine.states:
        raise StructureError("unknown initial state %r" % (q0,))
    columns = _columns(machine, word)
    q = machine.states.index(q0)
    n, outputs, steps = len(machine.states), machine.outputs, machine._keyed
    emitted = []
    if machine.kind == "moore" and include_initial:
        emitted.append(outputs[machine.out[q]])
    for j in columns:
        succ, keys = steps[j]
        emitted.append(outputs[keys[q] // n])
        q = succ[q]
    return tuple(emitted)


def _refine(step, classes):
    """Class ids of a.w from the step of a and the class ids of w.

    Two states share a class of a.w when a emits the same output from both
    and leads them into one class of w.  Classes are numbered by their first
    state in declaration order, so equal partitions get equal tuples.
    """
    succ, out = step
    keys = list(map(add, out, map(classes.__getitem__, succ)))
    ids = dict(zip(dict.fromkeys(keys), itertools.count()))
    return tuple(map(ids.__getitem__, keys))


def _cells(states, classes):
    """The partition of the states that a tuple of class ids names.

    The ids are numbered as `_refine` numbers them, 0, 1, ... in order of
    first occurrence, so each id indexes its cell; one pass appends every
    state to its cell.
    """
    cells = [[] for _ in range(max(classes) + 1)]
    deque(map(list.append, map(cells.__getitem__, classes), states), maxlen=0)
    return tuple(map(frozenset, cells))


def experiment_partition(machine, word):
    """Group states indistinguishable by the word's output sequence.

    Cells are ordered by their first state in declaration order.
    """
    classes = (0,) * len(machine.states)
    for j in reversed(_columns(machine, word)):
        classes = _refine(machine._keyed[j], classes)
    return _cells(machine.states, classes)


def propositional_calculus(machine, max_word_length):
    """Partition logic of all experiments up to the given word length.

    A length of None means all words.  Experiments are enumerated
    length-lexicographically over the input alphabet in declaration order;
    duplicate partitions keep their first occurrence.  The partition of a.w
    depends only on a and the partition of w, so level l + 1 applies each
    input, in order, to the distinct partitions of level l in order of first
    occurrence.  Once a level adds no new partition, no later level can, and
    the search stops; as the states have finitely many partitions, it stops
    without a bound too.
    """
    if max_word_length is not None and max_word_length < 1:
        raise StructureError("max_word_length must be at least 1")
    steps = machine._keyed
    # level 0 is the empty word, whose partition has one cell
    level = dict.fromkeys([(0,) * len(machine.states)])
    found = {}
    lengths = itertools.count() if max_word_length is None else range(max_word_length)
    for _ in lengths:
        level = dict.fromkeys(_refine(s, c) for s in steps for c in level)
        if level.keys() <= found.keys():
            break
        found.update(level)
    # canonical class ids make distinct tuples distinct partitions
    return PartitionLogic._of_parts(machine.states, [_cells(machine.states, c) for c in found])


def partition_logic_to_mealy(pl):
    """A machine whose single-symbol experiments reproduce the logic.

    Input symbols are the partitions (serialized canonically), outputs are
    1-based cell indices in the partition's stored cell order, and every
    transition enters the first ground point.
    """
    # distinct partitions spell one symbol only when point names hold ',' or
    # '|', or two points print alike
    columns = {}
    for part in pl.partitions:
        symbol = "|".join(",".join(sorted(c, key=str)) for c in part)
        if symbol in columns:
            raise StructureError("two partitions spell the input %r" % (symbol,))
        cell_of = {q: i for i, cell in enumerate(part) for q in cell}
        columns[symbol] = [cell_of[q] for q in pl.ground]
    width = max(map(len, pl.partitions))
    outputs = [str(i) for i in range(1, width + 1)]
    # every transition enters the first ground point, index 0
    sink = [0] * len(pl.ground)
    return MealyAutomaton._from_table(
        pl.ground, list(columns), outputs, [sink] * len(columns), list(columns.values())
    )
