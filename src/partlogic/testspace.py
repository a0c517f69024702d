"""Foulis-Randall test spaces: events, perspectivity, weights, partition test spaces.

Each distinct test's events are listed once, as int masks over the outcome
positions, by bitmask over the test's outcomes.  Outcome p is bit n-1-p, so
the canonical (size, outcome) order of events is `oa._in_order`'s.
`is_algebraic`, `pi_logic` and `omp_conditions` read those masks and make
frozensets only for what they return: `events()`, the witnesses and the
pi-logic's class labels.  `pi_logic` takes its perspectivity classes from
`oa._perspective_classes`, which pastes Greechie diagrams too:
`from_greechie` is the logic of a diagram's test space, its classes named by
atoms rather than by their smallest events.

Two-valued weights and completions are exact covers, found by the search
in `cover.py`.  For weights the columns are the tests and the rows the
outcomes (`_weight_rows`, the `cover._transpose` of the tests' outcome
masks); an outcome in no test is free.  For completions
the columns are the base points and the rows the cells.  A listed weight
keeps its row of `cover._matrix` and builds its values on first use.
`ts_to_partition_test_space` takes the outcomes' columns, and their first
inseparable pair, from `cover._columns`, and reads the columns as point
sets.  Each weight is an exact cover, so every test partitions the weights;
the tests `completion` adds are exact covers too, and those of
`partition_logic_to_pts` come from a checked `PartitionLogic`, so these
three skip the constructor's checks.

`omp_conditions` reads each test's disjoint event pairs off `_insides` by
`oa._splits`, into one orthogonality bitmask over event indices per event,
and the events holding each outcome off `cover._transpose`.
"""

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .atlas import PropertyCheck
from .cover import _columns, _cross, _exact_covers, _matrix, _transpose, count_exact_covers
from .errors import AlgebraicityError, SeparationError, StructureError
from .oa import (
    AxiomReport,
    FiniteQuasiOrthoalgebra,
    Violation,
    _in_order,
    _perspective_classes,
    _splits,
    bits,
    block_sums,
    cell_key,
    format_label,
    subset_unions,
)
from .partition import PartitionLogic


class TestSpace:
    """An outcome set with a family of tests covering it."""

    def __init__(self, outcomes, tests):
        self.outcomes = tuple(outcomes)
        self.tests = tuple(frozenset(t) for t in tests)
        if not self.outcomes:
            raise StructureError("empty outcome set")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise StructureError("duplicate outcome")
        if not self.tests:
            raise StructureError("no tests")
        known = set(self.outcomes)
        for t in self.tests:
            if not t <= known:
                raise StructureError("test mentions an undeclared outcome")
        self._position = {x: i for i, x in enumerate(self.outcomes)}

    @classmethod
    def from_greechie(cls, diagram):
        """Read a diagram as a test space: atoms are outcomes, blocks tests."""
        return cls(diagram.atoms, [frozenset(b) for b in diagram.blocks])

    def __repr__(self):
        return "TestSpace(%d outcomes, %d tests)" % (
            len(self.outcomes),
            len(self.tests),
        )

    def _key(self, outcome):
        return self._position[outcome]

    def event_key(self, event):
        return (len(event), tuple(sorted(self._key(x) for x in event)))

    @functools.cached_property
    def _insides(self):
        """Each distinct test's event masks, listed by bitmask over its outcomes.

        Outcome p is bit n-1-p of an event mask, so a test's outcomes, in
        position order, are its bits from the highest down.
        """
        last = len(self.outcomes) - 1
        return [
            subset_unions(sorted([1 << last - self._position[x] for x in t], reverse=True), 0)
            for t in dict.fromkeys(self.tests)
        ]

    def _event_masks(self):
        """The distinct event masks in canonical order."""
        return _in_order({e for inside in self._insides for e in inside})

    def _event(self, mask):
        """The event of a mask, as a frozenset of outcomes."""
        outcomes, top = [], len(self.outcomes)
        while mask:
            low = mask & -mask
            outcomes.append(self.outcomes[top - low.bit_length()])
            mask ^= low
        return frozenset(outcomes)

    def events(self):
        """All subsets of tests, deduplicated, in (size, outcome) order."""
        return [self._event(e) for e in self._event_masks()]

    def is_event(self, subset):
        subset = frozenset(subset)
        return any(subset <= t for t in self.tests)

    def local_complements(self, event):
        """Events G with event + G disjoint and united into a full test."""
        out = set()
        for t in self.tests:
            if event <= t:
                out.add(t - event)
        return out


class PartitionTestSpace:
    """Cells over a base set; every test is a partition of the base."""

    def __init__(self, base, cells, tests):
        self.base = tuple(base)
        self.cells = tuple(dict.fromkeys(map(frozenset, cells)))
        self.tests = tuple(frozenset(map(frozenset, t)) for t in tests)
        pts = set(self.base)
        if not pts:
            raise StructureError("empty base set")
        if len(pts) != len(self.base):
            raise StructureError("duplicate base point")
        cellset = set(self.cells)
        for t in self.tests:
            if not t <= cellset:
                raise StructureError("test uses an undeclared cell")
            covered = set().union(*t)
            if len(covered) != sum(map(len, t)):
                raise StructureError("test cells overlap")
            if covered != pts:
                raise StructureError("test is not a partition of the base")
        # cells unused by any test are tolerated here: completion may later
        # assemble them into new tests; the verifier reports them as a
        # covering violation
        for cell in self.cells:
            if not cell:
                raise StructureError("empty cell")
            if not cell <= pts:
                raise StructureError("cell leaves the base set")

    @classmethod
    def _of_parts(cls, base, cells, tests):
        """A space from distinct cells and tests known to partition base."""
        pts = cls.__new__(cls)
        pts.base, pts.cells, pts.tests = tuple(base), tuple(cells), tuple(tests)
        return pts

    def as_test_space(self):
        """Reinterpret with outcome set Y = cells."""
        ordered = sorted(self.cells, key=cell_key)
        return TestSpace(ordered, self.tests)

    def __repr__(self):
        return "PartitionTestSpace(%d base points, %d cells, %d tests)" % (
            len(self.base),
            len(self.cells),
            len(self.tests),
        )


def verify_test_space(ts):
    """Covering plus antichain checks, with witnesses."""
    found = []
    covered = set().union(*ts.tests) if ts.tests else set()
    for x in ts.outcomes:
        if x not in covered:
            found.append(Violation("test-space-covering", (x,)))
            break
    for s, t in itertools.permutations(ts.tests, 2):
        if s < t:
            found.append(Violation("test-space-antichain", (s, t)))
            break
    cls = "test_space" if not found else "not_test_space"
    return AxiomReport(cls, tuple(found))


@dataclass(frozen=True)
class EventRelations:
    orthogonal: bool
    loc: bool
    perspective: bool
    axes: tuple


def event_relations(ts, f, g):
    """Orthogonality, local complementation, and perspectivity of two events."""
    f = frozenset(f)
    g = frozenset(g)
    for ev in (f, g):
        if not ts.is_event(ev):
            raise StructureError("%s is not an event" % format_label(ev))
    orth = not (f & g) and any(f | g <= t for t in ts.tests)
    loc = orth and (f | g) in ts.tests
    axes = sorted(
        ts.local_complements(f) & ts.local_complements(g), key=ts.event_key
    )
    return EventRelations(orth, loc, bool(axes), tuple(axes))


def is_algebraic(ts):
    """Perspectivity must respect local complementation.

    Returns a PropertyCheck; the witness is the first (F, G, H) with
    F ~ G, F loc H but not G loc H, scanning events in canonical order.
    That happens iff two events sharing a local complement differ in one.
    """
    # reversing a test's events, listed by bitmask, pairs h with t - h; the
    # pairs run both ways, so locs[h] is also the set of events sharing h
    locs = defaultdict(set)
    for inside in ts._insides:
        for h, rest in zip(inside, reversed(inside)):
            locs[h].add(rest)
    if all(len(gs) == 1 or len({frozenset(locs[g]) for g in gs}) == 1 for gs in locs.values()):
        return PropertyCheck(True)
    for f in ts._event_masks():
        perspective = set().union(*(locs[h] for h in locs[f]))
        for g in _in_order(perspective):
            missing = locs[f] - locs[g]
            if missing:
                witness = f, g, _in_order(missing)[0]
                return PropertyCheck(False, tuple(map(ts._event, witness)))
    return PropertyCheck(True)


def pi_logic(ts):
    """The orthoalgebra of perspectivity classes of events.

    Requires an algebraic test space.  Class labels are the canonical
    (smallest) representative events; the sum of two classes glues any
    orthogonal pair of representatives.
    """
    check = is_algebraic(ts)
    if not check:
        raise AlgebraicityError(
            "test space is not algebraic", witness=check.witness
        )
    class_of = _perspective_classes(ts._insides)
    # the masks ascend in canonical order, so each class meets its smallest
    # first and the representatives ascend too
    rep = {}
    for e in ts._event_masks():
        rep.setdefault(class_of[e], e)
    label = {root: ts._event(e) for root, e in rep.items()}
    pieces = [[label[class_of[e]] for e in inside] for inside in ts._insides]
    # on an algebraic test space the sum of two classes is well-defined
    oplus, _ = block_sums(pieces)
    # a piece runs from the empty event to its whole test, and all tests
    # are perspective through the empty event, so they form the class 1
    zero, one = pieces[0][0], pieces[0][-1]
    return FiniteQuasiOrthoalgebra(list(label.values()), zero, one, oplus)


_VALUES = (Fraction(0), Fraction(1))


class Weight:
    """Total rational map on outcomes summing to 1 on every test."""

    def __init__(self, space, values):
        self.space = space
        self.values = {x: Fraction(values[x]) for x in space.outcomes}

    @functools.cached_property
    def values(self):
        """The map outcome -> Fraction; a listed weight builds it on first use."""
        return dict(zip(self.space.outcomes, map(_VALUES.__getitem__, self._row)))

    def __call__(self, x):
        return self.values[x]

    def row(self, outcomes=None):
        outcomes = outcomes if outcomes is not None else self.space.outcomes
        return tuple(self.values[x] for x in outcomes)

    def __repr__(self):
        ones = [str(x) for x in self.space.outcomes if self.values[x] == 1]
        return "Weight(1 on %s)" % ",".join(ones)


def is_weight(ts, w):
    for x in ts.outcomes:
        if not 0 <= w(x) <= 1:
            return False
    return all(sum(w(x) for x in t) == 1 for t in ts.tests)


def _weight_rows(ts):
    """Exact-cover rows of the two-valued weights: columns are the tests.

    Row n-1-i is the mask of tests holding outcome i (0 if it is free), so a
    cover's row mask is the mask of outcomes its weight values 1, and the
    masks ascend in the order of the weights' value vectors.
    """
    last = len(ts.outcomes) - 1
    tests = [sum(1 << last - ts._position[x] for x in t) for t in ts.tests]
    return _transpose(tests, last + 1)


def _two_valued_matrix(ts):
    """The value vectors of the two-valued weights, in order, as 0/1 byte rows."""
    rows = _weight_rows(ts)
    free = [[0, 1 << r] for r, row in enumerate(rows) if not row]
    masks = sorted(_cross([_exact_covers(len(ts.tests), rows), *free]))
    return _matrix(masks, len(rows))


def enumerate_two_valued_weights(ts):
    """All {0,1} weights (one outcome valued 1 per test), by value vector."""
    n = len(ts.outcomes)
    m = _two_valued_matrix(ts)
    weights, new = [], Weight.__new__
    for k in range(0, len(m), n):
        weight = new(Weight)
        weight.space, weight._row = ts, m[k:k + n]
        weights.append(weight)
    return weights


def count_two_valued_weights(ts):
    """len(enumerate_two_valued_weights(ts)), found without listing them."""
    rows = _weight_rows(ts)
    return count_exact_covers(len(ts.tests), rows) << rows.count(0)


def ts_to_partition_test_space(ts):
    """Represent a test space over its two-valued weights.

    Each outcome becomes the set of weights valuing it 1; each test becomes
    a partition of the weight set.  Requires the weights to separate
    outcomes and each outcome to be valued 1 by some weight.
    """
    m = _two_valued_matrix(ts)
    if not m:
        raise SeparationError("no separating two-valued weights")
    columns, twins = _columns(ts.outcomes, m)
    if twins is not None:
        raise SeparationError("outcomes %r and %r are inseparable" % twins, pair=twins)
    for x, column in zip(ts.outcomes, columns):
        if 1 not in column:
            raise SeparationError("no two-valued weight values outcome %r at 1" % (x,))
    # each weight is an exact cover: it values one outcome of each test 1,
    # so every test partitions the weights
    names = ["w%d" % (k + 1) for k in range(len(m) // len(ts.outcomes))]
    cells = [frozenset(itertools.compress(names, column)) for column in columns]
    phi = dict(zip(ts.outcomes, cells))
    tests = [frozenset(map(phi.__getitem__, t)) for t in ts.tests]
    return PartitionTestSpace._of_parts(names, cells, tests)


def _partitions(pts):
    """All partitions of the base composed of declared cells.

    They come in depth-first order: each cover's cells sorted by their least
    label, compared cell by cell on `cell_key`.
    """
    bit = {p: 1 << i for i, p in enumerate(pts.base)}
    rows = [sum(bit[p] for p in c) for c in pts.cells]
    keys = [cell_key(c) for c in pts.cells]
    covers = sorted(
        _exact_covers(len(pts.base), rows),
        key=lambda cover: sorted(keys[r] for r in bits(cover)),
    )
    return [frozenset(pts.cells[r] for r in bits(cover)) for cover in covers]


def completion(pts):
    """Add every partition of the base formable from the declared cells."""
    existing = set(pts.tests)
    added = [c for c in _partitions(pts) if c not in existing]
    return PartitionTestSpace._of_parts(pts.base, pts.cells, list(pts.tests) + added)


def is_complete(pts):
    """True iff completion adds no test; the witness is the first it adds."""
    added = completion(pts).tests[len(pts.tests):]
    return PropertyCheck(not added, added[:1] or None)


def pts_to_partition_logic(pts):
    """Tests become partitions of the base; cell order is canonical."""
    partitions = [sorted(t, key=cell_key) for t in pts.tests]
    return PartitionLogic(pts.base, partitions)


def partition_logic_to_pts(pl):
    """Cells of all partitions become outcomes; partitions become tests."""
    cells = dict.fromkeys(c for part in pl.partitions for c in part)
    tests = [frozenset(part) for part in pl.partitions]
    # PartitionLogic checked that each partition partitions the ground
    return PartitionTestSpace._of_parts(pl.ground, cells, tests)


@dataclass(frozen=True)
class OmpConditions:
    triple_condition: bool
    triple_witness: tuple | None
    concrete_condition: bool
    concrete_witness: tuple | None


def omp_conditions(pts):
    """The two sufficient conditions for the class logic to be a (concrete) OMP.

    triple: pairwise orthogonal events E, F, G force (E u F) orthogonal G.
    concrete: disjoint unions coincide with event orthogonality.
    """
    ts = pts.as_test_space()
    events = ts._event_masks()
    index = {e: i for i, e in enumerate(events)}

    # orth[i]: the events disjoint from event i and inside a common test,
    # read off each test's (left, right, union) triples; joined[i, j]: i u j
    orth = [0] * len(events)
    joined = {}
    for inside in ts._insides:
        ids = [index[e] for e in inside]
        for left, right, both in _splits(len(ids).bit_length() - 1):
            i, j = ids[left], ids[right]
            orth[i] |= 1 << j
            joined[i, j] = ids[both]

    triple_witness = None
    for i, oi in enumerate(orth):
        for j in bits(oi):
            bad = oi & orth[j] & ~orth[joined[i, j]]
            if bad:
                g = (bad & -bad).bit_length() - 1
                triple_witness = tuple(map(ts._event, (events[i], events[j], events[g])))
                break
        if triple_witness:
            break

    point = {p: 1 << k for k, p in enumerate(pts.base)}
    # cover[b]: the points of the cell that is outcome bit b; holding[b]:
    # the events holding that outcome; near[b]: those holding a cell it meets
    cover = [sum(point[p] for p in x) for x in reversed(ts.outcomes)]
    holding = _transpose(events, len(cover))
    near = [0] * len(cover)
    for b, c in enumerate(cover):
        for d, h in zip(cover, holding):
            if c & d:
                near[b] |= h
    # orthogonal events are disjoint cells of one test, so a fault is a later
    # event that shares no point with event i and is not orthogonal to it
    everything = (1 << len(events)) - 1
    concrete_witness = None
    for i, e in enumerate(events):
        meets = 0
        for b in bits(e):
            meets |= near[b]
        faults = everything & -(2 << i) & ~(meets | orth[i])
        if faults:
            j = (faults & -faults).bit_length() - 1
            concrete_witness = (ts._event(e), ts._event(events[j]))
            break
    return OmpConditions(
        triple_witness is None,
        triple_witness,
        concrete_witness is None,
        concrete_witness,
    )
