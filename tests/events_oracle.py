"""The frozenset event code of `partlogic.testspace`, kept verbatim as test oracles.

Before test spaces listed events as int masks over the outcome positions,
`TestSpace._insides` listed each distinct test's events as frozensets, and
`events`, `is_algebraic`, `pi_logic` and `omp_conditions` read those.  The
copies below are the old bodies; only the imports differ, and the method
`_insides` and `events` became functions of the space, so `ts._insides`
reads `_insides(ts)` and `ts.events()` reads `_events(ts)`.
`tests/test_events_oracle.py` compares them with the mask code.
"""

import itertools
from collections import defaultdict

from partlogic.atlas import PropertyCheck
from partlogic.errors import AlgebraicityError
from partlogic.oa import (
    FiniteQuasiOrthoalgebra,
    _perspective_classes,
    _splits,
    bits,
    block_sums,
    subsets,
)
from partlogic.testspace import OmpConditions


def _insides(ts):
    """Each distinct test's events, listed by bitmask over its outcomes."""
    return [subsets(sorted(t, key=ts._key)) for t in dict.fromkeys(ts.tests)]


def _events(ts):
    """All subsets of tests, deduplicated, in (size, outcome) order."""
    events = {e for inside in _insides(ts) for e in inside}
    return sorted(events, key=ts.event_key)


def is_algebraic(ts):
    """Perspectivity must respect local complementation.

    Returns a PropertyCheck; the witness is the first (F, G, H) with
    F ~ G, F loc H but not G loc H, scanning events in canonical order.
    That happens iff two events sharing a local complement differ in one.
    """
    # reversing a test's events, listed by bitmask, pairs h with t - h
    locs, sharing = defaultdict(set), defaultdict(set)
    for inside in _insides(ts):
        for h, rest in zip(inside, reversed(inside)):
            locs[h].add(rest)
            sharing[rest].add(h)
    if all(len({frozenset(locs[g]) for g in gs}) == 1 for gs in sharing.values()):
        return PropertyCheck(True)
    for f in _events(ts):
        perspective = set().union(*(sharing[h] for h in locs[f]))
        for g in sorted(perspective, key=ts.event_key):
            missing = locs[f] - locs[g]
            if missing:
                return PropertyCheck(False, (f, g, min(missing, key=ts.event_key)))
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
    class_of = _perspective_classes(_insides(ts))
    # events ascend by event_key, so each class meets its smallest first
    # and the representatives ascend too
    rep = {}
    for e in _events(ts):
        rep.setdefault(class_of[e], e)
    pieces = [[rep[class_of[e]] for e in inside] for inside in _insides(ts)]
    # on an algebraic test space the sum of two classes is well-defined
    oplus, _ = block_sums(pieces)
    # a piece runs from the empty event to its whole test, and all tests
    # are perspective through the empty event, so they form the class 1
    zero, one = pieces[0][0], pieces[0][-1]
    return FiniteQuasiOrthoalgebra(list(rep.values()), zero, one, oplus)


def omp_conditions(pts):
    """The two sufficient conditions for the class logic to be a (concrete) OMP.

    triple: pairwise orthogonal events E, F, G force (E u F) orthogonal G.
    concrete: disjoint unions coincide with event orthogonality.
    """
    ts = pts.as_test_space()
    events = _events(ts)
    index = {e: i for i, e in enumerate(events)}

    # orth[i]: the events disjoint from event i and inside a common test,
    # read off each test's (left, right, union) triples; joined[i, j]: i u j
    orth = [0] * len(events)
    joined = {}
    for inside in _insides(ts):
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
                triple_witness = (events[i], events[j], events[g])
                break
        if triple_witness:
            break

    point = {p: 1 << k for k, p in enumerate(pts.base)}
    cover = {x: sum(point[p] for p in x) for x in ts.outcomes}
    # the cells of an event lie in one test, so they are disjoint
    unions = [sum(cover[x] for x in e) for e in events]
    concrete_witness = None
    for i, j in itertools.combinations(range(len(events)), 2):
        if (not unions[i] & unions[j]) != bool(orth[i] >> j & 1):
            concrete_witness = (events[i], events[j])
            break
    return OmpConditions(
        triple_witness is None,
        triple_witness,
        concrete_witness is None,
        concrete_witness,
    )
