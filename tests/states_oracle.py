"""Replaced code of `partlogic.states`, kept verbatim as test oracles.

The label-order propagation search: `enumerate_two_valued_states`, a
backtracking search whose unit propagation runs over the sum entries
a + b = c, with its helper `_sum_entries`.  And the per-cover conversion of
exact covers before one 0/1 byte matrix replaced it: the cover listing that
builds one value tuple per cover, here named `enumerate_cover_states`,
`value_columns`, which transposes the tuples with `zip`, and `is_prime`,
which groups elements by those columns.  Only that name and the imports
differ; in this module `is_prime` takes its states from the propagation
search, which lists the same states as the cover listing.  And the walk of
`oa_to_partition_logic` over every sum entry, which made one partition for
a + b and another for b + a; it reads the states and columns of this
module's `is_prime` and `value_columns`, where the walk took them from
`states._primeness`.
"""

from itertools import compress

from partlogic.cover import _exact_covers
from partlogic.errors import PrimenessError
from partlogic.oa import QUASI_AXIOMS, _violations, format_label
from partlogic.partition import PartitionLogic
from partlogic.states import (
    PrimenessResult,
    TwoValuedState,
    _atom_tests,
    _sum_tests,
)


def _sum_entries(table):
    """Index triples (a, b, a + b), one per unordered sum pair, in pair order."""
    rows = table.rows()
    return [
        (i, j, k)
        for i, row in enumerate(rows)
        for j, k in row.items()
        if not (j < i and rows[j].get(i) == k)
    ]


def enumerate_two_valued_states(table):
    """The complete list of two-valued states, in value-vector order."""
    n = len(table.elements)
    idx = table.index
    entries = _sum_entries(table)
    touching = [[] for _ in range(n)]
    for k, (ia, ib, ic) in enumerate(entries):
        for i in {ia, ib, ic}:
            touching[i].append(k)

    val = [None] * n
    results = []

    def propagate(assignments):
        """Assign queued (index, bit) pairs and their consequences.

        Returns the trail of set indices, or None on contradiction.
        """
        trail = []
        queue = list(assignments)
        while queue:
            i, b = queue.pop()
            if val[i] is not None:
                if val[i] != b:
                    for j in trail:
                        val[j] = None
                    return None
                continue
            if b not in (0, 1):
                for j in trail:
                    val[j] = None
                return None
            val[i] = b
            trail.append(i)
            for k in touching[i]:
                ia, ib, ic = entries[k]
                va, vb, vc = val[ia], val[ib], val[ic]
                known = (va is not None) + (vb is not None) + (vc is not None)
                if known == 3:
                    if va + vb != vc:
                        for j in trail:
                            val[j] = None
                        return None
                elif known == 2:
                    if va is None:
                        queue.append((ia, vc - vb))
                    elif vb is None:
                        queue.append((ib, vc - va))
                    else:
                        queue.append((ic, va + vb))
        return trail

    def undo(trail):
        for j in trail:
            val[j] = None

    def branch(i):
        """The tries at the first unset index from i, bit 0 on top."""
        while i < n and val[i] is not None:
            i += 1
        if i == n:
            results.append(tuple(val))
            return []
        return [(i, 1), (i, 0)]

    root = propagate([(idx(table.zero), 0), (idx(table.one), 1)])
    if root is not None:
        # (i, b) tries bit b at index i; (None, trail) undoes a try once
        # every step above it is done
        stack = [(None, root)] + branch(0)
        while stack:
            i, b = stack.pop()
            if i is None:
                undo(b)
                continue
            trail = propagate([(i, b)])
            if trail is not None:
                stack += [(None, trail)] + branch(i + 1)
    return [TwoValuedState._of_bits(table, bits) for bits in sorted(results)]


def enumerate_cover_states(table):
    """The complete list of two-valued states, in value-vector order."""
    oa = not _violations(table, QUASI_AXIOMS + ("oavii",))
    width, rows, values = (_atom_tests if oa else _sum_tests)(table)
    found = sorted(
        tuple(1 if v & cover else 0 for v in values)
        for cover in _exact_covers(width, rows)
    )
    return [TwoValuedState._of_bits(table, vector) for vector in found]


def value_columns(table, sts):
    """Each element's values under the states: their bit tuples transposed."""
    return list(zip(*[s.bits for s in sts])) if sts else [()] * len(table.elements)


def is_prime(table):
    """Whether the two-valued states separate every pair of elements."""
    sts = enumerate_two_valued_states(table)
    # elements with equal value columns are inseparable; groups are keyed
    # in order of their first member, so the first group with two members
    # gives the first inseparable pair in combination order
    groups = {}
    for e, column in zip(table.elements, value_columns(table, sts)):
        groups.setdefault(column, []).append(e)
    for group in groups.values():
        if len(group) > 1:
            return PrimenessResult(False, None, tuple(group[:2]))
    return PrimenessResult(True, tuple(sts), None)


def oa_to_partition_logic(table):
    """Represent a prime table as a partition logic over its prime ideals.

    Points are the two-valued states (one per prime ideal); each orthogonal
    pair x, y yields the partition {p(x), p(y), p((x+y)')} with empty cells
    dropped.
    """
    primeness = is_prime(table)
    if not primeness:
        a, b = primeness.inseparable
        raise PrimenessError(
            "no two-valued state separates %s and %s"
            % (format_label(a), format_label(b)),
            pair=primeness.inseparable,
        )
    sts = primeness.separating
    names = ["p%d" % (k + 1) for k in range(len(sts))]
    columns = value_columns(table, sts)
    # the states valuing x at 1, i.e. the prime ideals omitting x; a state
    # values x' at 1 exactly when it values x at 0, so p((x+y)') is the
    # support of the complement, and equal cells are one object
    support = [frozenset(compress(names, column)) for column in columns]
    elements, index, complement = table.elements, table.index, table.complement

    partitions = []
    for i, row in enumerate(table.rows()):
        for j, k in row.items():
            # raises unless the complement is unique
            outside = support[index(complement(elements[k]))]
            cells = [c for c in (support[i], support[j], outside) if c]
            if cells:
                partitions.append(cells)
    return PartitionLogic(names, partitions)
