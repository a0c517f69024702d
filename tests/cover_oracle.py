"""Replaced code of `partlogic.cover` and `partlogic.testspace`, kept verbatim as oracles.

The component search as it stood before product nodes handed their
children a finished breadth-first layer: `_search` with its helpers
`_row_masks`, `_fewest` and `_components`, which walk set bits through the
`bits` generator, and the two folds `_exact_covers` and
`count_exact_covers` that call it.  And the partition test space of the
weights as it stood before its tests were checked on matrix columns:
`_two_valued_matrix`, here listing covers with the search above, and
`ts_to_partition_test_space`, which passes its parts through the public
`PartitionTestSpace` constructor.  Only the imports and this docstring are
new.
"""

import itertools
import math

from partlogic.cover import _cross, _matrix
from partlogic.errors import SeparationError
from partlogic.oa import bits
from partlogic.testspace import PartitionTestSpace, _weight_rows


def _search(width, rows, leaf, product, branch):
    """Fold every exact cover of columns 0..width-1 by rows, int bitmasks.

    The covers of the uncovered columns depend on those columns alone, which
    fix the rows that still fit, so each result is cached by their mask
    (component caching from #SAT).  `leaf` is the result with no column
    left.  Columns that no fitting row links are independent components,
    whose results combine by `product`; one component branches on the rows
    of a column with the fewest fitting rows, and `branch` combines the
    (result, row) pairs of the rows it tries.  An explicit stack replaces
    recursion.
    """
    col_rows, clash = _row_masks(width, rows)
    full = (1 << width) - 1
    done = {0: leaf}
    parts = {}
    stack = [(full, (1 << len(rows)) - 1)]
    while stack:
        free, fit = stack[-1]
        if free in done:
            stack.pop()
        elif free in parts:
            stack.pop()
            children, tried = parts.pop(free)
            results = [done[c] for c, _ in children]
            done[free] = product(results) if tried is None else branch(zip(results, tried))
        else:
            found = _components(col_rows, rows, free, fit)
            if len(found) > 1:
                tried = None
                children = [(part, own) for part, own, _ in found]
            else:
                tried = list(bits(_fewest(col_rows, found[0][2], fit)))
                children = [(free & ~rows[r], fit & ~clash[r]) for r in tried]
            parts[free] = (children, tried)
            stack += [c for c in children if c[0] not in done]
    return done[full]


def _exact_covers(width, rows):
    """Every exact cover of columns 0..width-1, each as a mask over row indices."""
    return _search(
        width, rows, [0], _cross, lambda pairs: [m | 1 << r for ms, r in pairs for m in ms]
    )


def count_exact_covers(width, rows):
    """The number of exact covers of columns 0..width-1, without listing them."""
    return _search(width, rows, 1, math.prod, lambda pairs: sum(n for n, _ in pairs))


def _row_masks(width, rows):
    """Per column the mask of rows that hold it; per row the rows it meets."""
    col_rows = [0] * width
    for r, row in enumerate(rows):
        for c in bits(row):
            col_rows[c] |= 1 << r
    clash = []
    for row in rows:
        meets = 0
        for c in bits(row):
            meets |= col_rows[c]
        clash.append(meets)
    return col_rows, clash


def _fewest(col_rows, free, fit):
    """The fitting rows of the free column with the fewest of them."""
    best = None
    for c in bits(free):
        fits = col_rows[c] & fit
        if best is None or fits.bit_count() < best.bit_count():
            best = fits
            if best.bit_count() <= 1:
                break
    return best


def _components(col_rows, rows, free, fit):
    """The free columns split by the fitting rows that link them.

    Each component comes with its own fitting rows, those that meet it, and
    with the middle layer of a breadth-first search from its lowest column.
    Branching there splits a long path of tests in two halves rather than
    peeling it from one end.
    """
    found = []
    while free:
        seed = free & -free
        part, own, layers = seed, 0, [seed]
        while layers[-1]:
            reach = 0
            for c in bits(layers[-1]):
                for r in bits(col_rows[c] & fit & ~own):
                    own |= 1 << r
                    reach |= rows[r]
            layers.append(reach & ~part)
            part |= reach
        found.append((part, own, layers[(len(layers) - 2) // 2]))
        free &= ~part
    return found


def _two_valued_matrix(ts):
    """The value vectors of the two-valued weights, in order, as 0/1 byte rows."""
    rows = _weight_rows(ts)
    free = [[0, 1 << r] for r, row in enumerate(rows) if not row]
    masks = sorted(_cross([_exact_covers(len(ts.tests), rows), *free]))
    return _matrix(masks, len(rows))


def ts_to_partition_test_space(ts):
    """Represent a test space over its two-valued weights.

    Each outcome becomes the set of weights valuing it 1; each test becomes
    a partition of the weight set.  Requires the weights to separate
    outcomes.
    """
    m = _two_valued_matrix(ts)
    if not m:
        raise SeparationError("no separating two-valued weights")
    n = len(ts.outcomes)
    names = ["w%d" % (k + 1) for k in range(len(m) // n)]
    cells = [frozenset(itertools.compress(names, m[i::n])) for i in range(n)]
    phi = dict(zip(ts.outcomes, cells))

    # groups are keyed in order of their first outcome, so the first group
    # with two members gives the first inseparable pair in combination order
    groups = {}
    for x in ts.outcomes:
        groups.setdefault(phi[x], []).append(x)
    for group in groups.values():
        if len(group) > 1:
            x, y = group[:2]
            raise SeparationError(
                "outcomes %r and %r are inseparable" % (x, y), pair=(x, y)
            )
    tests = [frozenset(phi[x] for x in t) for t in ts.tests]
    return PartitionTestSpace(names, cells, tests)
