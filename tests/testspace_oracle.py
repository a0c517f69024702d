"""Replaced code of `partlogic.testspace`, kept verbatim as test oracles.

The Algorithm X exact-cover lister as it stood before the component search
listed covers: `_exact_covers` with its helpers `_row_masks` and `_fewest`.
And the per-cover conversion of weight masks before one 0/1 byte matrix
replaced it: `Weight` with `_of_mask`, which builds one dict per weight,
`_two_valued_masks`, `enumerate_two_valued_weights` and
`ts_to_partition_test_space`, whose point sets gather weight names bit by
bit.  Only the imports differ; here `_two_valued_masks` lists the covers
with the Algorithm X lister above, which finds the same covers.
"""

from fractions import Fraction

from partlogic.cover import _cross
from partlogic.errors import SeparationError
from partlogic.oa import bits
from partlogic.testspace import PartitionTestSpace, _weight_rows


def _exact_covers(width, rows):
    """Algorithm X: every set of rows covering columns 0..width-1 exactly once.

    Rows are int bitmasks over the columns; each cover is a mask over row
    indices.  The search keeps its own stack, so its depth is not bounded by
    the interpreter's recursion limit.
    """
    full = (1 << width) - 1
    col_rows, clash = _row_masks(width, rows)
    covers = []
    stack = [(0, (1 << len(rows)) - 1, 0)]
    while stack:
        covered, fit, chosen = stack.pop()
        if covered == full:
            covers.append(chosen)
            continue
        for r in bits(_fewest(col_rows, full & ~covered, fit)):
            stack.append((covered | rows[r], fit & ~clash[r], chosen | 1 << r))
    return covers


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


_ZERO, _ONE = Fraction(0), Fraction(1)
_DIGIT_VALUE = {"0": _ZERO, "1": _ONE}


class Weight:
    """Total rational map on outcomes summing to 1 on every test."""

    __slots__ = ("space", "values")

    def __init__(self, space, values):
        self.space = space
        self.values = {x: Fraction(values[x]) for x in space.outcomes}

    @classmethod
    def _of_mask(cls, space, mask):
        """The two-valued weight valuing outcome i 1 iff bit n-1-i of mask is set."""
        weight = cls.__new__(cls)
        weight.space = space
        digits = format(mask, "0%db" % len(space.outcomes))
        weight.values = dict(zip(space.outcomes, map(_DIGIT_VALUE.get, digits)))
        return weight

    def __call__(self, x):
        return self.values[x]

    def row(self, outcomes=None):
        outcomes = outcomes if outcomes is not None else self.space.outcomes
        return tuple(self.values[x] for x in outcomes)

    def __repr__(self):
        ones = [str(x) for x in self.space.outcomes if self.values[x] == 1]
        return "Weight(1 on %s)" % ",".join(ones)


def _two_valued_masks(ts):
    """The sets of outcomes valued 1 by the two-valued weights, as bitmasks."""
    rows = _weight_rows(ts)
    free = [[0, 1 << r] for r, row in enumerate(rows) if not row]
    return sorted(_cross([_exact_covers(len(ts.tests), rows), *free]))


def enumerate_two_valued_weights(ts):
    """All {0,1} weights (one outcome valued 1 per test), by value vector."""
    return [Weight._of_mask(ts, m) for m in _two_valued_masks(ts)]


def ts_to_partition_test_space(ts):
    """Represent a test space over its two-valued weights.

    Each outcome becomes the set of weights valuing it 1; each test becomes
    a partition of the weight set.  Requires the weights to separate
    outcomes.
    """
    masks = _two_valued_masks(ts)
    if not masks:
        raise SeparationError("no separating two-valued weights")
    names = ["w%d" % (k + 1) for k in range(len(masks))]
    n = len(ts.outcomes)
    valued = [[] for _ in ts.outcomes]
    for name, m in zip(names, masks):
        for b in bits(m):
            valued[n - 1 - b].append(name)
    phi = {x: frozenset(v) for x, v in zip(ts.outcomes, valued)}

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
    cells = [phi[x] for x in ts.outcomes]
    tests = [frozenset(phi[x] for x in t) for t in ts.tests]
    return PartitionTestSpace(names, cells, tests)
