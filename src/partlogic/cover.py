"""Exact covers: the one search behind two-valued states, weights and completions.

The exponential searches are exact-cover questions, answered by one search,
`_search`.  Rows are int masks over the columns.  The search splits the
uncovered columns into the components that fitting rows link, branches on
the column with the fewest fitting rows, and caches each result by its
uncovered-column mask; a component found with its middle layer branches
at once.  `count_exact_covers` folds the covers into their number and
`_exact_covers` into a list of masks over row indices.  `states` builds
rows from a table's atoms or sum equations, `testspace` from a test space's
outcomes or a partition test space's cells.
"""

import math

from .oa import bits


def _search(width, rows, leaf, product, branch):
    """Fold every exact cover of columns 0..width-1 by rows, int bitmasks.

    The covers of the uncovered columns depend on those columns alone, which
    fix the rows that still fit, so each result is cached by their mask
    (component caching from #SAT).  `leaf` is the result with no column
    left.  Columns that no fitting row links are independent components,
    whose results combine by `product`; one component branches on the rows
    of a column with the fewest fitting rows, and `branch` combines the
    (result, row) pairs of the rows it tries.  A product node hands each
    component its fitting rows and middle layer, so the child branches at
    once; one free column is answered on the spot, since the rows that fit
    it are the rows equal to it.  A node about to branch that `_dead_end`
    refutes is a branch over no rows; the others branch as without the check,
    so listings keep their order.  An explicit stack replaces recursion.
    """
    col_rows, clash = _row_masks(width, rows)
    full = (1 << width) - 1
    done = {0: leaf}
    parts = {}
    stack = [(full, (1 << len(rows)) - 1, None)]
    while stack:
        free, fit, middle = stack[-1]
        if free in done:
            stack.pop()
        elif free in parts:
            stack.pop()
            children, tried = parts.pop(free)
            results = [done[c[0]] for c in children]
            done[free] = product(results) if tried is None else branch(zip(results, tried))
        elif not free & (free - 1):
            stack.pop()
            done[free] = branch((leaf, r) for r in bits(col_rows[free.bit_length() - 1] & fit))
        elif _dead_end(col_rows, rows, clash, free, fit):
            stack.pop()
            done[free] = branch(())
        else:
            tried = None
            if middle is None:
                children = _components(col_rows, rows, free, fit)
                if len(children) == 1:
                    _, fit, middle = children[0]
            if middle is not None:
                tried = list(bits(_fewest(col_rows, middle, fit)))
                children = [(free & ~rows[r], fit & ~clash[r], None) for r in tried]
            parts[free] = (children, tried)
            stack += [c for c in children if c[0] not in done]
    return done[full]


def _cross(lists):
    """Every union of one mask from each list."""
    out = [0]
    for masks in lists:
        out = [m | k for m in out for k in masks]
    return out


def _exact_covers(width, rows):
    """Every exact cover of columns 0..width-1, each as a mask over row indices."""
    return _search(
        width, rows, [0], _cross, lambda pairs: [m | 1 << r for ms, r in pairs for m in ms]
    )


def _matrix(masks, width):
    """The masks as one row-major 0/1 bytes m, each row a mask's bits high to low.

    Row k is m[k * width:(k + 1) * width]; column j, bit width-1-j, is m[j::width].
    """
    digits = ("{:0%db}" % width * len(masks)).format(*masks)
    return digits.encode().translate(bytes.maketrans(b"01", b"\0\1"))


def _columns(labels, m):
    """Each label's 0/1 column of the rows m, and the first inseparable pair or None.

    Labels with equal columns are inseparable; groups are keyed in order of
    their first member, so the first group with two members gives the first
    inseparable pair in combination order.
    """
    n = len(labels)
    columns = [m[i::n] for i in range(n)]
    groups = {}
    for label, column in zip(labels, columns):
        groups.setdefault(column, []).append(label)
    twins = next((tuple(g[:2]) for g in groups.values() if len(g) > 1), None)
    return columns, twins


def count_exact_covers(width, rows):
    """The number of exact covers of columns 0..width-1, without listing them."""
    return _search(width, rows, 1, math.prod, lambda pairs: sum(n for n, _ in pairs))


def _row_masks(width, rows):
    """Per column the mask of rows that hold it; per row the rows it meets."""
    col_rows = [0] * width
    for r, row in enumerate(rows):
        while row:
            low = row & -row
            col_rows[low.bit_length() - 1] |= 1 << r
            row ^= low
    clash = []
    for row in rows:
        meets = 0
        while row:
            low = row & -row
            meets |= col_rows[low.bit_length() - 1]
            row ^= low
        clash.append(meets)
    return col_rows, clash


def _fewest(col_rows, free, fit):
    """The fitting rows of the free column with the fewest of them."""
    best = None
    while free:
        low = free & -free
        fits = col_rows[low.bit_length() - 1] & fit
        if best is None or fits.bit_count() < best.bit_count():
            best = fits
            if best.bit_count() <= 1:
                break
        free ^= low
    return best


def _dead_end(col_rows, rows, clash, free, fit):
    """Whether taking forced rows leaves a free column that no row fits.

    A forced row is the one row fitting a free column.  Each pass over the
    free columns takes every forced row it meets, until a pass takes none.
    """
    while True:
        scan = start = free
        while scan:
            low = scan & -scan
            scan ^= low
            fits = col_rows[low.bit_length() - 1] & fit
            if not fits:
                return True
            if not fits & (fits - 1):
                r = fits.bit_length() - 1
                free &= ~rows[r]
                scan &= free
                fit &= ~clash[r]
        if free == start:
            return False


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
            held, layer = 0, layers[-1]
            while layer:
                low = layer & -layer
                held |= col_rows[low.bit_length() - 1]
                layer ^= low
            new = held & fit & ~own
            own |= new
            reach = 0
            while new:
                low = new & -new
                reach |= rows[low.bit_length() - 1]
                new ^= low
            layers.append(reach & ~part)
            part |= reach
        found.append((part, own, layers[(len(layers) - 2) // 2]))
        free &= ~part
    return found
