"""The Algorithm X exact-cover lister as it stood before the component search listed covers.

Copied verbatim from `partlogic.testspace` as a test oracle: `_exact_covers`
with its helpers `_row_masks` and `_fewest`.  Only the imports differ.
"""

from partlogic.oa import bits


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
