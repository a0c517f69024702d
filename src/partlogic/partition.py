"""Partition logics, urn models, their pastings, and logic isomorphism.

Point sets are made once and shared: `oa_to_partition_logic` makes one
support per element from the columns `cover._columns` reads off the states'
0/1 rows, and one partition per unordered sum; `PartitionLogic` checks each
distinct partition once; `pasting_to_oa` pastes on int masks over the
ground ranked by `str` and builds one point set per distinct cell union.
"""

from collections import defaultdict
from itertools import compress, filterfalse

from .errors import PrimenessError, StructureError
from .oa import (
    FiniteQuasiOrthoalgebra,
    block_sums,
    cell_key,
    format_label,
    subset_unions,
)
from .states import TwoValuedState, _primeness, _sum_entries


class PartitionLogic:
    """A ground set plus a family of partitions of it.

    Cells keep their given order (automaton output labels index into it);
    duplicate partitions are dropped, keeping the first occurrence.
    """

    def __init__(self, ground, partitions):
        self.ground = tuple(ground)
        pts = set(self.ground)
        if len(pts) != len(self.ground):
            raise StructureError("duplicate ground point")
        if not pts:
            raise StructureError("empty ground set")
        kept = []
        seen = set()
        for part in partitions:
            cells = tuple(map(frozenset, part))
            key = frozenset(cells)
            # a key holding fewer cells than the partition repeats a cell
            if key in seen and len(key) == len(cells):
                continue
            # nonempty cells whose sizes sum to |ground| and whose union is
            # the ground are disjoint and inside it
            size = sum(map(len, cells))
            if not all(cells) or size != len(pts) or set().union(*cells) != pts:
                _reject(cells, pts)
            seen.add(key)
            kept.append(cells)
        if not kept:
            raise StructureError("no partitions given")
        self.partitions = tuple(kept)

    def __repr__(self):
        return "PartitionLogic(%d points, %d partitions)" % (
            len(self.ground),
            len(self.partitions),
        )


def _reject(cells, pts):
    """Raise the first fault, cell by cell, of cells that do not partition pts."""
    covered = set()
    for cell in cells:
        if not cell:
            raise StructureError("empty cell in partition")
        if not cell <= pts:
            raise StructureError("cell %s leaves the ground set" % format_label(cell))
        if covered & cell:
            raise StructureError("overlapping cells in partition")
        covered |= cell
    raise StructureError("partition does not cover the ground set")


class UrnModel:
    """Ball types carrying one visible symbol per color."""

    def __init__(self, ball_types, colors, visible):
        self.ball_types = tuple(ball_types)
        self.colors = tuple(colors)
        self.visible = dict(visible)
        for bt in self.ball_types:
            for col in self.colors:
                if (bt, col) not in self.visible:
                    raise StructureError(
                        "ball %r has no symbol under color %r" % (bt, col)
                    )


class Isomorphism:
    """A sum-preserving bijection between two tables."""

    def __init__(self, mapping):
        self.mapping = dict(mapping)

    def __getitem__(self, a):
        return self.mapping[a]

    def inverse(self):
        return Isomorphism({v: k for k, v in self.mapping.items()})

    def __repr__(self):
        return "Isomorphism(%d elements)" % len(self.mapping)


def pasting_to_oa(pl):
    """Paste a partition logic into a table over canonical point sets.

    Elements are the cell-unions of the partitions; a + b is defined iff a
    and b are disjoint cell-unions of one common partition, with value the
    plain union.
    """
    # a point set is an int mask over the ground ranked by str: point p gets
    # bit n - 1 - rank(p), so (size, cell_key) is (popcount, -mask) when the
    # str labels are distinct; unions are ORs, and each distinct one gets a
    # number, in the order met, and a label: its one cell, or a frozenset
    # made once
    ranked = sorted(pl.ground, key=str)
    n = len(ranked)
    bit = dict(zip(ranked, [1 << i for i in range(n - 1, -1, -1)]))
    full = (1 << n) - 1
    mask_of, number, labels, pieces = {}, {}, [], []
    for part in pl.partitions:
        # the largest cell is the rest of the ground, found without its points
        big = max(part, key=len)
        masks = [
            0 if c is big else mask_of.get(c) or mask_of.setdefault(c, sum(map(bit.__getitem__, c)))
            for c in part
        ]
        masks[part.index(big)] = full ^ sum(masks)
        unions = subset_unions(masks, 0)
        for u in filterfalse(number.__contains__, unions):
            number[u] = len(labels)
            cells = [c for c, m in zip(part, masks) if u & m]
            labels.append(cells[0] if len(cells) == 1 else frozenset().union(*cells))
        pieces.append(list(map(number.__getitem__, unions)))
    if len(set(map(str, ranked))) == n:
        order = map(number.__getitem__, sorted(sorted(number, reverse=True), key=int.bit_count))
    else:
        # colliding labels: the stable sort on the point sets, in the order met
        order = sorted(range(len(labels)), key=lambda i: (len(labels[i]), cell_key(labels[i])))
    # glued on the numbers, so a clash check compares two ints
    oplus, _ = block_sums(pieces)
    get = labels.__getitem__
    left, right = zip(*oplus)
    table = dict(zip(zip(map(get, left), map(get, right)), map(get, oplus.values())))
    return FiniteQuasiOrthoalgebra(list(map(get, order)), labels[0], labels[number[full]], table)


def oa_to_partition_logic(table):
    """Represent a prime table as a partition logic over its prime ideals.

    Points are the two-valued states (one per prime ideal); each orthogonal
    pair x, y yields the partition {p(x), p(y), p((x+y)')} with empty cells
    dropped.
    """
    rows, columns, twins = _primeness(table)
    if twins is not None:
        raise PrimenessError(
            "no two-valued state separates %s and %s" % tuple(map(format_label, twins)),
            pair=twins,
        )
    names = ["p%d" % (k + 1) for k in range(len(rows))]
    # the states valuing x at 1, i.e. the prime ideals omitting x; a state
    # values x' at 1 exactly when it values x at 0, so p((x+y)') is the
    # support of the complement, and equal cells are one object
    support = [frozenset(compress(names, column)) for column in columns]
    elements, index, complement = table.elements, table.index, table.complement

    # y + x gives the partition of x + y, so each unordered sum is met once
    partitions = []
    for i, j, k in _sum_entries(table):
        # raises unless the complement is unique
        outside = support[index(complement(elements[k]))]
        cells = [c for c in (support[i], support[j], outside) if c]
        if cells:
            partitions.append(cells)
    return PartitionLogic(names, partitions)


def urn_to_partition_logic(urn):
    """One partition per color: cells are the preimages of visible symbols."""
    partitions = []
    for col in urn.colors:
        groups = defaultdict(list)
        for bt in urn.ball_types:
            groups[urn.visible[(bt, col)]].append(bt)
        cells = [frozenset(groups[sym]) for sym in sorted(groups, key=str)]
        partitions.append(cells)
    return PartitionLogic(urn.ball_types, partitions)


def _signatures(table):
    """Per-index invariants preserved by any isomorphism."""
    rows = table.rows()
    zero, one = table.index(table.zero), table.index(table.one)
    base = [
        (i == zero, i == one, len(row), sum(k == one for k in row.values()))
        for i, row in enumerate(rows)
    ]
    # one refinement round: multiset of partner base signatures
    return [(base[i], tuple(sorted(base[j] for j in row))) for i, row in enumerate(rows)]


def _verify_mapping(t1, t2, mapping):
    rows2 = t2.rows()
    return all(
        {mapping[j]: mapping[k] for j, k in row.items()} == rows2[mapping[i]]
        for i, row in enumerate(t1.rows())
    )


def isomorphic(t1, t2):
    """Search for a sum-preserving bijection; None when there is none.

    Backtracking over elements with invariant pruning; 0 and 1 are pinned.
    """
    if len(t1.elements) != len(t2.elements):
        return None
    sig1 = _signatures(t1)
    sig2 = _signatures(t2)
    if sorted(sig1) != sorted(sig2):
        return None
    by_sig2 = defaultdict(list)
    for b, sig in enumerate(sig2):
        by_sig2[sig].append(b)

    zero1, one1 = t1.index(t1.zero), t1.index(t1.one)
    zero2, one2 = t2.index(t2.zero), t2.index(t2.one)
    # the signatures flag 0 and 1, so the equal sorted lists pair them
    mapping = {zero1: zero2, one1: one2}
    used = {zero2, one2}
    # most-constrained-first: fewest candidates, then index order
    todo = sorted(
        (a for a in range(len(sig1)) if a not in mapping),
        key=lambda a: (len(by_sig2[sig1[a]]), a),
    )
    rows1, rows2 = t1.rows(), t2.rows()

    def consistent(a, b):
        row1, row2 = rows1[a], rows2[b]
        for x, fx in mapping.items():
            s1, s2 = row1.get(x), row2.get(fx)
            if (s1 is None) != (s2 is None):
                return False
            if s1 in mapping and mapping[s1] != s2:
                return False
        return True

    def options(a):
        return (b for b in by_sig2[sig1[a]] if b not in used and consistent(a, b))

    # one candidate iterator per assigned variable: an explicit stack, so
    # the depth is not bounded by the interpreter's recursion limit
    stack = [options(todo[0])] if todo else []
    while stack:
        a = todo[len(stack) - 1]
        if a in mapping:
            used.discard(mapping.pop(a))
        b = next(stack[-1], None)
        if b is None:
            stack.pop()
            continue
        mapping[a] = b
        used.add(b)
        if len(stack) < len(todo):
            stack.append(options(todo[len(stack)]))
        elif _verify_mapping(t1, t2, mapping):
            break
    # the stack is left non-empty only by a verified full mapping
    if not stack and (todo or not _verify_mapping(t1, t2, mapping)):
        return None
    el1, el2 = t1.elements, t2.elements
    return Isomorphism({el1[a]: el2[b] for a, b in mapping.items()})


def point_evaluations(pl, table=None):
    """The two-valued states induced by fixing a ground point."""
    if table is None:
        table = pasting_to_oa(pl)
    out = []
    for q in pl.ground:
        out.append(
            TwoValuedState(table, {e: int(q in e) for e in table.elements})
        )
    return out
