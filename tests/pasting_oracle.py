"""The four pasting builders as they stood before `oa.block_sums` (2e55aec).

Copied verbatim as test oracles for `from_greechie`, `pasting_to_oa`,
`BooleanChart.from_cells`, `atlas_to_quasi_oa` and `pi_logic`; only
`from_cells` is a plain function here, building the old `frozenset`-keyed
chart of `atlas_oracle`.
"""

import itertools
from collections import defaultdict

from atlas_oracle import BooleanChart
from partlogic.errors import AlgebraicityError, PastingError, StructureError
from partlogic.oa import FiniteQuasiOrthoalgebra, format_label, label_key
from partlogic.testspace import is_algebraic


def from_greechie(diagram):
    """Paste a diagram's block algebras into one quasi-orthoalgebra.

    Nodes (block, atom subset) are identified by the closure of: equal
    subsets of shared atoms, all empty sets, all full sets, and complements
    of identified nodes.  The sum glues within each block.
    """
    blk_atoms = [frozenset(b) for b in diagram.blocks]
    nodes = []
    for bi, blk in enumerate(diagram.blocks):
        for r in range(len(blk) + 1):
            for combo in itertools.combinations(blk, r):
                nodes.append((bi, frozenset(combo)))

    parent = {n: n for n in nodes}

    def find(n):
        root = n
        while parent[root] != root:
            root = parent[root]
        while parent[n] != root:
            parent[n], n = root, parent[n]
        return root

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
            return True
        return False

    for i, j in itertools.combinations(range(len(blk_atoms)), 2):
        shared = sorted(blk_atoms[i] & blk_atoms[j], key=str)
        for r in range(len(shared) + 1):
            for combo in itertools.combinations(shared, r):
                union((i, frozenset(combo)), (j, frozenset(combo)))
        union((i, blk_atoms[i]), (j, blk_atoms[j]))

    def comp_node(n):
        bi, subset = n
        return (bi, blk_atoms[bi] - subset)

    changed = True
    while changed:
        changed = False
        groups = defaultdict(list)
        for n in nodes:
            groups[find(n)].append(n)
        for members in groups.values():
            first = comp_node(members[0])
            for other in members[1:]:
                if union(comp_node(other), first):
                    changed = True

    groups = defaultdict(list)
    for n in nodes:
        groups[find(n)].append(n)
    zero_root = find((0, frozenset()))
    one_root = find((0, blk_atoms[0]))
    if zero_root == one_root:
        raise PastingError("pasting identifies 0 with 1")
    for root, members in groups.items():
        if find(comp_node(members[0])) == root and root not in (zero_root,):
            raise PastingError(
                "pasting identifies a class with its own complement"
            )

    def canonical(members):
        return min(
            members, key=lambda n: (len(n[1]), tuple(sorted(map(str, n[1]))), n[0])
        )

    reps = {root: canonical(members) for root, members in groups.items()}
    comp_root = {root: find(comp_node(reps[root])) for root in groups}

    labels = {}
    for root, members in groups.items():
        if root == zero_root:
            labels[root] = "0"
        elif root == one_root:
            labels[root] = "1"
        else:
            singles = sorted(str(next(iter(n[1]))) for n in members if len(n[1]) == 1)
            if singles:
                labels[root] = singles[0]
            else:
                labels[root] = None
    for root in groups:
        if labels[root] is None:
            comp_label = labels[comp_root[root]]
            if comp_label not in (None, "0", "1") and "'" not in comp_label:
                labels[root] = comp_label + "'"
            else:
                rep = reps[root]
                labels[root] = "+".join(sorted(map(str, rep[1])))
    if len(set(labels.values())) != len(labels):
        raise PastingError("pasting produced colliding element labels")

    def order_key(root):
        rep = reps[root]
        if root == zero_root:
            tier = 0
        elif root == one_root:
            tier = 3
        elif len(rep[1]) == 1:
            tier = 1
        else:
            tier = 2
        return (tier, len(rep[1]), labels[root])

    roots = sorted(groups, key=order_key)
    element_of = {root: labels[root] for root in roots}
    elements = [element_of[root] for root in roots]

    oplus = {}
    for bi, blk in enumerate(diagram.blocks):
        for split in itertools.product((0, 1, 2), repeat=len(blk)):
            left = frozenset(a for a, s in zip(blk, split) if s == 1)
            right = frozenset(a for a, s in zip(blk, split) if s == 2)
            a = element_of[find((bi, left))]
            b = element_of[find((bi, right))]
            c = element_of[find((bi, left | right))]
            prev = oplus.get((a, b))
            if prev is not None and prev != c:
                raise PastingError(
                    "inconsistent sums %s + %s" % (format_label(a), format_label(b))
                )
            oplus[(a, b)] = c

    return FiniteQuasiOrthoalgebra(
        elements, element_of[zero_root], element_of[one_root], oplus
    )


def _cell_union_algebra(cells):
    """All unions of subsets of the given cells."""
    out = set()
    for r in range(len(cells) + 1):
        for combo in itertools.combinations(cells, r):
            u = frozenset().union(*combo) if combo else frozenset()
            out.add(u)
    return out


def pasting_to_oa(pl):
    """Paste a partition logic into a table over canonical point sets.

    Elements are the cell-unions of the partitions; a + b is defined iff a
    and b are disjoint cell-unions of one common partition, with value the
    plain union.
    """
    algebras = [_cell_union_algebra(p) for p in pl.partitions]
    elements = set().union(*algebras)
    ordered = sorted(
        elements, key=lambda s: (len(s), tuple(sorted(str(p) for p in s)))
    )
    oplus = {}
    for cells, algebra in zip(pl.partitions, algebras):
        for split in itertools.product((0, 1, 2), repeat=len(cells)):
            left = [c for c, s in zip(cells, split) if s == 1]
            right = [c for c, s in zip(cells, split) if s == 2]
            a = frozenset().union(*left) if left else frozenset()
            b = frozenset().union(*right) if right else frozenset()
            oplus[(a, b)] = a | b
    return FiniteQuasiOrthoalgebra(
        ordered, frozenset(), frozenset(pl.ground), oplus
    )


def from_cells(cells):
    """Chart generated by disjoint point-set cells; labels are unions."""
    cells = [frozenset(c) for c in cells]
    label = {}
    for r in range(len(cells) + 1):
        for combo in itertools.combinations(cells, r):
            u = frozenset().union(*combo) if combo else frozenset()
            label[frozenset(combo)] = u
    chart = BooleanChart(cells, label)
    return chart


def atlas_to_quasi_oa(atlas):
    """The union of the charts with a + b = a v b when some chart disjoins them."""
    elements = sorted(atlas.labels(), key=label_key)
    zero = atlas.charts[0].zero
    one = atlas.charts[0].one
    oplus = {}
    for chart in atlas.charts:
        for a, b in itertools.product(chart.members(), repeat=2):
            if chart.meet(a, b) != chart.zero:
                continue
            value = chart.join(a, b)
            prev = oplus.get((a, b))
            if prev is not None and prev != value:
                raise StructureError(
                    "charts disagree on %s + %s"
                    % (format_label(a), format_label(b))
                )
            oplus[(a, b)] = value
    return FiniteQuasiOrthoalgebra(elements, zero, one, oplus)


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
    events = ts.events()
    locs = {e: ts.local_complements(e) for e in events}

    parent = {e: e for e in events}

    def find(e):
        root = e
        while parent[root] != root:
            root = parent[root]
        while parent[e] != root:
            parent[e], e = root, parent[e]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for e, f in itertools.combinations(events, 2):
        if locs[e] & locs[f]:
            union(e, f)

    classes = {}
    for e in events:
        classes.setdefault(find(e), []).append(e)
    rep = {
        root: min(members, key=ts.event_key)
        for root, members in classes.items()
    }
    label = {e: rep[find(e)] for e in events}

    elements = sorted(set(label.values()), key=ts.event_key)
    zero = label[frozenset()]
    one = label[min(ts.tests, key=ts.event_key)]
    oplus = {}
    for e, f in itertools.product(events, repeat=2):
        if e & f or not any(e | f <= t for t in ts.tests):
            continue
        a, b, c = label[e], label[f], label[e | f]
        prev = oplus.get((a, b))
        if prev is not None and prev != c:
            raise AlgebraicityError(
                "sum of classes %s + %s is not well-defined"
                % (format_label(a), format_label(b))
            )
        oplus[(a, b)] = c
    return FiniteQuasiOrthoalgebra(elements, zero, one, oplus)
