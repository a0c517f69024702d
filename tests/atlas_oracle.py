"""Boolean atlas charts and checks as they stood before charts were listed by atom mask.

Copied verbatim from `partlogic.atlas` as test oracles: the `frozenset`-keyed
`BooleanChart`, `verify_atlas`, `is_manifold`, the six relation predicates,
`atlas_to_quasi_oa` and `quasi_oa_to_atlas`.  Only the imports differ.
`labels_by_mask` translates between the two chart forms.
"""

import itertools

from partlogic.atlas import ATLAS_AXIOMS, BooleanAtlas, PropertyCheck
from partlogic.errors import StructureError
from partlogic.oa import (
    AxiomReport,
    FiniteQuasiOrthoalgebra,
    Violation,
    block_sums,
    blocks,
    boolean_atoms,
    format_label,
    label_key,
    subset_unions,
    subsets,
)


def labels_by_mask(chart):
    """An old chart's labels listed by atom mask, the form the new chart stores."""
    return tuple(chart.label[s] for s in subsets(chart.atoms))


class BooleanChart:
    """One chart: local atoms plus an injective labeling of atom subsets."""

    def __init__(self, atoms, label):
        self.atoms = tuple(atoms)
        self.label = {frozenset(k): v for k, v in dict(label).items()}
        n = len(self.atoms)
        if len(set(self.atoms)) != n:
            raise StructureError("chart atoms repeat")
        if len(self.label) != 2 ** n:
            raise StructureError("chart labeling is not total over atom subsets")
        for key in self.label:
            if not key <= set(self.atoms):
                raise StructureError("chart labels a non-subset of its atoms")
        if len(set(self.label.values())) != len(self.label):
            raise StructureError("label collision inside a chart")
        self.inverse = {v: k for k, v in self.label.items()}

    @classmethod
    def from_cells(cls, cells):
        """Chart generated by disjoint point-set cells; labels are unions."""
        cells = [frozenset(c) for c in cells]
        return cls(cells, zip(subsets(cells), subset_unions(cells)))

    @property
    def zero(self):
        return self.label[frozenset()]

    @property
    def one(self):
        return self.label[frozenset(self.atoms)]

    def members(self):
        """Labels in a deterministic (size, repr) order."""
        return sorted(
            self.label.values(),
            key=lambda v: (len(self.inverse[v]), format_label(v)),
        )

    def __contains__(self, element):
        return element in self.inverse

    def meet(self, a, b):
        return self.label[self.inverse[a] & self.inverse[b]]

    def join(self, a, b):
        return self.label[self.inverse[a] | self.inverse[b]]

    def complement(self, a):
        return self.label[frozenset(self.atoms) - self.inverse[a]]

    def leq(self, a, b):
        return self.inverse[a] <= self.inverse[b]


def verify_atlas(atlas):
    """Check the five atlas conditions; witnesses on failure."""
    found = {}

    def record(axiom, witness):
        if axiom not in found:
            found[axiom] = Violation(axiom, witness)

    charts = atlas.charts
    images = [set(c.label.values()) for c in charts]
    for i, j in itertools.permutations(range(len(charts)), 2):
        if images[i] <= images[j]:
            record("atlas-no-containment", (i, j))
    for i, j in itertools.combinations(range(len(charts)), 2):
        shared = images[i] & images[j]
        for a, b in itertools.product(sorted(shared, key=format_label), repeat=2):
            if charts[i].leq(a, b) != charts[j].leq(a, b):
                record("atlas-order-agreement", (a, b, i, j))
    zeros = {c.zero for c in charts}
    ones = {c.one for c in charts}
    if len(zeros) != 1 or len(ones) != 1 or zeros == ones:
        record("atlas-shared-bounds", (tuple(zeros), tuple(ones)))
    for i, j in itertools.combinations(range(len(charts)), 2):
        for a in sorted(images[i] & images[j], key=format_label):
            if charts[i].complement(a) != charts[j].complement(a):
                record("atlas-complement-agreement", (a, i, j))
    for i, j in itertools.permutations(range(len(charts)), 2):
        shared = images[i] & images[j]
        for a, b in itertools.product(sorted(shared, key=format_label), repeat=2):
            if charts[i].meet(a, b) == charts[i].zero:
                if charts[i].join(a, b) != charts[j].join(a, b):
                    record("atlas-join-agreement", (a, b, i, j))
    violations = tuple(found[ax] for ax in ATLAS_AXIOMS if ax in found)
    cls = "atlas" if not violations else "not_atlas"
    return AxiomReport(cls, violations)


def is_manifold(atlas):
    """Joins and meets agree on every chart intersection."""
    charts = atlas.charts
    images = [set(c.label.values()) for c in charts]
    for i, j in itertools.combinations(range(len(charts)), 2):
        shared = sorted(images[i] & images[j], key=format_label)
        for a, b in itertools.product(shared, repeat=2):
            if charts[i].join(a, b) != charts[j].join(a, b):
                return PropertyCheck(False, ("join", a, b, i, j))
            if charts[i].meet(a, b) != charts[j].meet(a, b):
                return PropertyCheck(False, ("meet", a, b, i, j))
    return PropertyCheck(True)


def atlas_to_quasi_oa(atlas):
    """The union of the charts with a + b = a v b when some chart disjoins them."""
    elements = sorted(atlas.labels(), key=label_key)
    zero = atlas.charts[0].zero
    one = atlas.charts[0].one
    pieces = [[c.label[s] for s in subsets(c.atoms)] for c in atlas.charts]
    oplus, clash = block_sums(pieces)
    if clash is not None:
        # name the chart's first disagreement in its member order
        i = clash[0]
        before, _ = block_sums(pieces[:i])
        chart = atlas.charts[i]
        a, b = next(
            (a, b)
            for a, b in itertools.product(chart.members(), repeat=2)
            if chart.meet(a, b) == chart.zero
            and before.get((a, b), chart.join(a, b)) != chart.join(a, b)
        )
        raise StructureError(
            "charts disagree on %s + %s" % (format_label(a), format_label(b))
        )
    return FiniteQuasiOrthoalgebra(elements, zero, one, oplus)


def quasi_oa_to_atlas(table):
    """One chart per block of the table; chart atoms are the block's atoms."""
    charts = []
    for blk in blocks(table):
        structure = boolean_atoms(table, frozenset(blk))
        if structure is None:
            raise StructureError("block fails the Boolean test")
        atoms, label = structure
        charts.append(BooleanChart(atoms, label))
    return BooleanAtlas(charts)


def _lookup(atlas, a):
    cs = atlas.charts_containing(a)
    if not cs:
        raise StructureError("unknown label %s" % format_label(a))
    return cs


def compatible(atlas, a, b):
    """Some chart contains both."""
    _lookup(atlas, b)
    return any(b in c for c in _lookup(atlas, a))


def orthogonal(atlas, a, b):
    """Some chart contains both with meet 0."""
    _lookup(atlas, b)
    return any(
        b in c and c.meet(a, b) == c.zero for c in _lookup(atlas, a)
    )


def jointly_compatible(atlas, subset):
    subset = list(subset)
    for a in subset:
        _lookup(atlas, a)
    return any(all(a in c for a in subset) for c in atlas.charts)


def pairwise_compatible(atlas, subset):
    subset = list(subset)
    return all(
        compatible(atlas, a, b) for a, b in itertools.combinations(subset, 2)
    )


def jointly_orthogonal(atlas, subset):
    subset = list(subset)
    for a in subset:
        _lookup(atlas, a)
    for c in atlas.charts:
        if all(a in c for a in subset) and all(
            c.meet(a, b) == c.zero
            for a, b in itertools.combinations(subset, 2)
        ):
            return True
    return False


def pairwise_orthogonal(atlas, subset):
    subset = list(subset)
    return all(
        orthogonal(atlas, a, b) for a, b in itertools.combinations(subset, 2)
    )
