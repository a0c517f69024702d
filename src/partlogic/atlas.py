"""Boolean atlases: chart families, axiom checks, and the table conversions."""

import itertools
from dataclasses import dataclass

from .errors import StructureError
from .oa import (
    AxiomReport,
    FiniteQuasiOrthoalgebra,
    Violation,
    _blocks,
    block_sums,
    format_label,
    label_key,
    subset_unions,
)

ATLAS_AXIOMS = (
    "atlas-no-containment",
    "atlas-order-agreement",
    "atlas-shared-bounds",
    "atlas-complement-agreement",
    "atlas-join-agreement",
)


@dataclass(frozen=True)
class PropertyCheck:
    holds: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.holds


class BooleanChart:
    """One chart: atoms plus distinct labels listed by atom mask (bit i: atoms[i])."""

    def __init__(self, atoms, labels):
        self.atoms = tuple(atoms)
        self.labels = tuple(labels)
        if len(set(self.atoms)) != len(self.atoms):
            raise StructureError("chart atoms repeat")
        if len(self.labels) != 2 ** len(self.atoms):
            raise StructureError("chart labeling is not total over atom subsets")
        self._mask = {v: m for m, v in enumerate(self.labels)}
        if len(self._mask) != len(self.labels):
            raise StructureError("label collision inside a chart")

    @classmethod
    def from_cells(cls, cells):
        """Chart generated by disjoint point-set cells; labels are unions."""
        cells = [frozenset(c) for c in cells]
        return cls(cells, subset_unions(cells))

    @property
    def zero(self):
        return self.labels[0]

    @property
    def one(self):
        return self.labels[-1]

    def members(self):
        """Labels in a deterministic (size, repr) order."""
        return sorted(
            self.labels,
            key=lambda v: (self._mask[v].bit_count(), format_label(v)),
        )

    def __contains__(self, element):
        return element in self._mask

    def meet(self, a, b):
        return self.labels[self._mask[a] & self._mask[b]]

    def join(self, a, b):
        return self.labels[self._mask[a] | self._mask[b]]

    def complement(self, a):
        return self.labels[self._mask[a] ^ (len(self.labels) - 1)]

    def leq(self, a, b):
        return not self._mask[a] & ~self._mask[b]


class BooleanAtlas:
    """A family of charts over one shared label space."""

    def __init__(self, charts):
        self.charts = tuple(charts)
        if not self.charts:
            raise StructureError("atlas needs at least one chart")

    def labels(self):
        return list(dict.fromkeys(v for chart in self.charts for v in chart.members()))

    def charts_containing(self, a):
        return [c for c in self.charts if a in c]

    def __repr__(self):
        return "BooleanAtlas(%d charts)" % len(self.charts)


def verify_atlas(atlas):
    """Check the five atlas conditions; witnesses on failure."""
    found = {}

    def record(axiom, witness):
        if axiom not in found:
            found[axiom] = Violation(axiom, witness)

    charts = atlas.charts
    images = [set(c.labels) for c in charts]
    zeros = {c.zero for c in charts}
    ones = {c.one for c in charts}
    if len(zeros) != 1 or len(ones) != 1 or zeros == ones:
        record("atlas-shared-bounds", (tuple(zeros), tuple(ones)))
    # one walk over ordered pairs; its i < j pairs come in combinations order
    for i, j in itertools.permutations(range(len(charts)), 2):
        if images[i] <= images[j]:
            record("atlas-no-containment", (i, j))
        shared = sorted(images[i] & images[j], key=format_label)
        if i < j:
            for a, b in itertools.product(shared, repeat=2):
                if charts[i].leq(a, b) != charts[j].leq(a, b):
                    record("atlas-order-agreement", (a, b, i, j))
            for a in shared:
                if charts[i].complement(a) != charts[j].complement(a):
                    record("atlas-complement-agreement", (a, i, j))
        for a, b in itertools.product(shared, repeat=2):
            if charts[i].meet(a, b) == charts[i].zero:
                if charts[i].join(a, b) != charts[j].join(a, b):
                    record("atlas-join-agreement", (a, b, i, j))
    violations = tuple(found[ax] for ax in ATLAS_AXIOMS if ax in found)
    cls = "atlas" if not violations else "not_atlas"
    return AxiomReport(cls, violations)


def is_manifold(atlas):
    """Joins and meets agree on every chart intersection."""
    charts = atlas.charts
    images = [set(c.labels) for c in charts]
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
    pieces = [c.labels for c in atlas.charts]
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
    el = table.elements
    return BooleanAtlas(
        BooleanChart([el[p] for p in atoms], [el[s] for s in sums])
        for _, atoms, sums in _blocks(table)
    )


def _holding(atlas, subset):
    """The charts holding every label of subset; an unknown label raises."""
    for a in subset:
        if not atlas.charts_containing(a):
            raise StructureError("unknown label %s" % format_label(a))
    return [c for c in atlas.charts if all(a in c for a in subset)]


def compatible(atlas, a, b):
    """Some chart contains both."""
    return jointly_compatible(atlas, (b, a))


def orthogonal(atlas, a, b):
    """Some chart contains both with meet 0."""
    return jointly_orthogonal(atlas, (b, a))


def jointly_compatible(atlas, subset):
    return bool(_holding(atlas, list(subset)))


def pairwise_compatible(atlas, subset):
    return all(
        compatible(atlas, a, b) for a, b in itertools.combinations(subset, 2)
    )


def jointly_orthogonal(atlas, subset):
    subset = list(subset)
    return any(
        all(c.meet(a, b) == c.zero for a, b in itertools.combinations(subset, 2))
        for c in _holding(atlas, subset)
    )


def pairwise_orthogonal(atlas, subset):
    return all(
        orthogonal(atlas, a, b) for a, b in itertools.combinations(subset, 2)
    )
