"""DOT rendering of diagrams (atom/block view) and tables (order view)."""

from .errors import StructureError
from .oa import (
    FiniteQuasiOrthoalgebra,
    GreechieDiagram,
    _blocks,
    format_label,
    from_greechie,
    hasse_covers,
    verify_quasi_oa,
)

# fixed block palette, cycled
_COLORS = (
    "#1b9e77",
    "#d95f02",
    "#7570b3",
    "#e7298a",
    "#66a61e",
    "#e6ab02",
)


def _quote(label):
    return '"%s"' % format_label(label).replace('"', '\\"')


def _greechie_dot(atom_blocks):
    lines = ["graph greechie {", "  layout=neato;", "  node [shape=circle];"]
    for a in dict.fromkeys(x for blk in atom_blocks for x in blk):
        lines.append("  %s;" % _quote(a))
    for i, blk in enumerate(atom_blocks):
        color = _COLORS[i % len(_COLORS)]
        for a, b in zip(blk, blk[1:]):
            lines.append('  %s -- %s [color="%s"];' % (_quote(a), _quote(b), color))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _hasse_dot(table):
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for e in table.elements:
        lines.append("  %s;" % _quote(e))
    for a, b in hasse_covers(table):
        lines.append("  %s -> %s;" % (_quote(a), _quote(b)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_dot(structure, style):
    """Render a diagram or table; styles are "greechie" and "hasse"."""
    if style not in ("greechie", "hasse"):
        raise StructureError("unknown style %r" % style)
    if isinstance(structure, GreechieDiagram):
        if style == "greechie":
            return _greechie_dot(structure.blocks)
        structure = from_greechie(structure)
    if not isinstance(structure, FiniteQuasiOrthoalgebra):
        raise StructureError(
            "dot rendering needs a diagram or a table, got %r"
            % type(structure).__name__
        )
    report = verify_quasi_oa(structure)
    if not report.passed:
        raise StructureError(
            "refusing to draw a non-verifying table: %s"
            % ", ".join(report.failing_axioms())
        )
    if style == "hasse":
        return _hasse_dot(structure)
    el = structure.elements
    return _greechie_dot([[el[p] for p in atoms] for _, atoms, _ in _blocks(structure)])
