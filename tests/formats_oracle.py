"""Verbatim copies of the line parsers as they were before `formats._read`.

`tests/test_formats_oracle.py` compares them with `partlogic.formats` on
mutated texts.  At the end, the partition writer as it stood before each
cell was sorted once per call: `_fmt_partition`, which sorts a cell again
for every family holding it, and `_family_text`.  Only the imports and this
docstring are new.
"""

from partlogic.atlas import BooleanAtlas, BooleanChart
from partlogic.automata import MealyAutomaton, MooreAutomaton
from partlogic.errors import ParseError
from partlogic.oa import GreechieDiagram
from partlogic.partition import PartitionLogic, UrnModel
from partlogic.testspace import PartitionTestSpace

_LEAD = {
    "atoms": "greechie",
    "points": "partition_logic",
    "omega": "atlas",
    "balls": "urn",
    "states": "automaton",
    "base": "pts",
}


def _lines(text):
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'keyword: ...'", line=no)
        key, rest = line.split(":", 1)
        out.append((no, key.strip(), rest.strip()))
    if not out:
        raise ParseError("empty input")
    return out


def detect_kind(text):
    """Infer the structure kind from the first keyword line."""
    return _kind(_lines(text))


def _kind(lines):
    no, key, _rest = lines[0]
    kind = _LEAD.get(key)
    if kind is None:
        raise ParseError("unknown leading keyword %r" % key, line=no)
    if kind == "automaton":
        for _no, k, rest in lines:
            if k == "lambda":
                left = rest.split("->", 1)[0]
                return "moore" if len(left.split()) == 1 else "mealy"
        raise ParseError("automaton input has no lambda lines", line=no)
    return kind


def _cells(rest, no):
    cells = []
    for chunk in rest.split("|"):
        pts = chunk.split()
        if not pts:
            raise ParseError("empty cell", line=no)
        if len(set(pts)) != len(pts):
            raise ParseError("repeated point inside a cell", line=no)
        cells.append(frozenset(pts))
    return cells


def _parse_greechie(lines):
    atoms = None
    blocks = []
    for no, key, rest in lines:
        if key == "atoms":
            if atoms is not None:
                raise ParseError("second atoms line", line=no)
            atoms = rest.split()
        elif key == "block":
            names = rest.split()
            if len(set(names)) != len(names):
                raise ParseError("duplicate atom in block", line=no)
            blocks.append(names)
        else:
            raise ParseError("unexpected keyword %r" % key, line=no)
    if atoms is None:
        raise ParseError("missing atoms line")
    if not blocks:
        raise ParseError("missing block lines")
    return GreechieDiagram(atoms, blocks)


def _parse_partition_logic(lines):
    points = None
    partitions = []
    for no, key, rest in lines:
        if key == "points":
            if points is not None:
                raise ParseError("second points line", line=no)
            points = rest.split()
        elif key == "partition":
            partitions.append(_cells(rest, no))
        else:
            raise ParseError("unexpected keyword %r" % key, line=no)
    if points is None:
        raise ParseError("missing points line")
    return PartitionLogic(points, partitions)


def _parse_atlas(lines):
    omega = None
    charts = []
    for no, key, rest in lines:
        if key == "omega":
            if omega is not None:
                raise ParseError("second omega line", line=no)
            omega = rest.split()
        elif key == "chart":
            charts.append((no, _cells(rest, no)))
        else:
            raise ParseError("unexpected keyword %r" % key, line=no)
    if omega is None:
        raise ParseError("missing omega line")
    if not charts:
        raise ParseError("missing chart lines")
    ground = frozenset(omega)
    built = []
    for no, cells in charts:
        covered = set()
        for cell in cells:
            if not cell <= ground:
                raise ParseError("chart cell leaves omega", line=no)
            if covered & cell:
                raise ParseError("chart cells overlap", line=no)
            covered |= cell
        if covered != ground:
            raise ParseError("chart cells do not cover omega", line=no)
        built.append(BooleanChart.from_cells(cells))
    return BooleanAtlas(built)


def _parse_urn(lines):
    balls = None
    colors = None
    rows = []
    for no, key, rest in lines:
        if key == "balls":
            balls = rest.split()
        elif key == "colors":
            colors = rest.split()
        elif key == "ball":
            rows.append((no, rest.split()))
        else:
            raise ParseError("unexpected keyword %r" % key, line=no)
    if balls is None or colors is None:
        raise ParseError("urn needs balls and colors lines")
    visible = {}
    for no, row in rows:
        if len(row) != 1 + len(colors):
            raise ParseError("expected ball type plus one symbol per color", line=no)
        bt = row[0]
        if bt not in balls:
            raise ParseError("unknown ball type %r" % bt, line=no)
        for col, sym in zip(colors, row[1:]):
            if (bt, col) in visible:
                raise ParseError("duplicate symbol for (%s, %s)" % (bt, col), line=no)
            visible[(bt, col)] = sym
    return UrnModel(balls, colors, visible)


def _parse_automaton(lines, moore):
    header = {"states": None, "inputs": None, "outputs": None}
    delta = {}
    lam = {}
    for no, key, rest in lines:
        if key in header:
            if header[key] is not None:
                raise ParseError("second %s line" % key, line=no)
            header[key] = rest.split()
        elif key in ("delta", "lambda"):
            if "->" not in rest:
                raise ParseError("expected '->'", line=no)
            left, right = rest.split("->", 1)
            left = left.split()
            right = right.split()
            if len(right) != 1:
                raise ParseError("expected one value after '->'", line=no)
            if key == "delta":
                if len(left) != 2:
                    raise ParseError("delta lines read 'delta: q a -> q2'", line=no)
                delta[(left[0], left[1])] = right[0]
            elif moore:
                if len(left) != 1:
                    raise ParseError("moore lambda lines read 'lambda: q -> o'", line=no)
                lam[left[0]] = right[0]
            else:
                if len(left) != 2:
                    raise ParseError("mealy lambda lines read 'lambda: q a -> o'", line=no)
                lam[(left[0], left[1])] = right[0]
        else:
            raise ParseError("unexpected keyword %r" % key, line=no)
    for name in ("states", "inputs", "outputs"):
        if header[name] is None:
            raise ParseError("missing %s line" % name)
    cls = MooreAutomaton if moore else MealyAutomaton
    return cls(header["states"], header["inputs"], header["outputs"], delta, lam)


def _parse_pts(lines):
    base = None
    tests = []
    for no, key, rest in lines:
        if key == "base":
            if base is not None:
                raise ParseError("second base line", line=no)
            base = rest.split()
        elif key == "test":
            tests.append(_cells(rest, no))
        else:
            raise ParseError("unexpected keyword %r" % key, line=no)
    if base is None:
        raise ParseError("missing base line")
    if not tests:
        raise ParseError("missing test lines")
    cells = [c for t in tests for c in t]
    return PartitionTestSpace(base, cells, [frozenset(t) for t in tests])


_PARSERS = {
    "greechie": _parse_greechie,
    "partition_logic": _parse_partition_logic,
    "atlas": _parse_atlas,
    "urn": _parse_urn,
    "mealy": lambda lines: _parse_automaton(lines, moore=False),
    "moore": lambda lines: _parse_automaton(lines, moore=True),
    "pts": _parse_pts,
}


def parse(kind, text):
    """Parse text in the named kind's line format."""
    if kind not in _PARSERS:
        raise ParseError("unknown kind %r" % kind)
    return _PARSERS[kind](_lines(text))


def parse_any(text):
    """Detect the kind from the text, then parse; returns (kind, structure)."""
    lines = _lines(text)
    kind = _kind(lines)
    return kind, _PARSERS[kind](lines)


def _fmt_partition(cells):
    # the head line joins the points, so they are str, and cells lie inside them
    ordered = sorted(map(sorted, cells))
    return " | ".join(" ".join(c) for c in ordered)


def _family_text(head, points, row, families):
    """A head line of sorted points, then one sorted row per partition."""
    lines = [head + ": " + " ".join(sorted(points, key=str))]
    for part in sorted(_fmt_partition(f) for f in families):
        lines.append(row + ": " + part)
    lines.append("")
    return "\n".join(lines)
