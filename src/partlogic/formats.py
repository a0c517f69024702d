"""Line-oriented text formats for every structure kind.

parse(kind, text) builds a structure; serialize(structure) emits the
canonical form (atoms, cells, and partitions sorted).  Parsing preserves
the given cell order, which matters for automaton output indices.
"""

import re
from itertools import chain

from .atlas import BooleanAtlas, BooleanChart
from .automata import MealyAutomaton, MooreAutomaton
from .errors import ParseError
from .oa import GreechieDiagram
from .partition import PartitionLogic, UrnModel
from .testspace import PartitionTestSpace

KINDS = (
    "greechie",
    "partition_logic",
    "atlas",
    "urn",
    "mealy",
    "moore",
    "pts",
)

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
    for pts in map(str.split, rest.split("|")):
        cell = frozenset(pts)
        if not cell:
            raise ParseError("empty cell", line=no)
        if len(cell) != len(pts):
            raise ParseError("repeated point inside a cell", line=no)
        cells.append(cell)
    return cells


def _read(lines, heads, rows):
    """Read the lines of one file: each head once, each row in file order.

    `heads` names the keywords that must occur exactly once; `rows` maps
    each row keyword to a reader called as reader(rest, no).  Returns the
    words of each head line in `heads` order, then one list of reader
    results per row keyword in `rows` order.
    """
    got = dict.fromkeys(heads)
    read = {key: [] for key in rows}
    for no, key, rest in lines:
        if key in read:
            read[key].append(rows[key](rest, no))
        elif key in got:
            if got[key] is not None:
                raise ParseError("second %s line" % key, line=no)
            got[key] = rest.split()
        else:
            raise ParseError("unexpected keyword %r" % key, line=no)
    for key, words in got.items():
        if words is None:
            raise ParseError("missing %s line" % key)
    return [*got.values(), *read.values()]


def _block(rest, no):
    names = rest.split()
    if len(set(names)) != len(names):
        raise ParseError("duplicate atom in block", line=no)
    return names


def _parse_greechie(lines):
    atoms, blocks = _read(lines, ("atoms",), {"block": _block})
    if not blocks:
        raise ParseError("missing block lines")
    return GreechieDiagram(atoms, blocks)


def _parse_partition_logic(lines):
    points, partitions = _read(lines, ("points",), {"partition": _cells})
    return PartitionLogic(points, partitions)


def _parse_atlas(lines):
    omega, charts = _read(
        lines, ("omega",), {"chart": lambda rest, no: (no, _cells(rest, no))}
    )
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
    balls, colors, rows = _read(
        lines, ("balls", "colors"), {"ball": lambda rest, no: (no, rest.split())}
    )
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


def _arrow(width, message):
    """A row reader of 'q [a] -> value' lines with `width` names before the arrow.

    It returns (key, value), the key being the state, or the (state, input)
    pair when `width` is 2.
    """

    def reader(rest, no):
        if "->" not in rest:
            raise ParseError("expected '->'", line=no)
        left, right = (side.split() for side in rest.split("->", 1))
        if len(right) != 1:
            raise ParseError("expected one value after '->'", line=no)
        if len(left) != width:
            raise ParseError(message, line=no)
        return (left[0] if width == 1 else tuple(left)), right[0]

    return reader


def _parse_automaton(lines, moore):
    if moore:
        output_row = _arrow(1, "moore lambda lines read 'lambda: q -> o'")
    else:
        output_row = _arrow(2, "mealy lambda lines read 'lambda: q a -> o'")
    rows = {"delta": _arrow(2, "delta lines read 'delta: q a -> q2'"), "lambda": output_row}
    states, inputs, outputs, delta, lam = _read(lines, ("states", "inputs", "outputs"), rows)
    cls = MooreAutomaton if moore else MealyAutomaton
    return cls(states, inputs, outputs, dict(delta), dict(lam))


def _parse_pts(lines):
    base, tests = _read(lines, ("base",), {"test": _cells})
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

_MACHINE = re.compile(r"\s*states:")


def _read_machine(text, kind=None):
    """Read a machine text in one pass straight into its step table.

    Takes the text only when every nonblank line is whole: the states,
    inputs and outputs lines first, in that order, each of distinct names
    free of '#' and '->'; then delta and lambda lines of exactly their
    words, naming declared states, inputs and outputs, each entry once and
    none missing.  The kind, unless given, is that of the first lambda line.
    Returns None for any other text; the general path then builds the same
    machine, or raises the message for the line at fault.
    """
    if not _MACHINE.match(text):
        return None
    rows = filter(None, map(str.split, text.splitlines()))
    names = []
    for key in ("states:", "inputs:", "outputs:"):
        words = next(rows, [None])
        if words[0] != key or len(set(words)) != len(words):
            return None
        if any("#" in w or "->" in w for w in words):
            return None
        names.append(words[1:])
    states, inputs, outputs = names
    state, column, output = ({x: i for i, x in enumerate(xs)} for xs in names)
    n = len(states)
    succ = [[None] * n for _ in inputs]
    moore = {"moore": True, "mealy": False}.get(kind)
    out = None
    try:
        for words in rows:
            if words[0] == "delta:" and len(words) == 5 and words[3] == "->":
                row, i, value = succ[column[words[2]]], state[words[1]], state[words[4]]
            elif words[0] != "lambda:":
                return None
            else:
                if moore is None:
                    moore = len(words) == 4
                if out is None:
                    out = [None] * n if moore else [[None] * n for _ in inputs]
                if moore and len(words) == 4 and words[2] == "->":
                    row, i, value = out, state[words[1]], output[words[3]]
                elif not moore and len(words) == 5 and words[3] == "->":
                    row, i, value = out[column[words[2]]], state[words[1]], output[words[4]]
                else:
                    return None
            if row[i] is not None:
                return None
            row[i] = value
    except KeyError:
        return None
    if out is None or any(None in row for row in succ + ([out] if moore else out)):
        return None
    cls = MooreAutomaton if moore else MealyAutomaton
    return cls._from_table(states, inputs, outputs, succ, out)


def parse(kind, text):
    """Parse text in the named kind's line format."""
    if kind not in _PARSERS:
        raise ParseError("unknown kind %r" % kind)
    if kind in ("mealy", "moore"):
        machine = _read_machine(text, kind)
        if machine is not None:
            return machine
    return _PARSERS[kind](_lines(text))


def parse_any(text):
    """Detect the kind from the text, then parse; returns (kind, structure)."""
    machine = _read_machine(text)
    if machine is not None:
        return machine.kind, machine
    lines = _lines(text)
    kind = _kind(lines)
    return kind, _PARSERS[kind](lines)


def _family_text(head, points, row, families):
    """A head line of sorted points, then one sorted row per partition.

    A row orders its cells as sorted name lists; the rows ascend as text.
    Each distinct cell is sorted and joined once.
    """
    # the head line joins the points, so they are str, and cells lie inside them
    known = {}
    for cell in chain.from_iterable(families):
        if cell not in known:
            names = sorted(cell)
            known[cell] = names, " ".join(names)
    rows = (" | ".join([t for _, t in sorted(map(known.__getitem__, f))]) for f in families)
    lines = [head + ": " + " ".join(sorted(points, key=str))]
    lines += [row + ": " + part for part in sorted(rows)] + [""]
    return "\n".join(lines)


def _machine_text(machine):
    """The header lines, then one delta and one lambda line per entry.

    Lines are joined from shared pieces (a head per state, " a -> " per
    input a, each target with its newline), not built one string each, so
    writing a machine needs little more memory than its text.
    """
    states, inputs, outputs = machine.states, machine.inputs, machine.outputs
    pieces = [
        "states: " + " ".join(states),
        "\ninputs: " + " ".join(inputs),
        "\noutputs: " + " ".join(outputs),
        "\n",
    ]
    arrows = [" %s -> " % a for a in inputs]
    to_state = [q + "\n" for q in states]
    to_output = [o + "\n" for o in outputs]
    for i, q in enumerate(states):
        head = "delta: " + q
        for arrow, row in zip(arrows, machine.succ):
            pieces += (head, arrow, to_state[row[i]])
    if machine.kind == "moore":
        for q, o in zip(states, machine.out):
            pieces += ("lambda: ", q, " -> ", to_output[o])
    else:
        for i, q in enumerate(states):
            head = "lambda: " + q
            for arrow, row in zip(arrows, machine.out):
                pieces += (head, arrow, to_output[row[i]])
    return "".join(pieces)


def serialize(structure):
    """Canonical text form; inverse of parse up to cell and line ordering."""
    if isinstance(structure, GreechieDiagram):
        lines = ["atoms: " + " ".join(sorted(structure.atoms, key=str))]
        for blk in sorted(tuple(sorted(b, key=str)) for b in structure.blocks):
            lines.append("block: " + " ".join(blk))
        lines.append("")
        return "\n".join(lines)
    if isinstance(structure, PartitionLogic):
        return _family_text(
            "points", structure.ground, "partition", structure.partitions
        )
    if isinstance(structure, BooleanAtlas):
        points = set()
        for chart in structure.charts:
            for atom in chart.atoms:
                if not isinstance(atom, frozenset):
                    raise ParseError("only point-set atlases serialize")
                points |= atom
        return _family_text(
            "omega", points, "chart", [c.atoms for c in structure.charts]
        )
    if isinstance(structure, UrnModel):
        lines = [
            "balls: " + " ".join(sorted(structure.ball_types, key=str)),
            "colors: " + " ".join(sorted(structure.colors, key=str)),
        ]
        for bt in sorted(structure.ball_types, key=str):
            syms = [
                structure.visible[(bt, col)]
                for col in sorted(structure.colors, key=str)
            ]
            lines.append("ball: %s %s" % (bt, " ".join(syms)))
        lines.append("")
        return "\n".join(lines)
    if isinstance(structure, (MealyAutomaton, MooreAutomaton)):
        return _machine_text(structure)
    if isinstance(structure, PartitionTestSpace):
        return _family_text("base", structure.base, "test", structure.tests)
    raise ParseError("cannot serialize %r" % type(structure).__name__)
