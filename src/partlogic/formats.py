"""Line-oriented text formats for every structure kind.

parse(kind, text) builds a structure; serialize(structure) emits the
canonical form (atoms, cells, and partitions sorted).  Parsing preserves
the given cell order, which matters for automaton output indices.  A
machine text in the writer's form, with LF or CRLF line ends, is read by
its values, and taken only if the writer writes the machine back so; every
other text goes through the one line reader, `_read`.
"""

import re
from itertools import chain

from .atlas import BooleanAtlas, BooleanChart
from .automata import MealyAutomaton, MooreAutomaton
from .errors import ParseError, StructureError
from .oa import GreechieDiagram
from .partition import PartitionLogic, UrnModel
from .testspace import PartitionTestSpace

_LEAD = {
    "atoms": "greechie",
    "points": "partition_logic",
    "omega": "atlas",
    "balls": "urn",
    "states": "automaton",
    "base": "pts",
}

# the source kind of each parsed kind that differs from it
SOURCE_KIND = {"mealy": "automaton", "moore": "automaton", "pts": "test_space"}


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


def _build(lines, key, build, whole, rows):
    """build(rows), the `key` lines' rows; a fault of one row names its line.

    Only on a StructureError: if the header builds alone, as the one row
    `whole`, each row is built beside it, and the first that raises the same
    message names its line.  Any other fault is raised unchanged.
    """
    try:
        return build(rows)
    except StructureError as exc:
        fault = exc
    try:
        build([whole])
    except StructureError:
        raise fault from None
    for no, row in zip([n for n, k, _rest in lines if k == key], rows):
        try:
            build([whole, row])
        except StructureError as exc:
            if str(exc) == str(fault):
                raise ParseError(str(fault), line=no) from None
    raise fault


def _parse_greechie(lines):
    atoms, blocks = _read(lines, ("atoms",), {"block": _block})
    if not blocks:
        raise ParseError("missing block lines")
    return _build(lines, "block", lambda rows: GreechieDiagram(atoms, rows), atoms, blocks)


def _parse_partition_logic(lines):
    points, partitions = _read(lines, ("points",), {"partition": _cells})
    return _build(
        lines, "partition", lambda rows: PartitionLogic(points, rows), [points], partitions
    )


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
    # the order in which a test's cells iterate depends on how its set is
    # built, so each test is a frozenset before the space maps its cells
    def build(rows):
        return PartitionTestSpace(base, chain(*rows), map(frozenset, rows))

    return _build(lines, "test", build, [frozenset(base)], tests)


_PARSERS = {
    "greechie": _parse_greechie,
    "partition_logic": _parse_partition_logic,
    "atlas": _parse_atlas,
    "urn": _parse_urn,
    "mealy": lambda lines: _parse_automaton(lines, moore=False),
    "moore": lambda lines: _parse_automaton(lines, moore=True),
    "pts": _parse_pts,
}

_HEAD = re.compile(r"states: (.*)\ninputs: (.*)\noutputs: (.*)\n")
_LAMBDA = re.compile(r"lambda: \S+ (\S+ )?-> ")
_VALUE = re.compile(r" -> (.*)\n")


def _written_machine(text, kind=None):
    """The machine whose writer's text is `text`, up to CRLF line ends, else None.

    Reads the header names, each list free of '#' and '->' and of repeated
    names; then every row's value, in the writer's order: the delta rows
    state by state, then the lambda rows.  The kind, unless given, is that
    of the first lambda line.  The machine is taken only if `_machine_text`
    writes it back byte for byte, every line ending in CRLF if the first
    does (its values then keep their CR), so the general path, which reads
    every other text, would build the same machine.
    """
    cr = "\r" if text[: text.find("\n")].endswith("\r") else ""
    head = _HEAD.match(text)
    if head is None or "#" in head[0] or "->" in head[0]:
        return None
    states, inputs, outputs = (names.split() for names in head.groups())
    if not states or any(len(set(names)) < len(names) for names in (states, inputs, outputs)):
        return None
    if kind is None:
        line = _LAMBDA.match(text, text.find("\nlambda: ") + 1)
        if line is None:
            return None
        kind = "mealy" if line[1] else "moore"
    moore = kind == "moore"
    n, m = len(states), len(inputs)
    values = _VALUE.findall(text, head.end())
    if len(values) != n * m + (n if moore else n * m):
        return None
    state, output = ({x + cr: i for i, x in enumerate(xs)} for xs in (states, outputs))
    try:
        steps = list(map(state.__getitem__, values[: n * m]))
        outs = list(map(output.__getitem__, values[n * m :]))
    except KeyError:
        return None
    succ = [steps[j::m] for j in range(m)]
    out = outs if moore else [outs[j::m] for j in range(m)]
    cls = MooreAutomaton if moore else MealyAutomaton
    machine = cls._from_table(states, inputs, outputs, succ, out)
    return machine if _machine_text(machine, cr + "\n") == text else None


def parse(kind, text):
    """Parse text in the named kind's line format."""
    if kind not in _PARSERS:
        raise ParseError("unknown kind %r" % kind)
    if kind in ("mealy", "moore"):
        machine = _written_machine(text, kind)
        if machine is not None:
            return machine
    return _PARSERS[kind](_lines(text))


def parse_any(text):
    """Detect the kind from the text, then parse; returns (kind, structure)."""
    machine = _written_machine(text)
    if machine is not None:
        return machine.kind, machine
    lines = _lines(text)
    kind = _kind(lines)
    return kind, _PARSERS[kind](lines)


def _family_text(head, points, row, families):
    """A head line of sorted points, then one sorted row per partition.

    A row orders its cells as sorted name lists; the rows ascend as text.
    Each distinct cell is ordered and joined once: a cell holding at least an
    eighth of the points is read off the sorted points, in one pass over
    them, and a smaller one is sorted, so a partition into many small cells
    costs no pass over the points per cell.
    """
    # the head line joins the points, so they are str, and cells lie inside them
    ordered = sorted(points, key=str)
    known = {}
    for cell in chain.from_iterable(families):
        if cell not in known:
            if 8 * len(cell) >= len(ordered):
                names = [p for p in ordered if p in cell]
            else:
                names = sorted(cell)
            known[cell] = names, " ".join(names)
    rows = (" | ".join([t for _, t in sorted(map(known.__getitem__, f))]) for f in families)
    lines = [head + ": " + " ".join(ordered)]
    lines += [row + ": " + part for part in sorted(rows)] + [""]
    return "\n".join(lines)


def _machine_text(machine, newline="\n"):
    """The header lines, then one delta and one lambda line per entry.

    Rows are joined from shared pieces (a head per state, " a -> " per
    input a, each target with its newline), three references a row.  Long
    rows, as in realization machines, are joined once: batches would copy
    the growing text many times over.  Short rows' references would outweigh
    the text, so the rows held are added to it once their states pass an
    eighth of those written: CPython grows a string held by one local name
    in place, so the writer needs little more memory than its text, and
    where it copies instead, the copies sum to a few times the text.
    """
    states, inputs, outputs = machine.states, machine.inputs, machine.outputs
    arrows = [" %s -> " % a for a in inputs]
    sections = [("delta: ", states, machine.succ, arrows)]
    if machine.kind == "moore":
        sections.append(("lambda: ", outputs, [machine.out], [" -> "]))
    else:
        sections.append(("lambda: ", outputs, machine.out, arrows))
    # rows are short when a delta row's state and arrow, a lower bound on its
    # length, average under 96 bytes: three references weigh a quarter of that
    short = 96 * len(states) * len(inputs) > (
        len(inputs) * sum(map(len, states)) + len(states) * sum(map(len, arrows))
    )
    text = ""
    heads = ("states: ", "inputs: ", "outputs: ")
    pieces = [head + " ".join(xs) + newline for head, xs in zip(heads, (states, inputs, outputs))]
    held = written = 0
    for key, names, table, arrows in sections:
        ends = [x + newline for x in names]
        line = [None] * (3 * len(arrows))
        line[1::3] = arrows
        for q, targets in zip(states, zip(*table)):
            line[0::3] = [key + q] * len(arrows)
            line[2::3] = map(ends.__getitem__, targets)
            pieces += line
            held += 1
            if short and 8 * held > written:
                text += "".join(pieces)
                pieces, held, written = [], 0, written + held
    text += "".join(pieces)
    return text


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
