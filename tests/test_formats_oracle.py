"""Seeded fuzz of the text formats against the old parsers, and of the CLI.

The serialized corpus texts are mutated line by line and word by word.
`formats.parse_any` must agree with the verbatim old parsers in
`tests/formats_oracle.py`: the same `serialize` output, or the same
exception type and message.  The one intended difference: an urn text with
a repeated or missing `balls` or `colors` line, which the new reader
rejects and the old one read (the last such line won).  Every CLI command
on a sample of the mutated files must end in a report, never in an
exception outside `LogicError`; a file that is not UTF-8 text ends in an
input error naming the line of its first bad byte.

Serialized seeded Moore and Mealy machines, plain, mutated the same way,
and with comments, other spacing, glued keywords, repeated entries and
names, unknown names, missing rows and CRLF line ends, check the machine
reader by values against the old parsers too, both where it takes a text
and where it hands the text to the general path; it takes a text exactly
when the text is the writer's text of the machine the parsers build, with
every line ended in LF or every line ended in CRLF.
"""

import random

import pytest

import formats_oracle as old
from partlogic.cli import cli
from partlogic.corpus import corpus
from partlogic.errors import ParseError
from partlogic.formats import _written_machine, parse, parse_any, serialize
from test_automata_oracle import random_machine
from test_golden import COMMANDS

TEXTS = [serialize(e.payload) for e in corpus()]
WORDS = sorted({w for t in TEXTS for w in t.split()} | {"#", "|", "->", ":", "zz", "q:"})


def _mutate(rng, text):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(6)
        at = rng.randrange(len(lines)) if lines else 0
        if op == 0 and lines:
            del lines[at]
        elif op == 1 and lines:
            lines.insert(rng.randrange(len(lines) + 1), lines[at])
        elif op == 2 and lines:
            other = rng.randrange(len(lines))
            lines[at], lines[other] = lines[other], lines[at]
        elif op == 3:
            lines.insert(at, rng.choice(rng.choice(TEXTS).splitlines()))
        elif lines and lines[at].split():
            words = lines[at].split()
            k = rng.randrange(len(words))
            if op == 4:
                words[k] = rng.choice(WORDS)
            else:
                del words[k]
            lines[at] = " ".join(words)
    return "\n".join(lines) + "\n"


def mutations(seed, count):
    rng = random.Random(seed)
    return [_mutate(rng, rng.choice(TEXTS)) for _ in range(count)]


def _outcome(parse, text):
    try:
        kind, structure = parse(text)
    except Exception as exc:  # compared, not hidden: any type must match
        return type(exc).__name__, str(exc)
    return "ok", kind, serialize(structure)


def _urn_header_change(text):
    """An urn text whose balls or colors line is repeated or missing."""
    try:
        lines = old._lines(text)
        if old._kind(lines) != "urn":
            return False
    except ParseError:
        return False
    keys = [key for _no, key, _rest in lines]
    return keys.count("balls") != 1 or keys.count("colors") != 1


def test_parsers_agree_with_the_old_parsers_on_mutated_texts():
    matched = errors = excused = 0
    for text in mutations(0, 20000):
        want = _outcome(old.parse_any, text)
        got = _outcome(parse_any, text)
        if got == want:
            matched += 1
            errors += want[0] != "ok"
        else:
            assert _urn_header_change(text), (text, want, got)
            assert got[0] == "ParseError", (text, got)
            excused += 1
    assert matched + excused == 20000
    # both sides of the parsers are exercised, and the urn change is met
    assert 1000 < errors < matched - 1000
    assert excused > 0


def test_cli_commands_on_mutated_files_end_in_a_report(tmp_path):
    # 300 files, four commands each in turn: every command meets 100 files
    src = tmp_path / "m.txt"
    for i, text in enumerate(mutations(1, 300)):
        src.write_text(text)
        for j in range(4):
            command = COMMANDS[(4 * i + j) % len(COMMANDS)]
            argv = [command, str(src)] + ([str(src)] if command == "iso" else [])
            report = cli(argv)
            assert report.status in (0, 1, 2), (text, argv)
    # 120 more with a byte no UTF-8 text holds put in at a random place:
    # 0xff or 0xfe never occurs, and a stray continuation byte 0x80 breaks
    # the count of its sequence; every command reports that byte's line
    rng = random.Random(2)
    for i, text in enumerate(mutations(2, 120)):
        data = text.encode()
        at = rng.randrange(len(data) + 1)
        src.write_bytes(data[:at] + rng.choice([b"\xff", b"\xfe", b"\x80"]) + data[at:])
        line = data.count(b"\n", 0, at) + 1
        command = COMMANDS[i % len(COMMANDS)]
        argv = [command, str(src)] + ([str(src)] if command == "iso" else [])
        report = cli(argv)
        assert report.status == 2, (data, at, argv)
        assert report.text.startswith("error: line %d: byte 0x" % line), report.text


def machine_texts(seed, count):
    """Serialized seeded machines, Moore and Mealy alike."""
    rng = random.Random(seed)
    return [serialize(random_machine(rng)) for _ in range(count)]


def _irregular(rng, text):
    """A machine text with one change of a kind a hand-written text may show.

    Returns the text and the name of the change; "arrow" glues '->' to its
    neighbours; "crlf" ends every line in CRLF, "crlf line" one line.
    """
    lines = text.splitlines()
    at = rng.randrange(len(lines))
    words = lines[at].split()
    op = rng.choice(
        ["comment", "comment line", "spaces", "blank", "glued", "arrow",
         "repeated pair", "repeated name", "repeated head", "unknown name",
         "missing row", "head order", "crlf", "crlf line"]
    )
    if op == "comment":
        lines[at] += rng.choice([" # note", "#", " #"])
    elif op == "comment line":
        lines.insert(at, "# a comment")
    elif op == "spaces":
        lines[at] = rng.choice(["  ", "\t", ""]) + rng.choice(["   ", "\t"]).join(words) + rng.choice([" ", ""])
    elif op == "blank":
        lines.insert(at, rng.choice(["", "   "]))
    elif op == "glued":
        lines[at] = words[0] + " ".join(words[1:])
    elif op == "arrow" and "->" in words:
        k = words.index("->")
        lines[at] = " ".join(words[: k - 1] + [words[k - 1] + "->" + words[k + 1]] + words[k + 2 :])
    elif op == "repeated pair":
        rows = [i for i, line in enumerate(lines) if "->" in line]
        row = lines[rng.choice(rows)]
        changed = row.rsplit(" ", 1)[0] + " " + rng.choice(words)
        lines.insert(rng.randrange(3, len(lines) + 1), rng.choice([row, changed]))
    elif op == "repeated name":
        head = rng.randrange(3)
        lines[head] += " " + rng.choice(lines[head].split()[1:] or ["x"])
    elif op == "repeated head":
        lines.insert(rng.randrange(len(lines) + 1), lines[rng.randrange(3)])
    elif op == "unknown name" and len(words) > 1:
        words[rng.randrange(1, len(words))] = "zz"
        lines[at] = " ".join(words)
    elif op == "missing row" and at >= 3:
        del lines[at]
    elif op == "head order":
        lines[:3] = rng.sample(lines[:3], 3)
    elif op == "crlf":
        return "\r\n".join(lines) + "\r\n", op
    elif op == "crlf line":
        lines[at] += "\r"
    return "\n".join(lines) + "\n", op


def _parse_outcome(kind, parse_kind, text):
    try:
        structure = parse_kind(kind, text)
    except Exception as exc:  # compared, not hidden: any type must match
        return type(exc).__name__, str(exc)
    return "ok", serialize(structure)


def _check_machine_text(text):
    """The readers agree with the old parsers on one machine text.

    The reader by values takes the text, with its kind given or not,
    exactly when the text is the writer's text of what the parsers build,
    up to CRLF line ends.  Returns whether it took the text without a kind.
    """
    want = _outcome(old.parse_any, text)
    assert _outcome(parse_any, text) == want, (text, want)
    # the writer ends every line in LF, or every line in CRLF
    written = text.replace("\r\n", "\n") if text.count("\r\n") == text.count("\n") else text
    taken = _written_machine(text) is not None
    assert taken == (want[0] == "ok" and want[2] == written), (text, want)
    for kind in ("mealy", "moore"):
        got = _parse_outcome(kind, parse, text)
        assert got == _parse_outcome(kind, old.parse, text), (kind, text)
        assert (_written_machine(text, kind) is not None) == (got == ("ok", written)), (kind, text)
    if want[0] == "ok":
        m = parse_any(text)[1]
        again = type(m)(m.states, m.inputs, m.outputs, m.delta, m.lam)
        assert (again.succ, again.out) == (m.succ, m.out), text
    return taken


def test_machine_texts_agree_with_the_old_parsers():
    texts = machine_texts(2, 300)
    taken = sum(map(_check_machine_text, texts))
    # every serialized machine is read by its values
    assert taken == len(texts)
    assert {text.splitlines()[-1].count(" ") for text in texts} == {3, 4}


def test_irregular_machine_texts_agree_with_the_old_parsers():
    rng = random.Random(3)
    seen = {}
    for text in machine_texts(4, 3000):
        text, op = _irregular(rng, text)
        taken = _check_machine_text(text)
        seen.setdefault(op, set()).add(taken)
    # each change is met; CRLF on every line keeps every text the reader's
    # by values, each other change sends some texts to the general path, and
    # spacing, blank lines and CRLF on one line send every text there
    assert len(seen) == 14
    assert seen.pop("crlf") == {True}
    assert seen["spaces"] == seen["blank"] == seen["crlf line"] == {False}
    assert all(False in both for both in seen.values()), seen


@pytest.mark.parametrize(
    "text",
    [
        # rows of a repeated state or input: the label dicts keep the last
        "states: q q\ninputs: a\noutputs: 0 1\ndelta: q a -> q\ndelta: q a -> q\nlambda: q a -> 0\nlambda: q a -> 1\n",
        "states: q\ninputs: a a\noutputs: 0 1\ndelta: q a -> q\ndelta: q a -> q\nlambda: q a -> 0\nlambda: q a -> 1\n",
        # a name holding '#' starts a comment, one holding '->' an arrow
        "states: q#r\ninputs: a\noutputs: 0\ndelta: q#r a -> q#r\nlambda: q#r a -> 0\n",
        "states: q\ninputs: a->b\noutputs: 0\ndelta: q a->b -> q\nlambda: q a->b -> 0\n",
    ],
)
def test_texts_the_writer_could_write_but_the_parsers_read_otherwise(text):
    # each row carries the value the writer would give it, so only the
    # header checks send these texts to the general path
    assert _written_machine(text) is None
    assert _written_machine(text, "mealy") is None
    _check_machine_text(text)


def test_mutated_machine_texts_agree_with_the_old_parsers():
    rng = random.Random(5)
    outcomes = {True: 0, False: 0}
    written = 0
    for text in machine_texts(6, 2000):
        text = _mutate(rng, text)
        outcomes[_check_machine_text(text)] += 1
        want = _outcome(old.parse_any, text)
        written += want[0] == "ok" and want[2] == text
    assert outcomes[False] > 50, outcomes
    # the reader by values takes exactly the mutated texts that are still
    # the writer's text of what the old parsers build, and meets some
    assert outcomes[True] == written > 0, (outcomes, written)
