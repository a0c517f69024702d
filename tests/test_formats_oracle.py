"""Seeded fuzz of the text formats against the old parsers, and of the CLI.

The serialized corpus texts are mutated line by line and word by word.
`formats.parse_any` must agree with the verbatim old parsers in
`tests/formats_oracle.py`: the same `serialize` output, or the same
exception type and message.  The one intended difference: an urn text with
a repeated or missing `balls` or `colors` line, which the new reader
rejects and the old one read (the last such line won).  Every CLI command
on a sample of the mutated files must end in a report, never in an
exception outside `LogicError`.
"""

import random

import formats_oracle as old
from partlogic.cli import cli
from partlogic.corpus import corpus
from partlogic.errors import ParseError
from partlogic.formats import parse_any, serialize
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
