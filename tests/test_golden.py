"""Behaviour contract: CLI text and JSON on every corpus entry, byte for byte.

`tests/golden/corpus_cli.json` holds, for every source command and corpus
entry, the exit status, the plain-text stdout and the `--json` stdout.
Regenerate it only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from partlogic.cli import main
from partlogic.corpus import corpus

GOLDEN = Path(__file__).parent / "golden" / "corpus_cli.json"

COMMANDS = (
    "verify",
    "states",
    "prime",
    "blocks",
    "iso",
    "to-pl",
    "to-automaton",
    "from-automaton",
    "atlas",
    "testspace",
    "complete",
    "dot",
)


def _argv(command, eid):
    source = "corpus:" + eid
    if command == "iso":
        return [command, source, source]
    return [command, source]


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


def corpus_runs():
    """One record per command x corpus entry, in a fixed order."""
    runs = []
    for command in COMMANDS:
        for entry in corpus():
            argv = _argv(command, entry.id)
            status, text = _stdout(argv)
            json_status, blob = _stdout(["--json"] + argv)
            assert json_status == status
            runs.append(
                {"argv": argv, "status": status, "text": text, "json": blob}
            )
    return runs


def _dump(runs):
    return json.dumps(runs, indent=1, sort_keys=True) + "\n"


def test_corpus_cli_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = corpus_runs()
    assert len(actual) == len(expected) == len(COMMANDS) * len(corpus())
    for want, got in zip(expected, actual):
        assert got == want, want["argv"]
    assert _dump(actual) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dump(corpus_runs()))
