"""Behaviour contract for file sources: CLI text and JSON, byte for byte.

`tests/test_golden.py` reads `corpus:` sources, which the parser builds once
from the corpus texts, keeping their given order.  Here every corpus entry is
written out with `serialize`, in canonical order, and every source command
runs on that file.  The temporary directory reads as `$TMP` in the
stored records.  `tests/golden/files_cli.json` holds the exit status, the
plain-text stdout and the `--json` stdout of each run.  Regenerate it only
for an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden_files.py
"""

import json
import tempfile
from pathlib import Path

from partlogic.corpus import corpus
from partlogic.formats import serialize
from test_golden import COMMANDS, _dump, _stdout

GOLDEN = Path(__file__).parent / "golden" / "files_cli.json"


def file_runs():
    """One record per command x serialized corpus entry, in a fixed order."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for entry in corpus():
            (Path(tmp) / (entry.id + ".txt")).write_text(serialize(entry.payload))
        for command in COMMANDS:
            for entry in corpus():
                source = str(Path(tmp) / (entry.id + ".txt"))
                argv = [command, source] + ([source] if command == "iso" else [])
                status, text = _stdout(argv)
                json_status, blob = _stdout(["--json"] + argv)
                assert json_status == status
                runs.append(
                    {
                        "argv": [a.replace(tmp, "$TMP") for a in argv],
                        "status": status,
                        "text": text.replace(tmp, "$TMP"),
                        "json": blob.replace(tmp, "$TMP"),
                    }
                )
    return runs


def test_file_cli_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = file_runs()
    assert len(actual) == len(expected) == len(COMMANDS) * len(corpus())
    for want, got in zip(expected, actual):
        assert got == want, want["argv"]
    assert _dump(actual) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dump(file_runs()))
