"""Command-line front end.

Sources are ``corpus:<id>`` or file paths; file kinds are inferred from the
leading keyword.  Exit codes: 0 success/property-true, 1 property-false
(witness included in the report), 2 input or usage error, 3 out of memory.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .atlas import is_manifold, quasi_oa_to_atlas, verify_atlas
from .automata import partition_logic_to_mealy, propositional_calculus
from .corpus import _to_table
from .corpus import corpus as corpus_entries
from .corpus import get as corpus_get
from .dot import render_dot
from .errors import LogicError, ParseError, StructureError
from .formats import SOURCE_KIND, parse_any, serialize
from .oa import _blocks, classify, format_label, verify_quasi_oa
from .partition import (
    oa_to_partition_logic,
    isomorphic,
    urn_to_partition_logic,
)
from .states import atoms_of, enumerate_two_valued_states, is_prime
from .testspace import (
    TestSpace,
    completion,
    count_two_valued_weights,
    is_algebraic,
    is_complete,
    verify_test_space,
)

@dataclass
class Report:
    """One command's outcome; stdout is `text` followed by `end`."""

    command: list
    status: int
    result: dict
    text: str
    end: str = "\n"

    def to_json(self):
        return json.dumps(
            {"command": self.command, "status": self.status, "result": self.result},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, blob):
        data = json.loads(blob)
        return cls(data["command"], data["status"], data["result"], "")


def _load(token):
    """Resolve a source token to (kind, structure)."""
    if token.startswith("corpus:"):
        entry = corpus_get(token.split(":", 1)[1])
        return entry.kind, entry.payload
    path = Path(token)
    try:
        # is_file raises too, for a path under a directory it cannot search
        if not path.is_file():
            raise StructureError("no such file or corpus entry: %s" % token)
        data = path.read_bytes()
    except OSError as exc:
        raise StructureError("cannot read %s: %s" % (token, exc.strerror or exc)) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        message = "byte 0x%02x is not UTF-8" % exc.object[exc.start]
        raise ParseError(message, line) from None
    kind, payload = parse_any(text)
    return SOURCE_KIND.get(kind, kind), payload


def _table(token):
    """Load a source and paste it into a table."""
    return _to_table(*_load(token), token)


def _to_partition_logic(kind, payload, token):
    if kind == "partition_logic":
        return payload
    if kind == "urn":
        return urn_to_partition_logic(payload)
    raise StructureError("source %s (%s) is not a partition logic" % (token, kind))


def _witness(items):
    return [format_label(x) for x in items]


def _violations(report):
    return [
        {"axiom": v.axiom, "witness": _witness(v.witness)}
        for v in report.violations
    ]


def _cells_json(cells):
    return [sorted(map(str, c)) for c in cells]


def _cmd_verify(args):
    kind, payload = _load(args.source)
    if kind in ("atlas", "test_space"):
        atlas = kind == "atlas"
        report = verify_atlas(payload) if atlas else verify_test_space(payload.as_test_space())
        result = {"kind": kind, "class": report.structure_class, "violations": _violations(report)}
        if atlas:
            result["manifold"] = bool(is_manifold(payload)) if report.passed else None
        return (0 if report.passed else 1), result, _verify_text(result)
    if kind == "automaton":
        result = {
            "kind": kind,
            "class": "automaton",
            "states": len(payload.states),
            "inputs": len(payload.inputs),
            "violations": [],
        }
        return 0, result, _verify_text(result)
    table = _to_table(kind, payload, args.source)
    cls = classify(table)
    # classify reached any other class through verify_quasi_oa, so it passed
    violations = _violations(verify_quasi_oa(table)) if cls == "not_quasi_oa" else []
    result = {
        "kind": kind,
        "class": cls,
        "elements": len(table.elements),
        "violations": violations,
    }
    ok = cls not in ("not_quasi_oa",)
    return (0 if ok else 1), result, _verify_text(result)


def _verify_text(result):
    lines = ["class: %s" % result["class"]]
    for v in result["violations"]:
        lines.append("violation %s: %s" % (v["axiom"], " ".join(v["witness"])))
    if result.get("manifold") is not None:
        lines.append("manifold: %s" % result["manifold"])
    return "\n".join(lines)


def _cmd_states(args):
    table = _table(args.source)
    sts = enumerate_two_valued_states(table)
    atoms = atoms_of(table)
    rows = [list(s.row(atoms)) for s in sts]
    result = {
        "atoms": [format_label(a) for a in atoms],
        "count": len(sts),
        "rows": rows,
    }
    header = " ".join(result["atoms"])
    body = [" ".join(str(v) for v in row) for row in rows]
    text = "\n".join([header] + body) if rows else header + "\n(no states)"
    return 0, result, text


def _cmd_prime(args):
    table = _table(args.source)
    res = is_prime(table)
    if res.prime:
        result = {"prime": True, "states": len(res.separating)}
        return 0, result, "prime (%d states separate)" % len(res.separating)
    result = {"prime": False, "inseparable": _witness(res.inseparable)}
    return 1, result, "not prime: %s and %s are inseparable" % tuple(
        result["inseparable"]
    )


def _cmd_blocks(args):
    table = _table(args.source)
    names = list(map(format_label, table.elements))
    found = _blocks(table)
    result = {
        "count": len(found),
        "blocks": [[names[i] for i in members] for members, _, _ in found],
        "atoms": [[names[p] for p in atoms] for _, atoms, _ in found],
    }
    text = "\n".join(
        "block %d (atoms %s): %s"
        % (i + 1, " ".join(at), " ".join(bl))
        for i, (bl, at) in enumerate(zip(result["blocks"], result["atoms"]))
    )
    return 0, result, text


def _cmd_iso(args):
    iso = isomorphic(_table(args.source), _table(args.other))
    if iso is None:
        return 1, {"isomorphic": False}, "not isomorphic"
    mapping = {
        format_label(a): format_label(b) for a, b in iso.mapping.items()
    }
    text = "\n".join("%s -> %s" % kv for kv in sorted(mapping.items()))
    return 0, {"isomorphic": True, "mapping": mapping}, "isomorphic\n" + text


def _pl_result(pl):
    text = serialize(pl)
    result = {
        "points": len(pl.ground),
        "partitions": [_cells_json(p) for p in pl.partitions],
        "text": text,
    }
    # a serialized text ends in its newline already; print it as it is
    return 0, result, text, ""


def _cmd_to_pl(args):
    return _pl_result(oa_to_partition_logic(_table(args.source)))


def _cmd_to_automaton(args):
    kind, payload = _load(args.source)
    pl = _to_partition_logic(kind, payload, args.source)
    machine = partition_logic_to_mealy(pl)
    text = serialize(machine)
    return 0, {"text": text}, text, ""


def _cmd_from_automaton(args):
    kind, payload = _load(args.source)
    if kind != "automaton":
        raise StructureError("source %s is not an automaton" % args.source)
    return _pl_result(propositional_calculus(payload, args.max_word_length))


def _cmd_atlas(args):
    kind, payload = _load(args.source)
    if kind == "atlas":
        report = verify_atlas(payload)
        manifold = is_manifold(payload)
        result = {
            "class": report.structure_class,
            "manifold": bool(manifold),
            "charts": [
                _cells_json(c.atoms) for c in payload.charts
            ],
        }
        status = 0 if report.passed else 1
        text = "class: %s\nmanifold: %s" % (result["class"], result["manifold"])
        return status, result, text
    table = _to_table(kind, payload, args.source)
    atlas = quasi_oa_to_atlas(table)
    charts = [[format_label(a) for a in c.atoms] for c in atlas.charts]
    result = {"charts": charts}
    text = "\n".join("chart: %s" % " | ".join(c) for c in charts)
    return 0, result, text


def _cmd_testspace(args):
    kind, payload = _load(args.source)
    if kind == "greechie":
        ts = TestSpace.from_greechie(payload)
        pts_info = None
    elif kind == "test_space":
        ts = payload.as_test_space()
        pts_info = {"complete": bool(is_complete(payload))}
    else:
        raise StructureError("source %s (%s) is not a test space" % (args.source, kind))
    report = verify_test_space(ts)
    alg = is_algebraic(ts)
    result = {
        "class": report.structure_class,
        "algebraic": bool(alg),
        "two_valued_weights": count_two_valued_weights(ts),
    }
    if pts_info:
        result.update(pts_info)
    status = 0 if report.passed else 1
    text = "\n".join("%s: %s" % kv for kv in sorted(result.items()))
    return status, result, text


def _cmd_complete(args):
    kind, payload = _load(args.source)
    if kind != "test_space":
        raise StructureError("source %s is not a partition test space" % args.source)
    completed = completion(payload)
    added = len(completed.tests) - len(payload.tests)
    text = serialize(completed)
    result = {"added": added, "tests": len(completed.tests), "text": text}
    return 0, result, text, ""


def _cmd_dot(args):
    kind, payload = _load(args.source)
    if kind in ("greechie",):
        structure = payload
    else:
        structure = _to_table(kind, payload, args.source)
    text = render_dot(structure, args.style)
    return 0, {"dot": text}, text.rstrip("\n")


def _cmd_corpus(args):
    rows = [
        {"id": e.id, "kind": e.kind, "summary": e.summary}
        for e in corpus_entries()
    ]
    text = "\n".join("%-14s %-16s %s" % (r["id"], r["kind"], r["summary"]) for r in rows)
    return 0, {"entries": rows}, text


def _word_length(token):
    """An int word length bound, or None for 'all'."""
    if token == "all":
        return None
    try:
        return int(token)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer or 'all', got %r" % token)


def _parser():
    p = argparse.ArgumentParser(
        prog="partlogic",
        description="finite quantum-logic toolkit: tables, partitions, atlases,"
        " automata, test spaces",
    )
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = p.add_subparsers(dest="cmd", required=True)

    def source_cmd(name, help_text, run):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("source", help="corpus:<id> or a file path")
        sp.set_defaults(run=run)
        return sp

    source_cmd("verify", "run the structure's verifier", _cmd_verify)
    source_cmd("states", "enumerate two-valued states", _cmd_states)
    source_cmd("prime", "check for a separating set of two-valued states", _cmd_prime)
    source_cmd("blocks", "list maximal Boolean sub-structures", _cmd_blocks)
    sp = source_cmd("iso", "search for an isomorphism between two logics", _cmd_iso)
    sp.add_argument("other", help="corpus:<id> or a file path")
    source_cmd("to-pl", "represent a prime logic as a partition logic", _cmd_to_pl)
    source_cmd("to-automaton", "realize a partition logic as a Mealy machine", _cmd_to_automaton)
    sp = source_cmd("from-automaton", "partition logic of a machine's experiments", _cmd_from_automaton)
    sp.add_argument(
        "--max-word-length",
        type=_word_length,
        default=2,
        help="experiment word length bound, or 'all' for every word (default 2)",
    )
    source_cmd("atlas", "verify an atlas, or chart a table by its blocks", _cmd_atlas)
    source_cmd(
        "testspace", "inspect a test space (validity, algebraicity, weights)", _cmd_testspace
    )
    source_cmd("complete", "complete a partition test space", _cmd_complete)
    sp = source_cmd("dot", "render DOT output", _cmd_dot)
    sp.add_argument("--style", choices=("greechie", "hasse"), default="greechie")
    sub.add_parser("corpus", help="list bundled corpus entries").set_defaults(run=_cmd_corpus)
    return p


def cli(argv):
    """Run one command; returns a Report without exiting."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        status = 0 if exc.code == 0 else 2
        return Report(list(argv), status, {"error": "usage"}, "")
    try:
        status, result, text, *end = args.run(args)
    except (ParseError, StructureError) as exc:
        return Report(list(argv), 2, {"error": str(exc)}, "error: %s" % exc)
    except LogicError as exc:
        return Report(list(argv), 1, {"error": str(exc)}, "error: %s" % exc)
    except MemoryError:
        return Report(list(argv), 3, {"error": "out of memory"}, "error: out of memory")
    return Report(list(argv), status, result, text, *end)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    report = cli(argv)
    use_json = "--json" in argv
    try:
        if use_json:
            print(report.to_json())
        elif report.text:
            print(report.text, end=report.end)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; send the rest, and the flush at exit, to
        # devnull so that no traceback follows
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return report.status


if __name__ == "__main__":
    sys.exit(main())
