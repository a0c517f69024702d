"""Command-line behavior: exits, reports, JSON round trips, DOT output."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import partlogic as P
from partlogic.cli import Report, cli, main
from partlogic.dot import render_dot
from conftest import corpus_entry


def test_states_wright_prints_reference_rows():
    report = cli(["states", "corpus:wright"])
    assert report.status == 0
    assert report.result["count"] == 4
    rows = sorted(tuple(r) for r in report.result["rows"])
    assert rows == sorted(
        [
            (1, 0, 0, 1, 0, 0),
            (0, 0, 1, 0, 0, 1),
            (0, 1, 0, 0, 1, 0),
            (0, 1, 0, 1, 0, 1),
        ]
    )
    assert report.result["atoms"] == ["a", "b", "c", "d", "e", "f"]


def test_prime_fano_exits_one():
    report = cli(["prime", "corpus:fano"])
    assert report.status == 1
    assert report.result["prime"] is False
    assert "not prime" in report.text


def test_prime_wright_exits_zero():
    report = cli(["prime", "corpus:wright"])
    assert report.status == 0


def test_verify_empty_source_is_usage_error():
    report = cli(["verify", "--"])
    assert report.status == 2


def test_unknown_flag_is_usage_error():
    assert cli(["states", "--frobnicate", "corpus:wright"]).status == 2


USAGE = """\
usage: partlogic [-h] [--json]
                 {verify,states,prime,blocks,iso,to-pl,to-automaton,from-automaton,atlas,testspace,complete,dot,corpus}
                 ...
"""


def test_help_and_usage_texts(monkeypatch, capsys):
    # argparse wraps to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"]) == 0
    assert capsys.readouterr() == (USAGE + """
finite quantum-logic toolkit: tables, partitions, atlases, automata, test
spaces

positional arguments:
  {verify,states,prime,blocks,iso,to-pl,to-automaton,from-automaton,atlas,testspace,complete,dot,corpus}
    verify              run the structure's verifier
    states              enumerate two-valued states
    prime               check for a separating set of two-valued states
    blocks              list maximal Boolean sub-structures
    iso                 search for an isomorphism between two logics
    to-pl               represent a prime logic as a partition logic
    to-automaton        realize a partition logic as a Mealy machine
    from-automaton      partition logic of a machine's experiments
    atlas               verify an atlas, or chart a table by its blocks
    testspace           inspect a test space (validity, algebraicity, weights)
    complete            complete a partition test space
    dot                 render DOT output
    corpus              list bundled corpus entries

options:
  -h, --help            show this help message and exit
  --json                emit a JSON report
""", "")
    assert main(["from-automaton", "--help"]) == 0
    assert capsys.readouterr() == ("""\
usage: partlogic from-automaton [-h] [--max-word-length MAX_WORD_LENGTH]
                                source

positional arguments:
  source                corpus:<id> or a file path

options:
  -h, --help            show this help message and exit
  --max-word-length MAX_WORD_LENGTH
                        experiment word length bound, or 'all' for every word
                        (default 2)
""", "")
    assert main(["bogus"]) == 2
    assert capsys.readouterr() == ("", USAGE + (
        "partlogic: error: argument cmd: invalid choice: 'bogus' (choose from 'verify',"
        " 'states', 'prime', 'blocks', 'iso', 'to-pl', 'to-automaton', 'from-automaton',"
        " 'atlas', 'testspace', 'complete', 'dot', 'corpus')\n"
    ))


def test_unknown_corpus_id_is_input_error():
    assert cli(["states", "corpus:nope"]).status == 2


def test_missing_file_is_input_error():
    assert cli(["verify", "/nonexistent/file.txt"]).status == 2


def test_file_that_is_not_utf8_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"atoms: a b\xff\nblock: a b\n")
    assert main(["verify", str(bad)]) == 2
    assert capsys.readouterr().out == "error: line 1: byte 0xff is not UTF-8\n"
    # the line is that of the first bad byte, a truncated sequence included
    bad.write_bytes(b"atoms: a b\nblock: a b\n\xc3")
    report = cli(["states", str(bad)])
    assert (report.status, report.text) == (2, "error: line 3: byte 0xc3 is not UTF-8")


def test_undeclared_automaton_values_are_input_errors(tmp_path, capsys):
    header = "states: 1 2\ninputs: t\noutputs: a b\n"
    bad = {
        "mealy-target": "delta: 1 t -> 9\ndelta: 2 t -> 1\n"
        "lambda: 1 t -> a\nlambda: 2 t -> b\n",
        "mealy-output": "delta: 1 t -> 2\ndelta: 2 t -> 1\n"
        "lambda: 1 t -> a\nlambda: 2 t -> z\n",
        "moore-output": "delta: 1 t -> 2\ndelta: 2 t -> 1\n"
        "lambda: 1 -> a\nlambda: 2 -> z\n",
    }
    for name, body in bad.items():
        src = tmp_path / (name + ".txt")
        src.write_text(header + body)
        assert main(["from-automaton", str(src)]) == 2, name
        out, err = capsys.readouterr()
        assert out.startswith("error: "), name
        assert "Traceback" not in out + err, name


def test_machine_without_states_is_input_error(tmp_path, capsys):
    # its empty cell list used to end in a max() traceback
    src = tmp_path / "m0.txt"
    src.write_text("states:\ninputs: a\noutputs: 0\nlambda: q a -> 0\n")
    assert main(["from-automaton", str(src)]) == 2
    assert capsys.readouterr() == ("error: empty state set\n", "")


def test_out_of_memory_exits_three_without_traceback(monkeypatch, capsys):
    def exhausted(table):
        raise MemoryError

    monkeypatch.setattr("partlogic.cli.enumerate_two_valued_states", exhausted)
    assert main(["states", "corpus:wright"]) == 3
    assert capsys.readouterr() == ("error: out of memory\n", "")
    assert main(["--json", "states", "corpus:wright"]) == 3
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {
        "command": ["--json", "states", "corpus:wright"],
        "status": 3,
        "result": {"error": "out of memory"},
    }


def test_verify_commands():
    assert cli(["verify", "corpus:wright"]).result["class"] == "orthoalgebra"
    assert cli(["verify", "corpus:firefly"]).result["class"] == "omp"
    # an atlas source runs the atlas verifier
    report = cli(["verify", "corpus:nontransitive"])
    assert report.status == 0
    assert report.result["class"] == "atlas"
    assert report.result["manifold"] is True


@pytest.mark.parametrize(
    "blocks, status, text, violations",
    [
        # a table failing the quasi axioms lists its violations
        (
            ["a3 a4 a2", "a1 a3", "a0 a2 a1 a4"],
            1,
            "class: not_quasi_oa\nviolation oav: a1 0\n",
            [{"axiom": "oav", "witness": ["a1", "0"]}],
        ),
        # one passing them but not associativity lists none
        (["a5 a0 a6 a3", "a1 a2 a4", "a3 a0 a2"], 0, "class: quasi_oa\n", []),
    ],
)
def test_verify_reports_the_quasi_axioms_a_table_fails(tmp_path, capsys, blocks, status, text, violations):
    atoms = sorted({a for b in blocks for a in b.split()})
    src = tmp_path / "d.txt"
    src.write_text("atoms: %s\n" % " ".join(atoms) + "".join("block: %s\n" % b for b in blocks))
    assert main(["verify", str(src)]) == status
    assert capsys.readouterr() == (text, "")
    assert main(["--json", "verify", str(src)]) == status
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["class"], result["violations"]) == (text.split()[1], violations)


def test_verify_reports_the_atlas_axioms_a_file_fails(tmp_path, capsys):
    # the second chart's labels lie inside the first's, and a failing atlas
    # gets no manifold check; passing atlas and test-space files are golden
    src = tmp_path / "a.txt"
    src.write_text("omega: 1 2 3\nchart: 1 | 2 | 3\nchart: 1 2 | 3\n")
    assert main(["verify", str(src)]) == 1
    assert capsys.readouterr() == ("class: not_atlas\nviolation atlas-no-containment: 1 0\n", "")
    assert main(["--json", "verify", str(src)]) == 1
    assert json.loads(capsys.readouterr().out)["result"] == {
        "kind": "atlas",
        "class": "not_atlas",
        "violations": [{"axiom": "atlas-no-containment", "witness": ["1", "0"]}],
        "manifold": None,
    }


def test_blocks_command():
    report = cli(["blocks", "corpus:firefly"])
    assert report.status == 0
    assert report.result["count"] == 2


def test_iso_command():
    assert cli(["iso", "corpus:pl-wright", "corpus:wright"]).status == 0
    report = cli(["iso", "corpus:firefly", "corpus:wright"])
    assert report.status == 1


def test_to_pl_on_fano_fails_with_witness():
    report = cli(["to-pl", "corpus:fano"])
    assert report.status == 1
    assert "error" in report.result


def test_to_pl_wright():
    report = cli(["to-pl", "corpus:wright"])
    assert report.status == 0
    assert report.result["points"] == 4


def test_automaton_pipeline(tmp_path):
    built = cli(["to-automaton", "corpus:pl-wright"])
    assert built.status == 0
    machine_file = tmp_path / "machine.txt"
    machine_file.write_text(built.result["text"])
    back = cli(["from-automaton", str(machine_file), "--max-word-length", "1"])
    assert back.status == 0
    assert len(back.result["partitions"]) == 3


def test_from_automaton_corpus():
    report = cli(["from-automaton", "corpus:mealy-fig12"])
    assert report.status == 0
    assert len(report.result["partitions"]) == 5


def test_atlas_command():
    report = cli(["atlas", "corpus:nontransitive"])
    assert report.status == 0
    assert report.result["manifold"] is True
    report = cli(["atlas", "corpus:firefly"])
    assert report.status == 0
    assert len(report.result["charts"]) == 2


def test_testspace_command():
    report = cli(["testspace", "corpus:pts-firefly"])
    assert report.status == 0
    assert report.result["algebraic"] is True
    # the four point evaluations plus the weight putting 1 on both of the
    # disjoint-but-unorthogonal cells {2} and {3}
    assert report.result["two_valued_weights"] == 5
    report = cli(["testspace", "corpus:wright"])
    assert report.result["two_valued_weights"] == 4


def test_testspace_counts_weights_it_could_never_list(tmp_path):
    # a loop of k three-atom blocks has Lucas(k) weights: 6.3e41 for k = 200
    k = 200
    atoms = ["x%d" % i for i in range(2 * k)]
    blocks = [(atoms[2 * i], atoms[2 * i + 1], atoms[(2 * i + 2) % (2 * k)]) for i in range(k)]
    src = tmp_path / "loop.txt"
    src.write_text(P.serialize(P.GreechieDiagram(atoms, blocks)))
    lucas = [2, 1]
    while len(lucas) <= k:
        lucas.append(lucas[-1] + lucas[-2])
    report = cli(["testspace", str(src)])
    assert report.status == 0
    assert report.result["two_valued_weights"] == lucas[k]


def test_complete_command(tmp_path):
    src = tmp_path / "pts.txt"
    src.write_text(
        "base: 1 2 3 4\ntest: 1 | 2 | 3 4\ntest: 2 | 3 | 1 4\n"
        "test: 1 | 3 | 2 4\n"
    )
    report = cli(["complete", str(src)])
    assert report.status == 0
    assert report.result["added"] == 0


def test_corpus_command():
    report = cli(["corpus"])
    assert report.status == 0
    ids = {row["id"] for row in report.result["entries"]}
    assert "wright" in ids and "fano" in ids


def test_json_report_round_trips():
    commands = [
        ["--json", "blocks", "corpus:wright"],
        ["--json", "states", "corpus:fig12"],
        ["--json", "prime", "corpus:fano"],
        ["--json", "verify", "corpus:nontransitive"],
        ["--json", "testspace", "corpus:pts-firefly"],
        ["--json", "corpus"],
    ]
    for argv in commands:
        report = cli(argv)
        blob = report.to_json()
        again = Report.from_json(blob)
        assert again.status == report.status
        assert again.result == report.result
        assert json.loads(blob)["command"] == argv


def test_fano_plane_on_digits(tmp_path):
    """Atoms named 1..7 keep their names; the unit is 1~ and 1's complement 1'."""
    src = tmp_path / "fano.txt"
    src.write_text(
        "atoms: 1 2 3 4 5 6 7\n"
        + "".join("block: %s\n" % " ".join(b) for b in ("123", "145", "167", "246", "257", "347", "356"))
    )
    report = cli(["verify", str(src)])
    assert (report.status, report.result["class"]) == (0, "orthoalgebra")
    report = cli(["states", str(src)])
    assert (report.status, report.text) == (0, "1 2 3 4 5 6 7\n(no states)")
    assert cli(["prime", str(src)]).status == 1
    report = cli(["blocks", str(src)])
    assert report.status == 0
    assert report.result["count"] == 7
    assert sorted({a for atoms in report.result["atoms"] for a in atoms}) == list("1234567")
    assert report.result["blocks"][0] == ["0", "1", "2", "3", "1'", "2'", "3'", "1~"]


def test_file_source_parses(tmp_path):
    src = tmp_path / "w.txt"
    src.write_text(P.serialize(corpus_entry("wright").payload))
    report = cli(["states", str(src)])
    assert report.status == 0
    assert report.result["count"] == 4


# DOT -----------------------------------------------------------------------------


def _dot_nodes(dot):
    return [
        line
        for line in dot.splitlines()
        if line.startswith('  "') and line.endswith(";") and "->" not in line
    ]


def test_hasse_dot_node_counts(firefly, wright):
    dot = render_dot(firefly, "hasse")
    assert dot.startswith("digraph hasse {")
    assert len(_dot_nodes(dot)) == 12
    assert len(_dot_nodes(render_dot(wright, "hasse"))) == 14


def test_two_element_chain_dot():
    t = P.pasting_to_oa(P.PartitionLogic(["1"], [[{"1"}]]))
    dot = render_dot(t, "hasse")
    arrows = [line for line in dot.splitlines() if "->" in line]
    assert len(arrows) == 1


def test_dot_deterministic():
    d = corpus_entry("wright").payload
    assert render_dot(d, "greechie") == render_dot(d, "greechie")
    one = cli(["dot", "corpus:wright", "--style", "hasse"])
    two = cli(["dot", "corpus:wright", "--style", "hasse"])
    assert one.result["dot"] == two.result["dot"]


def test_dot_refuses_broken_table():
    t = P.FiniteQuasiOrthoalgebra(
        ["0", "a", "b", "1"],
        "0",
        "1",
        {
            ("0", "0"): "0",
            ("0", "1"): "1",
            ("1", "0"): "1",
            ("a", "0"): "a",
            ("0", "a"): "a",
            ("b", "0"): "b",
            ("0", "b"): "b",
        },
    )
    try:
        render_dot(t, "hasse")
    except P.StructureError:
        pass
    else:
        raise AssertionError("expected a refusal")


def test_dot_greechie_from_diagram():
    dot = render_dot(corpus_entry("firefly").payload, "greechie")
    assert dot.startswith("graph greechie {")
    assert '"n"' in dot


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: render_dot(corpus_entry("wright").payload, "bogus"), "unknown style 'bogus'"),
        (
            lambda: render_dot(42, "greechie"),
            "dot rendering needs a diagram or a table, got 'int'",
        ),
    ],
)
def test_dot_input_errors(build, message):
    with pytest.raises(P.StructureError) as err:
        build()
    assert str(err.value) == message


def test_iso_of_a_thousand_element_loop_has_no_traceback(tmp_path):
    # L_260: 260 three-atom blocks in a loop, 1,042 elements; the search
    # assigns one element per level, deeper than the recursion limit
    k = 260
    atoms = ["a%d" % i for i in range(2 * k)]
    lines = ["atoms: " + " ".join(atoms)]
    for i in range(k):
        block = (atoms[2 * i], atoms[2 * i + 1], atoms[(2 * i + 2) % (2 * k)])
        lines.append("block: " + " ".join(block))
    src = tmp_path / "loop.txt"
    src.write_text("\n".join(lines) + "\n")
    report = cli(["iso", str(src), str(src)])
    assert report.status == 0, report.text
    assert len(report.result["mapping"]) == 4 * k + 2


def _src_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")]
    )
    return env


def test_stdout_closed_early_gives_no_traceback(tmp_path):
    # the realization machine of 300 points and two partitions is about
    # 1 MB of text, far more than a pipe buffers, so printing it meets the
    # closed pipe
    points = ["p%d" % i for i in range(300)]
    src = tmp_path / "pl.txt"
    src.write_text(
        P.serialize(P.PartitionLogic(points, [[points[:7], points[7:]], [points[:-1], points[-1:]]]))
    )
    with subprocess.Popen(
        [sys.executable, "-m", "partlogic", "to-automaton", str(src)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_src_env(),
    ) as proc:
        assert proc.stdout.read(100).startswith(b"states: ")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err


def _rss_mb(pid):
    with open("/proc/%d/statm" % pid) as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
def test_states_on_a_long_loop_gives_no_traceback(tmp_path):
    # the state search used to recurse once per branch and ended in a
    # RecursionError on a loop of 1,200 blocks; the loop has far too many
    # states to list, so the run is stopped once it holds 100 MB
    k = 1200
    atoms = ["x%d" % i for i in range(2 * k)]
    blocks = [(atoms[2 * i], atoms[2 * i + 1], atoms[(2 * i + 2) % (2 * k)]) for i in range(k)]
    src = tmp_path / "loop.txt"
    src.write_text(P.serialize(P.GreechieDiagram(atoms, blocks)))
    with subprocess.Popen(
        [sys.executable, "-m", "partlogic", "states", str(src)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=_src_env(),
    ) as proc:
        deadline = time.monotonic() + 60
        while proc.poll() is None and time.monotonic() < deadline and _rss_mb(proc.pid) < 100:
            time.sleep(0.1)
        proc.kill()
        err = proc.stderr.read().decode()
    assert "Traceback" not in err
    assert proc.returncode == -signal.SIGKILL


def test_from_automaton_over_all_words(tmp_path):
    machine_file = tmp_path / "machine.txt"
    machine_file.write_text(P.serialize(corpus_entry("mealy-fig12").payload))
    argv = ["from-automaton", str(machine_file), "--max-word-length"]
    every = cli(argv + ["all"])
    assert every.status == 0
    assert every.result == cli(argv + ["40"]).result
    assert cli(argv + ["some"]).status == 2
