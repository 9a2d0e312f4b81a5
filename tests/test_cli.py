"""Command line behaviour: exact output, exit codes, move-list parsing."""

import collections
import hashlib
import json
import os
import pathlib
import random
import resource
import subprocess
import sys

import pytest

from hkhovanov import chain, cli, cube, diagram
from hkhovanov.cli import main, parse_moves, spec_to_str
from hkhovanov.diagram import diagram_to_json
from hkhovanov.homology import kh_h, poincare_report
from hkhovanov.moves import MoveSpec
from hkhovanov.randgen import random_diagram

from helpers import corpus_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_tsv_exact_bytes(capsys):
    code, out, err = run(capsys, "compute", corpus_path("loop_a"))
    assert code == 0 and err == ""
    assert out == "i\tj\th\tdim\n0\t-1\t-1*[a]\t1\n0\t1\t1*[a]\t1\n"


def test_compute_json_document(capsys):
    path = corpus_path("torus_link2")
    code, out, err = run(capsys, "compute", path, "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    data = pathlib.Path(path).read_bytes()
    assert doc["diagram"] == hashlib.sha256(data).hexdigest()
    assert doc["flavor"] == "homotopical"
    assert doc["genus"] == 1
    assert doc["legend"] == {"[a]": [1, 0], "[b]": [0, 1]}
    assert len(doc["table"]) == 7
    assert sum(row["dim"] for row in doc["table"]) == 8
    assert {"i": 0, "j": 0, "h": "0", "dim": 2} in doc["table"]
    assert {"i": 0, "j": 2, "h": "2*[a]", "dim": 1} in doc["table"]
    assert {"i": 0, "j": -2, "h": "-2*[b]", "dim": 1} in doc["table"]


def test_identical_invocations_are_byte_identical(capsys):
    for fmt in ("tsv", "json"):
        argv = ("compute", corpus_path("trefoil_g1"), "--format", fmt)
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second and first[0] == 0


def rows(out):
    body = [ln.split("\t") for ln in out.splitlines()[1:]]
    return [(int(i), int(j), h, int(dim)) for i, j, h, dim in body]


def test_no_shift_moves_the_table_by_the_writhe_normalization(capsys):
    # one negative crossing: i moves by 1, j by 2, h untouched
    _, shifted, _ = run(capsys, "compute", corpus_path("kink_minus"))
    _, raw, _ = run(capsys, "compute", corpus_path("kink_minus"), "--no-shift")
    assert {(i - 1, j - 2, h, d) for i, j, h, d in rows(raw)} \
        == set(rows(shifted))


def test_classical_flavor_collapses_the_third_grading(capsys):
    code, out, _ = run(capsys, "compute", corpus_path("torus_link2"),
                       "--flavor", "classical")
    assert code == 0
    got = rows(out)
    assert all(h == "0" for _, _, h, _ in got)
    assert got == [(0, -2, "0", 1), (0, 0, "0", 2), (0, 2, "0", 1)]


def test_verify_d2_files_and_random(capsys):
    code, out, err = run(capsys, "verify-d2", corpus_path("neutral1"),
                         "--random", "5", "--seed", "7")
    assert code == 0 and err == ""
    assert "all slices zero" in out
    assert "random[4]: classical d^2 zero" in out


def test_verify_d2_without_work_is_an_error(capsys):
    code, out, err = run(capsys, "verify-d2")
    assert code == 2 and "error:" in err


def test_verify_table1(capsys):
    code, out, _ = run(capsys, "verify-table1")
    assert code == 0
    assert "39/39 cells hold" in out
    assert "classical row: 3/3 cells hold" in out
    assert "final row: holds" in out


def test_verify_table1_final_row_can_fail(monkeypatch, capsys):
    # a dispatch that picks a table for an edge of three nontrivial circles
    # breaks the last row; that row once held for any code
    real = chain._case

    def mutant(whole, a, b, what):
        if not (whole.is_trivial or a.is_trivial or b.is_trivial):
            return ""
        return real(whole, a, b, what)
    monkeypatch.setattr(chain, "_case", mutant)
    code, out, _ = run(capsys, "verify-table1")
    assert code == 1
    assert out == "39/39 cells hold\nclassical row: 3/3 cells hold\nfinal row: FAILS\n"


def test_verify_table1_names_each_failing_cell(monkeypatch, capsys):
    # wrong label tables break cells: each one is named with the first basis
    # mask where its sides differ, and the classical row is counted apart
    split, merge = chain.SPLIT_TABLES, chain.MERGE_TABLES
    delta1, delta2 = split["delta1"], split["delta2"]
    monkeypatch.setitem(split, "delta1", delta2)
    monkeypatch.setitem(split, "delta2", delta1)
    code, out, _ = run(capsys, "verify-table1")
    assert code == 1
    masks = [("2.a", "A", 1), ("2.a", "B", 3), ("2.b", "A", 1), ("2.c", "A", 1),
             ("2.c", "B", 2), ("3.a.i", "A", 1), ("3.b.i", "A", 1), ("3.b.i", "B", 2),
             ("3.b.ii", "B", 2), ("3.c.i", "A", 1), ("3.c.i", "B", 2), ("4.a", "A", 1),
             ("4.a", "B", 3), ("4.b", "A", 1), ("4.c", "A", 1)]
    assert out == "".join(["24/39 cells hold\n"]
                          + [f"FAIL {r} {c}: differs on basis mask {m}\n" for r, c, m in masks]
                          + ["classical row: 3/3 cells hold\nfinal row: holds\n"])
    monkeypatch.undo()

    monkeypatch.setitem(merge, "m", merge["m1"])
    code, out, _ = run(capsys, "verify-table1")
    assert code == 1
    assert out == ("37/39 cells hold\n"
                   "FAIL 2.c B: differs on basis mask 1\n"
                   "FAIL 3.a.i C: differs on basis mask 3\n"
                   "classical row: 2/3 cells hold\nfinal row: holds\n")


def test_verify_moves_explicit_sequence(capsys):
    code, out, _ = run(capsys, "verify-moves", corpus_path("trefoil_rh"),
                       "--moves", "r1+:edge=3,r2:edges=1,4")
    assert code == 0
    assert "r1+:edge=3: tables agree" in out
    assert "r2:edges=1,4: tables agree" in out
    assert "all moves preserve the table" in out


@pytest.mark.parametrize("moves, message", [
    ("r1rm:", "r1rm: missing parameter 'crossing'"),
    ("r2rm:", "r2rm: missing parameter 'crossings'"),
    ("r3:", "r3: missing parameter 'edges'"),
    ("r2:loop=0", "r2: missing parameter 'edge'"),
    ("r1+:edge=0,foo=3", "r1+: unknown parameter 'foo'"),
    ("r1+:foo=3,4", "r1+: unknown parameter 'foo'"),
])
def test_verify_moves_names_a_missing_or_unknown_parameter(moves, message, capsys):
    # a missing parameter used to escape as a KeyError (exit 1, the code of a
    # failed check) and an unknown one was ignored
    code, out, err = run(capsys, "verify-moves", corpus_path("loop_a"), "--moves", moves)
    assert code == 2 and out == ""
    assert err == f"error: --moves: {message}\n"


@pytest.mark.parametrize("moves, message", [
    ("r2rm:crossings=1", "r2rm: parameter 'crossings' takes 2 values"),
    ("r3:edges=0,1", "r3: parameter 'edges' takes 3 values"),
    ("r1+:edge=1,2", "r1+: parameter 'edge' takes one value"),
    ("r2:edges=0,1,loop=0", "r2: parameters 'edges' and 'loop' exclude each other"),
    ("r1+:edge=0,loop=0", "r1+: parameters 'edge' and 'loop' exclude each other"),
])
def test_verify_moves_names_a_wrong_arity_or_a_clash(moves, message, capsys):
    # a short tuple used to fail unpacking, naming neither the move nor the
    # key, and a second strand form was silently ignored
    code, out, err = run(capsys, "verify-moves", corpus_path("trefoil_rh"), "--moves", moves)
    assert code == 2 and out == ""
    assert err == f"error: --moves: {message}\n"


@pytest.mark.parametrize("moves, message", [
    ("r1+:edge=x", "r1+: parameter 'edge' takes integers, not 'x'"),
    ("r2:edges=0,x", "r2: parameter 'edges' takes integers, not 'x'"),
    ("r1+:edge=1,edge=2", "r1+: parameter 'edge' given twice"),
    ("r2:edges=0,1,splits=1,0,edges=1,2", "r2: parameter 'edges' given twice"),
])
def test_verify_moves_names_a_bad_value_or_a_repeated_key(moves, message, capsys):
    # a non-integer value used to escape as int()'s own message, naming
    # neither the move nor the key, and a repeated key silently kept its
    # last value
    code, out, err = run(capsys, "verify-moves", corpus_path("trefoil_rh"), "--moves", moves)
    assert code == 2 and out == ""
    assert err == f"error: --moves: {message}\n"


def test_verify_moves_default_site_enumeration(capsys):
    code, out, _ = run(capsys, "verify-moves", corpus_path("kink_plus"))
    assert code == 0
    assert "r1rm:crossing=0: tables agree" in out
    assert "all moves preserve the table" in out


def test_dump_cube_classifies_every_edge(capsys):
    code, out, _ = run(capsys, "dump-cube", corpus_path("neutral1"))
    assert code == 0
    assert "# genus 1, 1 crossings" in out
    assert "neutral 0 -> 0, differential zero" in out
    code, out, _ = run(capsys, "dump-cube", corpus_path("trefoil_rh"))
    assert code == 0
    assert out.count("\nedge ") == 12  # 3 * 2^2 cube edges
    assert "merge" in out and "split" in out and "neutral" not in out


DUMP_CUBE_GOLDEN = {
    "neutral1": """\
# diagram 2366c767797c3347755482d80cc3c833cf576a2f854cd3a6c1f94afe6725073c
# genus 1, 1 crossings, 0 free loops, 2 states (crossing 0 is the leftmost bit)
state 0: 1 circles: [a B~a B]
state 1: 1 circles: [a b~a b]
edge 0 -> 1 (crossing 0): neutral 0 -> 0, differential zero
""",
    "trefoil_g1": """\
# diagram e84df7f892af74ee1e60e4b93dd7aecf60588c185db6d7e0cfee514d774a2e23
# genus 1, 3 crossings, 0 free loops, 8 states (crossing 0 is the leftmost bit)
state 000: 2 circles: [a~a] [1~1]
state 100: 1 circles: [a~a]
state 010: 1 circles: [a~a]
state 110: 2 circles: [1~1] [a~a]
state 001: 1 circles: [a~a]
state 101: 2 circles: [1~1] [a~a]
state 011: 2 circles: [a~a] [1~1]
state 111: 3 circles: [1~1] [1~1] [a~a]
edge 000 -> 100 (crossing 0): merge 0,1 -> 0, case m1
edge 000 -> 010 (crossing 1): merge 0,1 -> 0, case m1
edge 000 -> 001 (crossing 2): merge 0,1 -> 0, case m1
edge 100 -> 110 (crossing 1): split 0 -> 0,1, case delta2
edge 100 -> 101 (crossing 2): split 0 -> 0,1, case delta2
edge 010 -> 110 (crossing 0): split 0 -> 0,1, case delta2
edge 010 -> 011 (crossing 2): split 0 -> 0,1, case delta1
edge 110 -> 111 (crossing 2): split 1 -> 1,2, case delta2
edge 001 -> 101 (crossing 0): split 0 -> 0,1, case delta2
edge 001 -> 011 (crossing 1): split 0 -> 0,1, case delta1
edge 101 -> 111 (crossing 1): split 0 -> 0,1, case delta
edge 011 -> 111 (crossing 0): split 0 -> 0,2, case delta2
""",
    # random_diagram(Random(16), 3, genus 2, one free loop): all three edge
    # kinds, a free loop after the traced circles, a split into 0,2
    "random16_g2_loop": """\
# diagram d3dd9c991820e628e482ca76c7e1ad0676600341e9fa68300ffe1609d330f33b
# genus 2, 3 crossings, 1 free loops, 8 states (crossing 0 is the leftmost bit)
state 000: 3 circles: [a2 B1 a2 A2~b1 A2] [1~1] [a2 B1~b1 A2]
state 100: 2 circles: [a2 B1 a2 A2~b1 A2] [a2 B1~b1 A2]
state 010: 3 circles: [a2 B1 a2 A2~b1 A2] [1~1] [a2 B1~b1 A2]
state 110: 2 circles: [a2 B1 a2 A2~b1 A2] [a2 B1~b1 A2]
state 001: 3 circles: [a2 A2 b1 A2~b1 A2] [1~1] [a2 B1~b1 A2]
state 101: 2 circles: [a2 A2 b1 A2~b1 A2] [a2 B1~b1 A2]
state 011: 4 circles: [a2 A2~1] [1~1] [B1 a2~b1 A2] [a2 B1~b1 A2]
state 111: 3 circles: [a2 A2~1] [B1 a2~b1 A2] [a2 B1~b1 A2]
edge 000 -> 100 (crossing 0): merge 0,1 -> 0, case m1
edge 000 -> 010 (crossing 1): neutral 0 -> 0, differential zero
edge 000 -> 001 (crossing 2): neutral 0 -> 0, differential zero
edge 100 -> 110 (crossing 1): neutral 0 -> 0, differential zero
edge 100 -> 101 (crossing 2): neutral 0 -> 0, differential zero
edge 010 -> 110 (crossing 0): merge 0,1 -> 0, case m1
edge 010 -> 011 (crossing 2): split 0 -> 0,2, case delta2
edge 110 -> 111 (crossing 2): split 0 -> 0,1, case delta2
edge 001 -> 101 (crossing 0): merge 0,1 -> 0, case m1
edge 001 -> 011 (crossing 1): split 0 -> 0,2, case delta2
edge 101 -> 111 (crossing 1): split 0 -> 0,1, case delta2
edge 011 -> 111 (crossing 0): merge 0,1 -> 0, case m
""",
}


@pytest.mark.parametrize("name", sorted(DUMP_CUBE_GOLDEN))
def test_dump_cube_exact_bytes(name, tmp_path, capsys):
    if name.startswith("random"):
        d = random_diagram(random.Random(16), 3, 2, n_loops=1)
        path = tmp_path / "random.json"
        path.write_text(json.dumps(diagram_to_json(d)))
    else:
        path = corpus_path(name)
    code, out, err = run(capsys, "dump-cube", path)
    assert code == 0 and err == ""
    assert out == DUMP_CUBE_GOLDEN[name]


def test_dump_cube_infers_ends_once_and_traces_each_state_once(monkeypatch, capsys):
    counts = collections.Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((cli, "resolve"), (cube, "resolve"), (diagram, "_infer_ends")):
        count(module, name)
    code, _, _ = run(capsys, "dump-cube", corpus_path("trefoil_g1"))
    assert code == 0
    assert counts == {"_infer_ends": 1, "resolve": 8}


def test_a_reader_closing_stdout_early_is_not_an_input_error():
    # `hkhovanov dump-cube ... | head -1`: the broken pipe exits 1 quietly
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "hkhovanov", "dump-cube",
                             corpus_path("perf12_genus1")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline().startswith(b"# diagram ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"error:" not in err and b"Traceback" not in err, err


# compute output recorded at commit 32d5d72, before class names and keys were
# stored: random_diagram(Random(seed), n, genus, max_word_len=3, n_loops=1),
# each table holding multi-term h (genus 1 adds the legend)
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_DIAGRAMS = {"g1_seed5": (5, 3, 1), "g2_seed3": (3, 4, 2), "g3_seed2": (2, 4, 3)}
GOLDEN_ARGS = {
    "tsv": (),
    "json": ("--format", "json"),
    "noshift.json": ("--format", "json", "--no-shift"),
    "classical.tsv": ("--flavor", "classical"),
}


def golden_input(case, tmp_path):
    seed, n, genus = GOLDEN_DIAGRAMS[case]
    d = random_diagram(random.Random(seed), n, genus, max_word_len=3, n_loops=1)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(diagram_to_json(d)))
    return d, path


@pytest.mark.parametrize("case", sorted(GOLDEN_DIAGRAMS))
@pytest.mark.parametrize("variant", sorted(GOLDEN_ARGS))
def test_compute_golden_bytes(case, variant, tmp_path, capsys):
    _, path = golden_input(case, tmp_path)
    code, out, err = run(capsys, "compute", path, *GOLDEN_ARGS[variant])
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{case}.{variant}").read_text()


@pytest.mark.parametrize("case", sorted(GOLDEN_DIAGRAMS))
@pytest.mark.parametrize("shift", [True, False])
def test_text_report_golden_bytes(case, shift, tmp_path):
    # compute offers no text format: this is the report call it makes, asked for text
    d, path = golden_input(case, tmp_path)
    meta = {"diagram": hashlib.sha256(path.read_bytes()).hexdigest()}
    out = poincare_report(kh_h(d, shift=shift), "text", meta=meta)
    name = "txt" if shift else "noshift.txt"
    assert out == (GOLDEN / f"{case}.{name}").read_text()


def test_missing_file_is_a_diagnostic(capsys):
    code, out, err = run(capsys, "compute", "/nonexistent/diagram.json")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_broken_json_reports_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nonsense")
    code, _, err = run(capsys, "compute", bad)
    assert code == 2
    assert "error:" in err and "line 1" in err


def test_deeply_nested_json_is_a_diagnostic(tmp_path, capsys):
    # the JSON parser gives up with a RecursionError, which used to escape
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for sub in ("compute", "verify-d2", "verify-moves", "dump-cube"):
        code, out, err = run(capsys, sub, deep)
        assert code == 2 and out == "", sub
        assert err == f"error: {deep}: JSON nested too deeply to parse\n", sub


def test_compute_at_genus_ten_thousand(tmp_path):
    # Dehn reduction keeps state only for the letters its words use, so a
    # large genus costs no more than its letters.  Tables of relator subwords
    # took O(g^3) and successor maps built whole took O(g); both ran out of
    # memory.
    # Each run gets a 1 GiB address-space cap so that such a regression fails
    # here rather than straining the machine.
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    outs = []
    for genus in (2, 10_000, 1_000_000_000):
        path = tmp_path / f"loop_g{genus}.json"
        path.write_text(json.dumps({"genus": genus, "edges": [], "crossings": [],
                                    "free_loops": ["a1 b1"]}))
        proc = subprocess.run([sys.executable, "-m", "hkhovanov", "compute", str(path)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src},
                              preexec_fn=cap_memory)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr[-2000:]
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == "i\tj\th\tdim\n0\t-1\t-1*[a1 b1]\t1\n0\t1\t1*[a1 b1]\t1\n"


def test_schema_violations_are_diagnosed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"genus": -1, "edges": [], "crossings": []}))
    code, _, err = run(capsys, "compute", bad)
    assert code == 2 and "genus must be a nonnegative integer" in err
    bad.write_text(json.dumps({
        "genus": 0,
        "edges": [{"id": 0, "word": ""}],
        "crossings": [{"slots": [7, 7, 7, 7]}],
    }))
    code, _, err = run(capsys, "compute", bad)
    assert code == 2 and "unknown edge 7" in err
    # wrongly typed fields: each used to escape as a traceback or be misread
    empty = {"genus": 0, "edges": [], "crossings": []}
    trefoil = json.loads(pathlib.Path(corpus_path("trefoil_rh")).read_text())
    for patch, why in [
        ({"edges": [{"id": 0, "word": ""}], "crossings": [{"slots": [[0], 0, 0, 0]}]},
         "integer edge ids"),
        ({"free_loops": 5}, "free_loops must be a list"),
        ({"genus": 1, "free_loops": "ab"}, "free_loops must be a list"),
        ({"genus": True}, "genus must be a nonnegative integer"),
        # trefoil_rh with every crossing id 0, then with ids 0, 1 and a
        # missing one, which reads as 0
        ({**trefoil, "crossings": [{**c, "id": 0} for c in trefoil["crossings"]]},
         "duplicate crossing ids"),
        ({**trefoil, "crossings": [{"slots": c["slots"]} if c["id"] == 2 else c
                                   for c in trefoil["crossings"]]},
         "duplicate crossing ids"),
    ]:
        bad.write_text(json.dumps({**empty, **patch}))
        code, out, err = run(capsys, "compute", bad)
        assert code == 2 and out == "" and why in err, patch


def test_parse_moves_grammar():
    assert parse_moves("r1+:edge=3,r2:edges=1,4") == [
        MoveSpec("r1+", {"edge": 3}),
        MoveSpec("r2", {"edges": (1, 4)}),
    ]
    spec, = parse_moves("r2:edges=0,3,splits=1,0,over=2")
    assert spec == MoveSpec("r2", {"edges": (0, 3), "splits": (1, 0),
                                   "over": 2})
    assert parse_moves("r2rm:crossings=3,4") == [
        MoveSpec("r2rm", {"crossings": (3, 4)})]


def test_parse_moves_rejections():
    with pytest.raises(ValueError, match="unknown move kind"):
        parse_moves("r9:edge=1")
    with pytest.raises(ValueError, match="before any move kind"):
        parse_moves("edge=1")
    with pytest.raises(ValueError, match="dangling value"):
        parse_moves("r1+:3")
    with pytest.raises(ValueError, match="empty move list"):
        parse_moves("  ,  ")
    with pytest.raises(ValueError, match="takes one value"):
        parse_moves("r1+:edge=1,2")


def test_spec_to_str_matches_the_grammar():
    assert spec_to_str(MoveSpec("r2", {"edges": (1, 4)})) == "r2:edges=1,4"
    assert spec_to_str(MoveSpec("r1rm", {"crossing": 0})) == "r1rm:crossing=0"
    for text in ("r1+:edge=3,r2:edges=1,4", "r2rm:crossings=0,1"):
        assert ",".join(map(spec_to_str, parse_moves(text))) == text
