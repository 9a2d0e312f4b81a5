"""Smoke tests for scripts/: corpus regeneration, the fuzz script, the search,
the memory ladder, the in-process A/B timer and the output digest."""

import json
import os
import subprocess
import sys
from hkhovanov.diagram import diagram_to_json, validate

from helpers import CORPUS, CORPUS_NAMES, SCRIPTS, load_script


def test_make_corpus_reproduces_every_corpus_file():
    # the bytes make_corpus.main would write, compared without writing them
    built = load_script("make_corpus").build()
    assert sorted(built) == CORPUS_NAMES
    for name, d in built.items():
        assert validate(d) == [], name
        text = json.dumps(diagram_to_json(d), indent=1) + "\n"
        assert text == (CORPUS / f"{name}.json").read_text(), name


def test_fuzz_differential_runs():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "fuzz_differential.py"),
                           "--count", "5"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all 5 diagrams pass" in proc.stdout


def test_search_torus_link_imports():
    # import only: main() runs the whole search
    module = load_script("search_torus_link")
    assert callable(module.main)


def test_memory_ladder_runs():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "memory_ladder.py"),
                           "--min", "5", "--max", "6", "--cap-mb", "4096"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    rows = [line.split("\t") for line in lines[1:7]]
    assert [(r[0], r[1], r[2], r[3]) for r in rows] == [
        (g, f, n, gens) for g, f in (("0", "classical"), ("1", "homotopical"),
                                     ("2", "homotopical"))
        for n, gens in (("5", "198"), ("6", "372"))]
    assert all(float(r[6]) < 200 for r in rows)
    assert lines[7:] == [f"largest n under 2048 MiB: genus {g} {f}: 6"
                         for g, f in (("0", "classical"), ("1", "homotopical"),
                                      ("2", "homotopical"))]


def test_inprocess_ab_runs():
    # one repetition of this checkout against itself: the two copies must
    # make equal reports, and both sides are timed
    root = str(SCRIPTS.parent)
    proc = subprocess.run([sys.executable, str(SCRIPTS / "inprocess_ab.py"), root, root,
                           "--reps", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert (out["workload"], out["reps"]) == ("braid_g1_12", 1)
    for side in ("a", "b"):
        assert 0 < out[side]["q1"] <= out[side]["median"] <= out[side]["q3"]
    assert out["ratio_b_over_a_median"] > 0 and out["b_faster"] in (0, 1)


def test_output_digest_folds_what_the_cli_prints_as_a_process():
    # the in-process runs hash the same bytes and exit codes that the
    # command line prints when run on its own, the move layer and the face
    # suite included
    module = load_script("output_digest")
    names = ["trefoil_g1.json", "loop_a.json"]
    argvs = [argv for name in names for argv in module.invocations(name)]
    argvs += module.move_invocations(names)
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    runs = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "hkhovanov", *argv], cwd=CORPUS,
                              capture_output=True, env=env, timeout=120)
        runs.append((argv, proc.returncode, proc.stdout))
    assert len(runs) == 24 and all(code == 0 and out for _, code, out in runs)
    assert module.digest(CORPUS, argvs) == module.fold(runs)
