"""Smoke tests for scripts/: corpus regeneration, the fuzz driver, the search."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from hkhovanov.diagram import diagram_to_json, validate

from helpers import CORPUS, CORPUS_NAMES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
