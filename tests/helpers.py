"""Small shared utilities for the test suite."""

import importlib.util
from pathlib import Path

from hkhovanov import load_diagram

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
SCRIPTS = ROOT / "scripts"

CORPUS_NAMES = sorted(p.stem for p in CORPUS.glob("*.json"))

# genus-0 inputs small enough for the brute-force classical oracle
SMALL_GENUS0 = ["unknot", "kink_plus", "kink_minus", "clasp_plus",
                "clasp_minus", "trefoil_rh", "trefoil_lh", "fig8"]


def corpus(name):
    return load_diagram(str(CORPUS / f"{name}.json"))


def corpus_path(name) -> str:
    return str(CORPUS / f"{name}.json")


def ij(table):
    """Project a homology table onto the (homological, quantum) plane."""
    out = {}
    for (i, j, _), dim in table.entries.items():
        out[(i, j)] = out.get((i, j), 0) + dim
    return out


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
