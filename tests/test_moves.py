"""Local moves: detection, application, rejection, and table invariance."""

import collections
import hashlib
import itertools
import json
import pathlib
import random
import re

import pytest

from hkhovanov.braid import braid_closure
from hkhovanov.diagram import Diagram, validate
from hkhovanov.homology import compare, kh_h
from hkhovanov.moves import (
    MoveSpec,
    _arcs,
    _strand_params,
    _strands,
    apply_move,
    bigon_at,
    kink_at,
    r1_add,
    r1_add_sites,
    r1_remove,
    r1_remove_sites,
    r2_add,
    r2_add_sites,
    r2_remove,
    r2_remove_sites,
    r3,
)
from hkhovanov.randgen import random_diagram
from hkhovanov.words import parse_word

from helpers import CORPUS_NAMES, corpus


def tables_equal(a, b):
    equal, why = compare(kh_h(a), kh_h(b))
    assert equal, why


def test_kink_corpus_detection_and_removal():
    for name in ("kink_plus", "kink_minus"):
        d = corpus(name)
        assert kink_at(d, 0) is not None
        sites = r1_remove_sites(d)
        assert sites == [MoveSpec("r1rm", {"crossing": 0})]
        undone = apply_move(d, sites[0])
        assert validate(undone) == []
        assert undone.n_crossings == 0
        tables_equal(undone, corpus("unknot"))


def test_r1_roundtrip_on_an_edge():
    base = corpus("trefoil_rh")
    for chirality, kind in ((1, "r1+"), (-1, "r1-")):
        kinked = apply_move(base, MoveSpec(kind, {"edge": 2}))
        assert validate(kinked) == []
        assert kinked.n_crossings == base.n_crossings + 1
        tables_equal(kinked, base)
        new_crossing = kinked.n_crossings - 1
        assert MoveSpec("r1rm", {"crossing": new_crossing}) in r1_remove_sites(kinked)
        undone = r1_remove(kinked, new_crossing)
        assert undone.n_crossings == base.n_crossings
        tables_equal(undone, base)


def test_r1_roundtrip_on_a_free_loop():
    base = corpus("loop_a")
    for kind in ("r1+", "r1-"):
        kinked = apply_move(base, MoveSpec(kind, {"loop": 0}))
        assert validate(kinked) == []
        assert kinked.n_crossings == 1
        assert not kinked.free_loops
        tables_equal(kinked, base)
        undone = r1_remove(kinked, 0)
        tables_equal(undone, base)


def test_r1_add_splits_the_word_where_asked():
    base = corpus("trefoil_g1")
    worded = next(e for e, w in enumerate(base.edge_words) if w)
    for split in range(len(base.edge_words[worded]) + 1):
        kinked = r1_add(base, ("edge", worded), split=split)
        assert validate(kinked) == []
        tables_equal(kinked, base)
    # a free loop is rotated by split before it is cut open
    base = Diagram(1, (), (), (parse_word("a B", 1),))
    for split, word in ((None, "a B"), (1, "B a"), (3, "B a")):
        kinked = r1_add(base, ("loop", 0), split=split)
        assert kinked.edge_words == (parse_word(word, 1), ())
        assert not kinked.free_loops
        tables_equal(kinked, base)


def test_r1_rejections():
    base = corpus("trefoil_rh")
    with pytest.raises(ValueError, match="no edge 99"):
        r1_add(base, ("edge", 99))
    with pytest.raises(ValueError, match="outside word"):
        r1_add(base, ("edge", 0), split=5)
    with pytest.raises(ValueError, match="not a clean kink"):
        r1_remove(base, 0)
    with pytest.raises(ValueError, match="unknown move kind"):
        apply_move(base, MoveSpec("r9", {}))


@pytest.mark.parametrize("kind, params, message", [
    ("r1+", {"edge": (1, 2)}, "r1+: parameter 'edge' takes one value"),
    ("r1+", {"edge": "1"}, "r1+: parameter 'edge' takes one value"),
    ("r1+", {"edge": 1, "split": [0]}, "r1+: parameter 'split' takes one value"),
    ("r2rm", {"crossings": 3}, "r2rm: parameter 'crossings' takes 2 values"),
    ("r2rm", {"crossings": [3, 4]}, "r2rm: parameter 'crossings' takes 2 values"),
    ("r2", {"edges": ("a", 1)}, "r2: parameter 'edges' takes 2 values"),
    ("r3", {"edges": (None, 1, 2)}, "r3: parameter 'edges' takes 3 values"),
    ("r1+", {"edge": True}, "r1+: parameter 'edge' takes one value"),
])
def test_move_spec_checks_each_value_against_its_arity(kind, params, message):
    # a tuple for a one-int parameter, or a tuple holding a non-int, used to
    # pass and then escape apply_move as a TypeError, an int for a tuple
    # parameter escaped at once, and a bool was applied as 0 or 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MoveSpec(kind, params)


def test_strand_params_round_trip_every_arc_and_pair():
    # sites write arcs as edge/loop parameters with _strand_params, and
    # apply_move reads them back with _strands: for every arc and every pair
    # of arcs of a diagram with edges and free loops, one undoes the other
    base = corpus("trefoil_g1")
    d = Diagram(base.genus, base.edge_words, base.crossings, ((1,), (2, 1)))
    arcs = _arcs(d)
    assert arcs == [("edge", e) for e in range(6)] + [("loop", 0), ("loop", 1)]
    for strands in [(s,) for s in arcs] + list(itertools.combinations(arcs, 2)):
        params = _strand_params(strands)
        MoveSpec("r1+" if len(strands) == 1 else "r2", params)
        assert _strands(params) == strands


def test_r2_roundtrip_on_edges():
    base = corpus("trefoil_rh")
    for over in (1, 2):
        poked = r2_add(base, (("edge", 0), ("edge", 3)), over=over)
        assert validate(poked) == []
        assert poked.n_crossings == base.n_crossings + 2
        tables_equal(poked, base)
        pair = (base.n_crossings, base.n_crossings + 1)
        assert MoveSpec("r2rm", {"crossings": pair}) in r2_remove_sites(poked)
        undone = r2_remove(poked, *pair)
        assert undone.n_crossings == base.n_crossings
        tables_equal(undone, base)


def test_r2_roundtrip_on_free_loops():
    base = Diagram(1, (), (), (parse_word("a", 1), parse_word("b", 1)))
    poked = apply_move(base, MoveSpec("r2", {"loops": (0, 1)}))
    assert validate(poked) == []
    assert poked.n_crossings == 2 and not poked.free_loops
    tables_equal(poked, base)
    undone = r2_remove(poked, 0, 1)
    tables_equal(undone, base)


def test_r2_roundtrip_mixing_edge_and_loop():
    base = Diagram(
        1,
        corpus("trefoil_g1").edge_words,
        corpus("trefoil_g1").crossings,
        (parse_word("b", 1),),
    )
    poked = apply_move(base, MoveSpec("r2", {"edge": 1, "loop": 0}))
    assert validate(poked) == []
    tables_equal(poked, base)
    undone = r2_remove(poked, base.n_crossings, base.n_crossings + 1)
    tables_equal(undone, base)


def test_same_sign_clasps_are_not_removable():
    for name in ("clasp_plus", "clasp_minus"):
        d = corpus(name)
        assert bigon_at(d, 0, 1) is None
        assert r2_remove_sites(d) == []
        with pytest.raises(ValueError, match="removable poke"):
            r2_remove(d, 0, 1)


def test_decorated_bigon_is_not_removable():
    # the middle arcs carry letters, so the local pattern does not apply
    d = corpus("torus_link2")
    with pytest.raises(ValueError, match="pattern-mismatch"):
        r2_remove(d, 0, 1)


def test_triangle_slide_preserves_tables():
    lhs = braid_closure([1, 2, 1], 3)
    rhs = braid_closure([2, 1, 2], 3)
    tables_equal(lhs, rhs)
    plain = [e for e, w in enumerate(lhs.edge_words) if not w]
    hits = 0
    for ta in plain:
        for tb in plain:
            for tc in plain:
                if len({ta, tb, tc}) != 3:
                    continue
                try:
                    slid = r3(lhs, ta, tb, tc)
                except ValueError:
                    continue
                hits += 1
                assert validate(slid) == []
                tables_equal(slid, lhs)
    assert hits > 0


def test_r3_rejections():
    tref = corpus("trefoil_rh")
    with pytest.raises(ValueError, match="three distinct arcs"):
        r3(tref, 0, 0, 1)
    with pytest.raises(ValueError, match="no edge 99"):
        r3(tref, 0, 1, 99)
    with pytest.raises(ValueError, match="nonlocal-words"):
        r3(corpus("torus_link2"), 1, 2, 3)
    with pytest.raises(ValueError, match="pattern-mismatch"):
        r3(corpus("clasp_plus"), 0, 1, 2)


# sha256 over repr(apply_move(d, spec)) for every r1/r2 add site of each corpus
# diagram, recorded at commit f3a3dec, before r1 and r2 shared one arc cut
MOVES_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "moves_add.json"


def add_moves_digest(d):
    h = hashlib.sha256()
    for spec in r1_add_sites(d) + r2_add_sites(d):
        h.update(repr(apply_move(d, spec)).encode())
    return h.hexdigest()


def test_add_moves_match_the_recorded_golden():
    golden = json.loads(MOVES_GOLDEN.read_text())
    got = {name: add_moves_digest(corpus(name))
           for name in CORPUS_NAMES if name != "perf12_genus1"}
    assert got == golden


# sha256 over repr of every removal result per input diagram (its own r1rm/r2rm
# sites and those of each of its r1/r2 add results), and over repr of every
# braid closure per strand count; recorded at commit 3960a58, before kink
# removal, poke removal and braid closure shared one splice
REMOVE_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "moves_remove.json"


def removal_inputs():
    inputs = {f"corpus/{name}": corpus(name)
              for name in CORPUS_NAMES if name != "perf12_genus1"}
    rng = random.Random(3)
    for k in range(40):
        n, genus, n_loops = rng.randint(1, 4), rng.randint(0, 2), rng.randint(0, 2)
        inputs[f"random/{k}"] = random_diagram(rng, n, genus, 2, n_loops)
    # a self-poke whose outer arcs both carry letters: removing it closes them
    # into one loop, read from the least arc
    kinked = r1_add(corpus("kink_minus"), ("edge", 1))
    words = (parse_word("a", 1), (), parse_word("b", 1), ())
    inputs["self-poke"] = Diagram(1, words, kinked.crossings, ())
    return inputs


def removal_case(d, spec):
    """Which arcs the removal at spec joins: open chains or closed loops."""
    if spec.kind == "r1rm":
        _, u, v = kink_at(d, spec.params["crossing"])
        return "r1 loop" if u == v else "r1 open chain"
    _, _, (u_a, u_b), (o_a, o_b) = bigon_at(d, *spec.params["crossings"])
    if u_a == u_b and o_a == o_b:
        return "r2 two loops"
    if u_a == u_b:
        return "r2 under loop"
    if o_a == o_b:
        return "r2 over loop"
    if u_a == o_b and o_a == u_b:
        return "r2 one 2-arc loop"
    if u_a == o_b or o_a == u_b:
        return "r2 one 3-arc chain"
    return "r2 two chains"


def removals_digest(d, cases):
    h = hashlib.sha256()
    for spec in r1_add_sites(d) + r2_add_sites(d) + [None]:
        moved = d if spec is None else apply_move(d, spec)
        for rm in r1_remove_sites(moved) + r2_remove_sites(moved):
            h.update(repr(apply_move(moved, rm)).encode())
            cases[removal_case(moved, rm)] += 1
    return h.hexdigest()


def closures_digest(strands):
    gens = [v for k in range(1, strands) for v in (k, -k)]
    h = hashlib.sha256()
    for length in range(5):
        for letters in itertools.product(gens, repeat=length):
            for words in (None, ["a"] + [""] * (strands - 1),
                          [""] * (strands - 1) + ["B"]):
                h.update(repr(braid_closure(list(letters), strands, 1, words)).encode())
    return h.hexdigest()


def test_removals_and_closures_match_the_recorded_golden():
    golden = json.loads(REMOVE_GOLDEN.read_text())
    cases = collections.Counter()
    got = {name: removals_digest(d, cases) for name, d in removal_inputs().items()}
    got.update({f"closure/{s}": closures_digest(s) for s in range(1, 5)})
    assert got == golden
    # every way the outer arcs of a removed kink or poke can join occurs
    assert set(cases) == {
        "r1 open chain", "r1 loop", "r2 two chains", "r2 one 3-arc chain",
        "r2 under loop", "r2 over loop", "r2 two loops", "r2 one 2-arc loop"}, cases
