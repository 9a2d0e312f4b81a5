"""Homology tables: exact values, symmetries, reporting."""

import itertools
import json
import tracemalloc

import pytest

from hkhovanov import chain
from hkhovanov.chain import ChainComplex, SliceComplex, build_complex
from hkhovanov.cube import resolve
from hkhovanov.homology import (
    HomologyTable,
    compare,
    euler_consistent,
    homology_table,
    kh_classical,
    kh_h,
    poincare_report,
    render_h,
    triple_order,
)
from hkhovanov.diagram import Diagram, mirror, reverse_orientation
from hkhovanov.gf2 import GF2Matrix
from hkhovanov.randgen import random_diagram_stream
from hkhovanov.words import Surface, ZERO_GRADING, invert_word, parse_word

from helpers import CORPUS_NAMES, corpus, ij
from oracles import (
    classical_khovanov,
    grading_add,
    grading_negate,
    grading_term,
    transformed_circles,
)

SURF1 = Surface(1)


def free_loop(word_text, genus):
    surf = Surface(genus)
    return Diagram(genus, (), (), (parse_word(word_text, genus),))


def curve_table(cls):
    one = grading_term(cls, 1)
    return {(0, 1, one): 1, (0, -1, grading_negate(one)): 1}


def test_simple_curve_tables():
    a = SURF1.canonical_class((1,))
    assert kh_h(corpus("loop_a")).entries == curve_table(a)
    b = SURF1.canonical_class((2,))
    assert kh_h(corpus("loop_b")).entries == curve_table(b)
    ab = SURF1.canonical_class((1, 2))
    assert kh_h(corpus("loop_ab")).entries == curve_table(ab)
    # a contractible loop reproduces the classical unknot values
    trivial = kh_h(corpus("loop_trivial"))
    assert trivial.entries == {(0, 1, ZERO_GRADING): 1, (0, -1, ZERO_GRADING): 1}
    assert trivial.entries == kh_classical(corpus("unknot")).entries


def test_two_disjoint_curves_tensor_their_classes():
    d = corpus("genus2_loops")
    surf = Surface(2)
    x = grading_term(surf.canonical_class(parse_word("a1 b1", 2)), 1)
    y = grading_term(surf.canonical_class(parse_word("a2", 2)), 1)
    want = {
        (0, 2, grading_add(x, y)): 1,
        (0, 0, grading_add(x, grading_negate(y))): 1,
        (0, 0, grading_add(grading_negate(x), y)): 1,
        (0, -2, grading_add(grading_negate(x), grading_negate(y))): 1,
    }
    assert kh_h(d).entries == want


def test_curve_tables_separate_exactly_by_class():
    words = ["", "a", "b", "A", "a b", "b a", "A B", "a a"]
    tables = {w: kh_h(free_loop(w, 1)) for w in words}
    classes = {w: SURF1.canonical_class(parse_word(w, 1)) for w in words}
    for u in words:
        for v in words:
            equal, _ = compare(tables[u], tables[v])
            assert equal == (classes[u] == classes[v]), (u, v)


def test_classical_matches_brute_force_oracle():
    for name in ("kink_minus", "clasp_plus"):
        d = corpus(name)
        assert ij(kh_classical(d)) == classical_khovanov(d), name


def test_a_negative_dimension_names_the_site():
    # a slot of dimension 1 under a rank-2 map: dims too small for the maps
    sc = SliceComplex({0: 1, 1: 2}, {0: GF2Matrix.identity(2)})
    cx = ChainComplex(1, "homotopical", {(3, grading_term(SURF1.canonical_class((1,)), 2)): sc})
    with pytest.raises(RuntimeError) as err:
        homology_table(cx)
    assert str(err.value) == ("rank bookkeeping produced a negative dimension at"
                              " (i=0, j=3, h=2*[a1]): dim 1, rank d_i 2, rank d_(i-1) 0")


def test_euler_characteristic_consistency():
    for name in CORPUS_NAMES:
        if name == "perf12_genus1":
            continue
        d = corpus(name)
        for flavor in ("homotopical", "classical"):
            cx = build_complex(d, flavor)
            assert euler_consistent(cx, homology_table(cx)), (name, flavor)
    # one homology dimension off by one breaks the check
    cx = build_complex(corpus("trefoil_g1"), "homotopical")
    table = homology_table(cx)
    key = min(table.entries, key=triple_order)
    table.entries[key] += 1
    assert not euler_consistent(cx, table)


def test_circle_ordering_is_immaterial():
    for name in ("trefoil_g1", "neutral1", "torus_link2", "clasp_minus"):
        d = corpus(name)
        base = kh_h(d)
        with transformed_circles(reverse_circles=True):
            equal, why = compare(kh_h(d), base)
        assert equal, (name, why)


def test_word_direction_is_immaterial():
    # flipping the traversal direction of every circle word is the
    # source-sink flip seen by the grading
    for name in ("trefoil_g1", "neutral1", "torus_link2", "loop_a"):
        d = corpus(name)
        base = kh_h(d)
        with transformed_circles(invert_circle_words=True):
            # the build reads every word backwards
            assert [c.word for c in chain.resolve(d, 0).circles] \
                == [invert_word(c.word) for c in resolve(d, 0).circles]
            equal, why = compare(kh_h(d), base)
        assert equal, (name, why)


def test_reverse_orientation_preserves_tables():
    for name in ("trefoil_rh", "neutral1", "torus_link2", "loop_ab"):
        d = corpus(name)
        equal, why = compare(kh_h(reverse_orientation(d)), kh_h(d))
        assert equal, (name, why)


def test_mirror_flips_the_gradings_on_random_diagrams():
    # (i, j, h) -> (-i, -j, -h); 64 of these diagrams have genus >= 2, so
    # their circle classes go through Dehn reduction
    flip = lambda t: (-t[0], -t[1], grading_negate(t[2]))
    stream = random_diagram_stream(5, 120, max_crossings=6, max_genus=3, max_word_len=4)
    for k, d in enumerate(stream):
        equal, why = compare(kh_h(d), kh_h(mirror(d)), remap=flip)
        assert equal, (k, why)


def test_compare_reports_first_difference():
    a = HomologyTable(0, "classical", {(0, 1, ZERO_GRADING): 1})
    b = HomologyTable(0, "classical", {(0, 1, ZERO_GRADING): 2})
    equal, why = compare(a, b)
    assert not equal
    assert why == "(0,1,0): 1 vs 2"
    equal, why = compare(a, a)
    assert equal and why is None


def test_compare_supports_remaps():
    d = corpus("trefoil_rh")
    m = corpus("trefoil_lh")
    flip = lambda t: (-t[0], -t[1], grading_negate(t[2]))
    equal, why = compare(kh_classical(d), kh_classical(m), remap=flip)
    assert equal, why


def test_no_zero_dimensions_are_stored():
    for name in ("fig8", "torus_link2"):
        t = kh_h(corpus(name))
        assert all(dim > 0 for dim in t.entries.values())


def test_render_h_forms():
    a = SURF1.canonical_class((1,))
    assert render_h(ZERO_GRADING, 1) == "0"
    assert render_h(grading_term(a, 2), 1) == "2*[a]"
    assert render_h(grading_term(a, -1), 1) == "-1*[a]"
    assert render_h(grading_term(a, 1), 0) == "1*[a1]"


def test_poincare_report_formats():
    t = kh_h(corpus("loop_a"))
    text = poincare_report(t, "text")
    assert text.splitlines()[0].startswith("# flavor=homotopical genus=1")
    assert "(0,-1,-1*[a]) : 1" in text
    assert "(0,1,1*[a]) : 1" in text
    assert "# total dimension 2" in text

    tsv = poincare_report(t, "tsv")
    lines = tsv.splitlines()
    assert lines[0] == "i\tj\th\tdim"
    assert "0\t-1\t-1*[a]\t1" in lines

    blob = json.loads(poincare_report(t, "json", meta={"diagram": "x"}))
    assert blob["diagram"] == "x"
    assert blob["flavor"] == "homotopical"
    assert blob["genus"] == 1
    assert {row["h"] for row in blob["table"]} == {"1*[a]", "-1*[a]"}

    empty = HomologyTable(0, "classical")
    body = poincare_report(empty, "text")
    assert "# total dimension 0" in body

    with pytest.raises(ValueError, match="unknown format 'xml'"):
        poincare_report(t, "xml")


def test_the_empty_diagram_has_one_generator():
    # its one state has no circle, so there is no anchor to gather
    d = Diagram(0, (), (), ())
    for table in (kh_h(d), kh_classical(d)):
        assert table.entries == {(0, 0, ZERO_GRADING): 1}


def test_a_long_report_is_joined_once():
    # diagram 151 of the fuzz_mixed stream (pinned by
    # tests/golden/random_streams.json): a 378,513-character tsv report.
    # With the sorted items alive and the joined text copied once more to
    # add the final newline, the report peaked at 1.65 MiB under tracemalloc
    stream = random_diagram_stream(0, 300, max_crossings=8, max_genus=3, max_word_len=4)
    table = kh_h(next(itertools.islice(stream, 151, None)))
    tracemalloc.start()
    try:
        tsv = poincare_report(table, "tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tsv) == 378513 and tsv.endswith("\n") and not tsv.endswith("\n\n")
    assert peak < 1.4 * (1 << 20), f"report peak {peak / (1 << 20):.2f} MiB"


def test_reports_are_deterministic():
    d = corpus("torus_link2")
    for fmt in ("text", "tsv", "json"):
        assert poincare_report(kh_h(d), fmt) == poincare_report(kh_h(d), fmt)
