"""Acceptance gate: one timed end-to-end check per shipped claim.

Each test prints a single pass line with its runtime; budget overruns fail.
"""

import itertools
import time

from hkhovanov.braid import braid_closure
from hkhovanov.chain import (
    MERGE_TABLES,
    MINUS,
    PLUS,
    SPLIT_TABLES,
    build_complex,
    differential_squares_to_zero,
    merge_matrix,
    split_matrix,
    verify_table1,
)
from hkhovanov.cube import cube_edges
from hkhovanov.diagram import Diagram, mirror, reverse_orientation
from hkhovanov.gf2 import GF2Matrix
from hkhovanov.homology import compare, kh_classical, kh_h
from hkhovanov.moves import (
    apply_move,
    r1_add_sites,
    r1_remove_sites,
    r2_add_sites,
    r2_remove_sites,
    r3,
)
from hkhovanov.randgen import random_diagram_stream
from hkhovanov.words import ZERO_GRADING, Surface, parse_word

from helpers import CORPUS_NAMES, corpus, ij, load_script
from oracles import (
    TREFOIL_RH_GF2,
    classical_khovanov,
    generator_gradings,
    grading_negate,
    grading_term,
    transformed_circles,
)

F = frozenset


def done(label: str, t0: float, budget: float | None = None) -> None:
    dt = time.perf_counter() - t0
    if budget is not None:
        assert dt < budget, f"{label}: {dt:.2f}s over the {budget}s budget"
    print(f"{label}: pass ({dt:.2f}s)")


def test_criterion_01_label_algebra_values():
    t0 = time.perf_counter()
    assert MERGE_TABLES["m"] == {
        (PLUS, PLUS): F({PLUS}),
        (PLUS, MINUS): F({MINUS}),
        (MINUS, PLUS): F({MINUS}),
        (MINUS, MINUS): F(),
    }
    assert SPLIT_TABLES["delta"] == {
        PLUS: F({(PLUS, MINUS), (MINUS, PLUS)}),
        MINUS: F({(MINUS, MINUS)}),
    }
    one_circle = Diagram(0, (), (), ((),))
    assert generator_gradings(one_circle, 0, (PLUS,)) == (0, 1, ZERO_GRADING)
    assert generator_gradings(one_circle, 0, (MINUS,)) == (0, -1, ZERO_GRADING)
    checked = 4 + 2 + 2
    assert MERGE_TABLES["m0"] == {
        (PLUS, PLUS): F(),
        (PLUS, MINUS): F({MINUS}),
        (MINUS, PLUS): F({MINUS}),
        (MINUS, MINUS): F(),
    }
    assert MERGE_TABLES["m1"] == {
        (PLUS, PLUS): F({PLUS}),
        (PLUS, MINUS): F(),
        (MINUS, PLUS): F({MINUS}),
        (MINUS, MINUS): F(),
    }
    assert MERGE_TABLES["m2"] == {
        (PLUS, PLUS): F({PLUS}),
        (PLUS, MINUS): F({MINUS}),
        (MINUS, PLUS): F(),
        (MINUS, MINUS): F(),
    }
    checked += 12
    assert SPLIT_TABLES["delta0"] == {
        PLUS: F({(PLUS, MINUS), (MINUS, PLUS)}),
        MINUS: F(),
    }
    assert SPLIT_TABLES["delta1"] == {
        PLUS: F({(PLUS, MINUS)}),
        MINUS: F({(MINUS, MINUS)}),
    }
    assert SPLIT_TABLES["delta2"] == {
        PLUS: F({(MINUS, PLUS)}),
        MINUS: F({(MINUS, MINUS)}),
    }
    checked += 6
    assert checked == 26
    done("criterion 1: merge/split/degree values, 8+12+6 exact", t0, 1.0)


def test_criterion_02_face_identity_suite():
    t0 = time.perf_counter()
    report = verify_table1()
    assert report.all_ok
    assert len(report.cells) == 39
    assert len(report.classical_cells) == 3
    assert report.final_cell_ok
    done("criterion 2: 39/39 + 3/3 + final face identities on full bases",
         t0, 1.0)


def test_criterion_03_differential_squares_to_zero():
    t0 = time.perf_counter()
    jobs = [(name, corpus(name)) for name in CORPUS_NAMES]
    jobs += [(f"random[{k}]", d) for k, d in enumerate(
        random_diagram_stream(seed=0, count=1000, max_crossings=8,
                              max_genus=2))]
    with_neutral = 0
    for name, d in jobs:
        if with_neutral < 20 and any(
                e.kind == "neutral" for e in cube_edges(d)):
            with_neutral += 1
        for flavor in ("homotopical", "classical"):
            cx = build_complex(d, flavor=flavor)
            assert differential_squares_to_zero(cx), (name, flavor)
    assert with_neutral >= 20
    done(f"criterion 3: d^2 = 0 on {len(jobs)} diagrams, both flavors,"
         f" >= 20 with a neutral edge", t0, 300.0)


def test_criterion_04_simple_curves():
    t0 = time.perf_counter()
    for genus, text in ((1, "a"), (1, "b"), (1, "a b"), (2, "a1 b1 a2")):
        word = parse_word(text, genus)
        d = Diagram(genus, (), (), (word,))
        one = grading_term(Surface(genus).canonical_class(word), 1)
        assert kh_h(d).entries == {
            (0, 1, one): 1,
            (0, -1, grading_negate(one)): 1,
        }
    srf = Surface(1)
    words = ["a", "A", "b", "a b", "b a", "B A", "a a", "b b"]
    for w1, w2 in itertools.combinations(words, 2):
        d1 = Diagram(1, (), (), (parse_word(w1, 1),))
        d2 = Diagram(1, (), (), (parse_word(w2, 1),))
        same_class = (srf.canonical_class(parse_word(w1, 1))
                      == srf.canonical_class(parse_word(w2, 1)))
        assert compare(kh_h(d1), kh_h(d2))[0] == same_class, (w1, w2)
    done("criterion 4: free-loop tables pin the class up to inversion",
         t0, 1.0)


def test_criterion_05_classical_reduction_matches_oracle():
    t0 = time.perf_counter()
    # the brute-force oracle is itself pinned to a published table first
    assert classical_khovanov(corpus("trefoil_rh")) == TREFOIL_RH_GF2
    for name in ("unknot", "trefoil_rh", "trefoil_lh", "fig8"):
        d = corpus(name)
        table = kh_h(d)
        assert all(h == ZERO_GRADING for _, _, h in table.entries)
        equal, why = compare(table, kh_classical(d))
        assert equal, (name, why)
        assert ij(table) == classical_khovanov(d), name
    done("criterion 5: genus-0 reduction equals the classical oracle",
         t0, 30.0)


def test_criterion_06_move_invariance():
    t0 = time.perf_counter()
    sites = 0
    for name in CORPUS_NAMES:
        d = corpus(name)
        base = kh_h(d)
        specs = r1_remove_sites(d) + r2_remove_sites(d)
        if d.n_crossings <= 4:
            specs += r1_add_sites(d) + r2_add_sites(d)
        else:
            specs += r1_add_sites(d)[:2] + r2_add_sites(d)[:2]
        for spec in specs:
            equal, why = compare(base, kh_h(apply_move(d, spec)))
            assert equal, (name, spec, why)
        sites += len(specs)
    lhs = braid_closure([1, 2, 1], 3)
    rhs = braid_closure([2, 1, 2], 3)
    base = kh_h(lhs)
    assert compare(base, kh_h(rhs))[0]
    plain = [e for e, w in enumerate(lhs.edge_words) if not w]
    slides = 0
    for ta, tb, tc in itertools.permutations(plain, 3):
        try:
            slid = r3(lhs, ta, tb, tc)
        except ValueError:
            continue
        slides += 1
        assert compare(base, kh_h(slid))[0]
    assert slides > 0
    done(f"criterion 6: tables invariant across {sites} R1/R2 sites"
         f" and {slides} triangle slides", t0, 300.0)


def test_criterion_07_symmetries():
    t0 = time.perf_counter()
    flip = lambda t: (-t[0], -t[1], grading_negate(t[2]))
    for name in CORPUS_NAMES:
        d = corpus(name)
        base = kh_h(d)
        assert compare(base, kh_h(reverse_orientation(d)))[0], name
        with transformed_circles(invert_circle_words=True):
            assert compare(base, kh_h(d))[0], name
        equal, witness = compare(base, kh_h(mirror(d)), remap=flip)
        assert equal, f"{name}: mirror table is not the flipped one at {witness}"
    done("criterion 7: orientation reversal and circle-word inversion fixed,"
         f" mirror flips (i,j,h) -> (-i,-j,-h), on all {len(CORPUS_NAMES)}"
         " corpus diagrams", t0, 120.0)


def test_criterion_08_two_crossing_torus_reconstruction():
    t0 = time.perf_counter()
    d = corpus("torus_link2")
    assert d.genus == 1 and d.n_crossings == 2
    srf = Surface(1)
    lam = srf.canonical_class(parse_word("a", 1))
    mu = srf.canonical_class(parse_word("b", 1))
    z = ZERO_GRADING
    assert kh_h(d).entries == {
        (-1, -2, z): 1,
        (0, 0, z): 2,
        (1, 2, z): 1,
        (0, 2, grading_term(lam, 2)): 1,
        (0, -2, grading_term(lam, -2)): 1,
        (0, 2, grading_term(mu, 2)): 1,
        (0, -2, grading_term(mu, -2)): 1,
    }
    assert kh_classical(d).entries == {
        (0, -2, z): 1,
        (0, 0, z): 2,
        (0, 2, z): 1,
    }
    print("  reconstruction success: corpus/torus_link2.json carries the"
          " (Z_2)^8 homotopical / (Z_2)^4 classical tables")
    done("criterion 8: two-crossing torus diagram reconstructed", t0, 30.0)


def test_criterion_09_circle_ordering_equivariance():
    t0 = time.perf_counter()
    swap = GF2Matrix.from_entries(4, 4, [(0, 0), (1, 2), (2, 1), (3, 3)])
    assert swap.multiply(merge_matrix("m1", 2, 0)) == merge_matrix("m2", 2, 0)
    assert split_matrix("delta1", 1, 0).multiply(swap) \
        == split_matrix("delta2", 1, 0)
    for name in CORPUS_NAMES:
        d = corpus(name)
        base = kh_h(d)
        with transformed_circles(reverse_circles=True):
            assert compare(base, kh_h(d))[0], name
    done("criterion 9: reversed circle ordering leaves every corpus table"
         " unchanged", t0, 120.0)


def test_criterion_10_performance_budget():
    # kh_h(perf12_genus1) as the memory ladder's genus-1 n = 12 point: a
    # fresh interpreter, so the peak is this build's and not the high-water
    # mark of every test before it
    ladder = load_script("memory_ladder")
    assert ladder.closure(1, 12) == corpus("perf12_genus1")
    r = ladder.measure(1, "homotopical", 12, None)
    assert "error" not in r, r
    assert r["generators"] == 45456
    dt = r["build_s"] + r["rank_s"]
    assert dt < 60.0, f"{dt:.1f}s over the 60s budget"
    assert r["peak_mb"] < 2048, f"peak rss {r['peak_mb']:.0f} MiB over 2 GB"
    print(f"criterion 10: 12-crossing genus-1 table in {dt:.1f}s,"
          f" peak rss {r['peak_mb']:.0f} MB: pass")
