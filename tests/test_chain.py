"""Label maps, case dispatch, face identities, and complex assembly."""

import collections
import contextlib
import hashlib
import itertools
import json
import pathlib
import random
import tracemalloc

import pytest

from hkhovanov import chain, cube
from hkhovanov.braid import braid_closure
from hkhovanov.chain import (
    MERGE_TABLES,
    MINUS,
    PLUS,
    SPLIT_TABLES,
    build_complex,
    compose_ops,
    differential_squares_to_zero,
    merge_case,
    merge_matrix,
    split_case,
    split_matrix,
    verify_table1,
)
from hkhovanov.cube import circle_classes, cube_edges, resolve
from hkhovanov.gf2 import GF2Matrix
from hkhovanov.homology import homology_table
from hkhovanov.randgen import random_diagram, random_diagram_stream
from hkhovanov.words import Surface, TRIVIAL_CLASS, ZERO_GRADING

from helpers import CORPUS_NAMES, corpus, load_script
from oracles import (
    generator_gradings,
    grading_add,
    grading_term,
    hand_images,
    naive_rows,
    shuffled_circles,
    transformed_circles,
)

SURF = Surface(1)
A = SURF.canonical_class((1,))
B = SURF.canonical_class((2,))


def fs(*xs):
    return frozenset(xs)


def test_classical_label_maps_and_degrees():
    # the two label degrees, four product values, two coproduct values
    unknot = corpus("unknot")
    assert generator_gradings(unknot, 0, (PLUS,)) == (0, 1, ZERO_GRADING)
    assert generator_gradings(unknot, 0, (MINUS,)) == (0, -1, ZERO_GRADING)
    assert MERGE_TABLES["m"] == {
        (PLUS, PLUS): fs(PLUS),
        (PLUS, MINUS): fs(MINUS),
        (MINUS, PLUS): fs(MINUS),
        (MINUS, MINUS): fs(),
    }
    assert SPLIT_TABLES["delta"] == {
        PLUS: fs((PLUS, MINUS), (MINUS, PLUS)),
        MINUS: fs((MINUS, MINUS)),
    }


def test_homotopical_merge_values():
    assert MERGE_TABLES["m0"] == {
        (PLUS, PLUS): fs(),
        (PLUS, MINUS): fs(MINUS),
        (MINUS, PLUS): fs(MINUS),
        (MINUS, MINUS): fs(),
    }
    assert MERGE_TABLES["m1"] == {
        (PLUS, PLUS): fs(PLUS),
        (PLUS, MINUS): fs(),
        (MINUS, PLUS): fs(MINUS),
        (MINUS, MINUS): fs(),
    }
    assert MERGE_TABLES["m2"] == {
        (PLUS, PLUS): fs(PLUS),
        (PLUS, MINUS): fs(MINUS),
        (MINUS, PLUS): fs(),
        (MINUS, MINUS): fs(),
    }


def test_homotopical_split_values():
    assert SPLIT_TABLES["delta0"] == {
        PLUS: fs((PLUS, MINUS), (MINUS, PLUS)),
        MINUS: fs(),
    }
    assert SPLIT_TABLES["delta1"] == {
        PLUS: fs((PLUS, MINUS)),
        MINUS: fs((MINUS, MINUS)),
    }
    assert SPLIT_TABLES["delta2"] == {
        PLUS: fs((MINUS, PLUS)),
        MINUS: fs((MINUS, MINUS)),
    }


def test_merge_dispatch():
    t = TRIVIAL_CLASS
    assert merge_case(t, t, t) == "m"
    assert merge_case(A, t, A) == "m1"
    assert merge_case(t, A, A) == "m2"
    assert merge_case(A, A, t) == "m0"
    assert merge_case(A, B, SURF.canonical_class((1, 2))) is None
    with pytest.raises(ValueError, match="corrupted resolution"):
        merge_case(t, t, A)
    with pytest.raises(ValueError, match="corrupted resolution"):
        merge_case(A, t, B)
    with pytest.raises(ValueError, match="corrupted resolution"):
        merge_case(A, t, t)
    with pytest.raises(ValueError, match="corrupted resolution"):
        merge_case(A, B, t)


def test_split_dispatch():
    t = TRIVIAL_CLASS
    assert split_case(t, t, t) == "delta"
    assert split_case(A, A, t) == "delta1"
    assert split_case(A, t, A) == "delta2"
    assert split_case(t, A, A) == "delta0"
    assert split_case(SURF.canonical_class((1, 2)), A, B) is None
    with pytest.raises(ValueError, match="corrupted resolution"):
        split_case(A, t, t)
    with pytest.raises(ValueError, match="corrupted resolution"):
        split_case(A, B, t)
    with pytest.raises(ValueError, match="corrupted resolution"):
        split_case(t, A, B)


SWAP = GF2Matrix.from_entries(4, 4, [(0, 0), (1, 2), (2, 1), (3, 3)])


def test_swap_symmetry_relates_the_one_sided_tables():
    m1 = merge_matrix("m1", 2, 0)
    m2 = merge_matrix("m2", 2, 0)
    assert SWAP.multiply(m1) == m2
    assert SWAP.multiply(m2) == m1
    d1 = split_matrix("delta1", 1, 0)
    d2 = split_matrix("delta2", 1, 0)
    assert d1.multiply(SWAP) == d2
    assert d2.multiply(SWAP) == d1
    # the symmetric tables are swap-invariant outright
    m = merge_matrix("m", 2, 0)
    assert SWAP.multiply(m) == m
    d = split_matrix("delta", 1, 0)
    assert d.multiply(SWAP) == d
    m0 = merge_matrix("m0", 2, 0)
    assert SWAP.multiply(m0) == m0
    d0 = split_matrix("delta0", 1, 0)
    assert d0.multiply(SWAP) == d0


@pytest.mark.parametrize("pair", [("delta", "m"), ("delta0", "m0"),
                                  ("delta1", "m1"), ("delta2", "m2")])
def test_merge_after_split_vanishes(pair):
    delta, m = pair
    assert compose_ops((("split", delta, 0), ("merge", m, 0)), 1).is_zero()


def test_table1_suite_holds():
    rep = verify_table1()
    assert rep.all_ok
    assert len(rep.cells) == 39
    assert len(rep.classical_cells) == 3
    assert rep.final_cell_ok
    text = rep.summary()
    assert "39/39 cells hold" in text
    assert "classical row: 3/3 cells hold" in text
    assert "final row: holds" in text


def test_flavors_disagree_on_a_mixed_face():
    # merge a trivial circle into a nontrivial one and split back: the
    # classical face carries v+ (x) v- to v- (x) v-, the dispatched face
    # kills it at the product step
    x_plus_y_minus = 0b01
    classical = compose_ops((("merge", "m", 0), ("split", "delta", 0)), 2)
    dispatched = compose_ops((("merge", "m1", 0), ("split", "delta1", 0)), 2)
    assert classical.rows[x_plus_y_minus] == 1 << 0b00
    assert dispatched.rows[x_plus_y_minus] == 0


@pytest.mark.parametrize("name", ["trefoil_g1", "neutral1", "torus_link2"])
def test_partial_maps_respect_the_gradings(name):
    d = corpus(name)
    cache = {s: resolve(d, s) for s in range(1 << d.n_crossings)}
    classes_by_state = {s: circle_classes(d, r) for s, r in cache.items()}
    for edge in cube_edges(d):
        gamma = cache[edge.source].n_circles
        for mask in range(1 << gamma):
            labels = tuple((mask >> t) & 1 for t in range(gamma))
            gi, gj, gh = generator_gradings(d, edge.source, labels)
            for image in hand_images(d, edge, classes_by_state, mask):
                tgamma = cache[edge.target].n_circles
                tlabels = tuple((image >> t) & 1 for t in range(tgamma))
                ti, tj, th = generator_gradings(d, edge.target, tlabels)
                assert ti == gi + 1
                assert tj == gj
                assert th == gh


def test_complex_dimensions_count_all_labellings():
    for name in ("trefoil_rh", "neutral1", "torus_link2"):
        d = corpus(name)
        want = sum(
            1 << resolve(d, s).n_circles for s in range(1 << d.n_crossings)
        )
        for flavor in ("homotopical", "classical"):
            assert build_complex(d, flavor).total_dim() == want


def test_differential_squares_to_zero_on_sampled_corpus():
    for name in ("clasp_minus", "neutral1", "torus_link2", "genus2_loops"):
        d = corpus(name)
        for flavor in ("homotopical", "classical"):
            assert differential_squares_to_zero(build_complex(d, flavor))


def test_orientation_shifts():
    plus, minus = corpus("kink_plus"), corpus("kink_minus")
    # one positive crossing: i unshifted, j up one; one negative: both drop
    assert generator_gradings(plus, 0, (MINUS, MINUS), shift=False) == \
        (0, -2, ZERO_GRADING)
    assert generator_gradings(plus, 0, (MINUS, MINUS)) == (0, -1, ZERO_GRADING)
    assert generator_gradings(minus, 0, (MINUS,), shift=False) == \
        (0, -1, ZERO_GRADING)
    assert generator_gradings(minus, 0, (MINUS,)) == (-1, -3, ZERO_GRADING)
    cx = build_complex(plus, "classical", shift=False)
    cy = build_complex(plus, "classical", shift=True)
    assert {j + 1 for j, _ in cx.slices} == {j for j, _ in cy.slices}


def test_two_equal_circles_sum_their_class():
    d = corpus("torus_link2")
    for s in (1, 2):
        classes = circle_classes(d, resolve(d, s))
        if len(classes) == 2 and classes[0] == classes[1] and not classes[0].is_trivial:
            i, j, h = generator_gradings(d, s, (PLUS, PLUS), shift=False)
            assert (i, j) == (1, 3)
            assert h == grading_term(classes[0], 2)
            break
    else:
        raise AssertionError("no doubled-class state found")


def test_slice_gradings_are_the_grading_fold():
    # genus 3, several classes per state: build_complex writes each slice's
    # grading straight from its class ids; generator_gradings folds grading_add
    d = random_diagram(random.Random(2), 5, 3, max_word_len=3, n_loops=1)
    cx = build_complex(d)
    for _, h in cx.slices:
        fold = ZERO_GRADING
        for cls, coeff in h.terms:
            fold = grading_add(fold, grading_term(cls, coeff))
        assert h == fold
    want = collections.Counter()
    for s in range(1 << d.n_crossings):
        n = resolve(d, s).n_circles
        for mask in range(1 << n):
            labels = tuple((mask >> t) & 1 for t in range(n))
            want[generator_gradings(d, s, labels)] += 1
    got = collections.Counter({(i, j, h): cnt for (j, h), sc in cx.slices.items()
                               for i, cnt in sc.dims.items()})
    assert got == want
    assert max(len(h.terms) for _, h in cx.slices) >= 3


MATRIX_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "matrices.json"


def matrix_golden_inputs():
    """(name, diagram, circle transform): the corpus, 20 seeded random
    diagrams of genus 0-3 (most with free loops), and builds of a few with
    their circles reversed or their words inverted (``transformed_circles``)."""
    out = [(name, corpus(name), {}) for name in CORPUS_NAMES]
    rng = random.Random(21)
    randoms = []
    for k in range(20):
        d = random_diagram(rng, rng.randint(1, 6), k % 4, max_word_len=3, n_loops=k % 3)
        randoms.append((f"random{k}", d))
    out += [(name, d, {}) for name, d in randoms]
    for name, d in [("trefoil_g1", corpus("trefoil_g1")),
                    ("genus2_loops", corpus("genus2_loops"))] + randoms[:6]:
        out.append((name, d, {"reverse_circles": True}))
        out.append((name, d, {"invert_circle_words": True}))
    return out


def matrix_digest(cx) -> str:
    """sha256 over every slice key, its dims and its raw rows, in slice order."""
    h = hashlib.sha256()
    for (j, grading), sc in cx.slices.items():
        terms = [(c.letters, k) for c, k in grading.terms]
        mats = [(i, m.nrows, m.ncols, m.rows) for i, m in sc.mats.items()]
        h.update(repr((j, terms, list(sc.dims.items()), mats)).encode())
    return h.hexdigest()


def matrix_golden_records():
    out = {}
    for name, d, opts in matrix_golden_inputs():
        for flavor in ("homotopical", "classical"):
            with transformed_circles(**opts):
                out[f"{name} {flavor} {sorted(opts)}"] = matrix_digest(build_complex(d, flavor))
    return out


def test_matrices_match_the_recorded_golden():
    # pins every boundary matrix bit for bit, not just the homology tables
    assert matrix_golden_records() == json.loads(MATRIX_GOLDEN.read_text())


def test_fourteen_crossing_build_and_rank_peak_rss():
    # 230,364 generators; the wide maps keep their recipes, not their rows,
    # and are ranked one at a time, where holding every dense row took the
    # peak to ~256 MiB (the memory ladder's genus-0 classical n = 14 point,
    # in a fresh child)
    r = load_script("memory_ladder").measure(0, "classical", 14, None)
    assert "error" not in r, r
    assert r["generators"] == 230364
    assert r["peak_mb"] < 150, f"peak rss {r['peak_mb']:.0f} MiB"


def test_fourteen_crossing_genus_one_homotopical_peak_rss():
    # the ladder's genus-1 homotopical n = 14 point, in a fresh child: the
    # build keeps per state its owner index and anchors as bytes, a tuple of
    # column bases and one flat tuple of out-edges, not a Resolution, a
    # column-base dict and a tuple per cube edge (which peaked near 67 MiB)
    r = load_script("memory_ladder").measure(1, "homotopical", 14, None)
    assert "error" not in r, r
    assert r["generators"] == 230364
    assert r["peak_mb"] < 55, f"peak rss {r['peak_mb']:.0f} MiB"


@pytest.mark.parametrize("flavor", ["homotopical", "classical"])
def test_wide_maps_are_recipes_that_read_like_dense_rows(flavor):
    # perf12_genus1 has maps of both kinds: the wide ones (more than
    # WIDE_BITS dense bits) are BoundaryMaps, the narrow ones GF2Matrix
    cx = build_complex(corpus("perf12_genus1"), flavor)
    maps = [m for sc in cx.slices.values() for m in sc.mats.values()]
    wide = [m for m in maps if isinstance(m, chain.BoundaryMap)]
    assert wide and len(wide) < len(maps)
    assert all(m.nrows * m.ncols > chain.WIDE_BITS for m in wide)
    assert all(m.nrows * m.ncols <= chain.WIDE_BITS for m in maps if m not in wide)
    for m in wide:
        rows = m.rows
        assert len(rows) == m.nrows and any(rows)
        assert m.rows == rows
        assert m.rank() == GF2Matrix(m.nrows, m.ncols, rows).rank()


def test_recipe_and_dense_maps_agree_whatever_the_width_cut(monkeypatch):
    # with every map wide, or none, the build ships the same maps with the
    # same rows: a wide map whose rows are all zero is left out, as a
    # narrow one is
    def maps(d, flavor, wide_bits):
        monkeypatch.setattr(chain, "WIDE_BITS", wide_bits)
        cx = build_complex(d, flavor)
        kinds = {type(m) for sc in cx.slices.values() for m in sc.mats.values()}
        return kinds, {key: {i: (m.nrows, m.ncols, m.rows) for i, m in sc.mats.items()}
                       for key, sc in cx.slices.items()}

    # the golden's inputs: the corpus, and random diagrams with zero maps
    # between nonempty slots
    for name, d, opts in matrix_golden_inputs():
        if opts:
            continue
        for flavor in ("homotopical", "classical"):
            dense_kinds, dense = maps(d, flavor, 1 << 62)
            recipe_kinds, recipe = maps(d, flavor, 0)
            assert dense == recipe, name
            assert dense_kinds <= {GF2Matrix} and recipe_kinds <= {chain.BoundaryMap}


def test_a_row_read_with_a_skip_set_is_the_full_read_without_those_rows():
    # the rows at skipped positions are not made; the rest come out in order
    rng = random.Random(41)
    for flavor in ("homotopical", "classical"):
        cx = build_complex(corpus("perf12_genus1"), flavor)
        wide = [m for sc in cx.slices.values() for m in sc.mats.values()
                if isinstance(m, chain.BoundaryMap)]
        for m in wide:
            rows = m.rows
            for skip in (set(), set(range(m.nrows)), {0, m.nrows - 1},
                         {k for k in range(m.nrows) if rng.random() < 0.5}):
                assert list(chain._rows(m._recipe, skip)) == [
                    row for k, row in enumerate(rows) if k not in skip]


@pytest.mark.parametrize("wide_bits", [chain.WIDE_BITS, 0])
def test_cleared_ranks_are_the_full_ranks(monkeypatch, wide_bits):
    # homology_table ranks each slice's maps in degree order; d_i skips the
    # rows at the leads of d_(i-1)'s pivots, or none where degree i - 1 has
    # no map, and its rank is still that of all its rows.  With WIDE_BITS = 0
    # every map is a recipe, so both kinds are cleared on every input
    monkeypatch.setattr(chain, "WIDE_BITS", wide_bits)
    calls = []
    for kind in (GF2Matrix, chain.BoundaryMap):
        def leads(self, skip, real=kind.leads):
            out = real(self, skip)
            calls.append((self, skip, out))
            return out
        monkeypatch.setattr(kind, "leads", leads)
    cleared = 0
    for name, d, opts in matrix_golden_inputs():
        if opts:
            continue
        for flavor in ("homotopical", "classical"):
            cx = build_complex(d, flavor)
            calls.clear()
            homology_table(cx)
            it = iter(calls)
            for sc in cx.slices.values():
                prev_i, prev = None, set()
                for i in sorted(sc.mats):
                    mat, skip, leads = next(it)
                    assert mat is sc.mats[i]
                    assert set(skip) == (prev if prev_i == i - 1 else set())
                    assert len(leads) == mat.rank(), (name, flavor, i)
                    cleared += len(skip)
                    prev_i, prev = i, leads
            assert next(it, None) is None
    assert cleared > 10000


def test_build_traces_each_state_once_and_classifies_from_owner_slots(monkeypatch):
    # one pass per source state: no CubeEdge per cube edge, one owner-slot
    # decision per cube edge
    counts = collections.Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((chain, "resolve"), (chain, "edge_circles"),
                         (cube, "classify_edge")):
        count(module, name)
    d = corpus("trefoil_g1")
    n = d.n_crossings
    for flavor in ("homotopical", "classical"):
        counts.clear()
        build_complex(d, flavor)
        assert counts == {"resolve": 1 << n, "edge_circles": n << (n - 1)}


def test_build_makes_one_template_per_state_shape_and_edge_shape(monkeypatch):
    # perf12_genus1, homotopical: 4,096 states and 45,456 generators, but
    # their slice keys are made once per state shape (γ, β, class groups),
    # 2,500 masks in all; the table is dispatched once per edge template,
    # 804 of the 24,576 cube edges.  The classical flavor has fewer shapes:
    # 1,116 masks and 349 edge templates
    counts = collections.Counter()
    for name in ("_grading_key", "edge_table"):
        real = getattr(chain, name)

        def counted(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(chain, name, counted)
    d = corpus("perf12_genus1")
    assert build_complex(d).total_dim() == 45456
    assert counts == {"_grading_key": 2500, "edge_table": 804}
    assert counts["_grading_key"] < 45456
    counts.clear()
    assert build_complex(d, "classical").total_dim() == 45456
    assert counts == {"_grading_key": 1116, "edge_table": 349}


def test_build_classes_each_distinct_circle_word_once(monkeypatch):
    # perf12_genus1 traces 12,070 circles in its 4,096 states, but only two
    # distinct words, so the homotopical build classes each word once
    calls = []
    real = Surface.canonical_class

    def counted(self, w):
        calls.append(w)
        return real(self, w)
    monkeypatch.setattr(Surface, "canonical_class", counted)
    assert build_complex(corpus("perf12_genus1")).total_dim() == 45456
    assert len(calls) <= 3


def test_a_many_slice_build_shares_each_grading_and_term_once():
    # diagram 228 of the fuzz_mixed stream (pinned by
    # tests/golden/random_streams.json): genus 1, 8 crossings, 9,072
    # generators in 4,632 homotopical slices.  Slices with equal h share one
    # GradingElem, equal terms one tuple, and the build state is dropped
    # before packaging; with a grading per slice and the build state alive
    # the build peaked at 8.98 MiB under tracemalloc
    stream = random_diagram_stream(0, 300, max_crossings=8, max_genus=3, max_word_len=4)
    d = next(itertools.islice(stream, 228, None))
    tracemalloc.start()
    try:
        cx = build_complex(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (d.genus, d.n_crossings, cx.total_dim(), len(cx.slices)) == (1, 8, 9072, 4632)
    assert peak < 6 << 20, f"build peak {peak / (1 << 20):.2f} MiB"
    gradings, terms = {}, {}
    for _, h in cx.slices:
        assert gradings.setdefault(h, h) is h
        for term in h.terms:
            assert terms.setdefault(term, term) is term
    assert len(gradings) < len(cx.slices)


def row_oracle_inputs():
    """30 seeded random diagrams of genus 0-3 (some with free loops), and the
    genus-1 closure of [1,2,3]*3 on 4 strands, whose state shapes repeat."""
    rng = random.Random(31)
    out = [random_diagram(rng, rng.randint(1, 7), k % 4, max_word_len=3, n_loops=k % 3)
           for k in range(30)]
    out.append(braid_closure([1, 2, 3] * 3, 4, genus=1, closure_words=["a", "", "", ""]))
    return out


@pytest.mark.parametrize("flavor", ["homotopical", "classical"])
@pytest.mark.parametrize("shuffle", [False, True])
def test_every_row_matches_the_edge_by_edge_oracle(flavor, shuffle):
    # the templated build against cube_edges + hand_images, generator by
    # generator: slices, dims and every boundary row.  Shuffled circles move
    # the untouched circles of an edge independently of its indices, which
    # an edge template must then tell apart
    for d in row_oracle_inputs():
        with shuffled_circles(7) if shuffle else contextlib.nullcontext():
            cx = build_complex(d, flavor)
            want = naive_rows(d, flavor)
        dims = collections.Counter((key, i) for key, i, _, _ in want.values())
        assert {(key, i): cnt for key, sc in cx.slices.items()
                for i, cnt in sc.dims.items()} == dims
        for key, i, col, row in want.values():
            mat = cx.slices[key].mats.get(i)
            assert (0 if mat is None else mat.rows[col]) == row


def test_leaving_the_slice_names_the_site(monkeypatch):
    # a wrong product m(+ x +) = - drops the quantum grading by 2 on the one
    # merge of kink_plus: state 0, crossing 0, j = 3 (two + labels, shifted
    # by n_plus = 1) to j = 1
    monkeypatch.setitem(MERGE_TABLES["m"], (PLUS, PLUS), fs(MINUS))
    for flavor in ("homotopical", "classical"):
        with pytest.raises(RuntimeError) as err:
            build_complex(corpus("kink_plus"), flavor)
        assert str(err.value) == ("differential left its grading slice at state 0, "
                                  "crossing 0: slice (j=3, h=0) -> (j=1, h=0)")
    # m1 on trefoil_g1 also moves the class-weighted grading, which is named
    monkeypatch.setitem(MERGE_TABLES["m1"], (PLUS, PLUS), fs(MINUS))
    with pytest.raises(RuntimeError) as err:
        build_complex(corpus("trefoil_g1"))
    assert str(err.value) == ("differential left its grading slice at state 0, crossing 0: "
                              "slice (j=5, h=1*[a1]) -> (j=3, h=-1*[a1])")
