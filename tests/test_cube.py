"""State resolutions and cube edge classification."""

import random

from hkhovanov.cube import circle_classes, cube_edges, resolve
from hkhovanov.chain import merge_case, split_case
from hkhovanov.randgen import random_diagram

from helpers import CORPUS_NAMES, SMALL_GENUS0, corpus
from oracles import state_circles


def small_random_diagrams(count=30, max_crossings=4, max_genus=2, seed=7):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(1, max_crossings + 1)
        out.append(random_diagram(rng, n, rng.randrange(0, max_genus + 1),
                                  n_loops=rng.randrange(0, 2)))
    return out


def test_unknot_resolution():
    d = corpus("unknot")
    res = resolve(d, 0)
    assert res.n_circles == 1
    circ = res.circles[0]
    assert circ.darts == ()
    assert circ.word == ()
    assert circ.loop == 0


def test_neutral_example_hand_trace():
    # one crossing on the torus whose both smoothings give a single circle
    d = corpus("neutral1")
    r0, r1 = resolve(d, 0), resolve(d, 1)
    assert r0.n_circles == 1 and r0.circles[0].word == (1, -2)
    assert r1.n_circles == 1 and r1.circles[0].word == (1, 2)
    (edge,) = cube_edges(d)
    assert edge.kind == "neutral"
    assert edge.indices == (0, None, 0)
    assert edge.source == 0 and edge.target == 1


def test_circle_counts_match_union_find_oracle():
    for d in small_random_diagrams():
        for s in range(1 << d.n_crossings):
            assert resolve(d, s).n_circles == state_circles(d, s)


def test_supports_partition_the_edge_set():
    for d in small_random_diagrams():
        all_edges = frozenset(range(len(d.edge_words)))
        for s in range(1 << d.n_crossings):
            res = resolve(d, s)
            traced = [c for c in res.circles if c.loop is None]
            loops = [c for c in res.circles if c.loop is not None]
            union = frozenset()
            for c in traced:
                assert not (union & c.support)
                union |= c.support
            assert union == all_edges
            assert [c.loop for c in loops] == list(range(len(d.free_loops)))


def test_cube_edge_bookkeeping():
    # the corpus adds crossing-free, neutral and multi-circle inputs; the
    # supports are the independent oracle for the owner-index classifier
    inputs = small_random_diagrams(count=20) + [
        corpus(name) for name in CORPUS_NAMES if name != "perf12_genus1"]
    for d in inputs:
        n = d.n_crossings
        edges = cube_edges(d)
        assert len(edges) == (n << n) >> 1
        for e in edges:
            src = resolve(d, e.source)
            tgt = resolve(d, e.target)
            touched_src = set(range(src.n_circles))
            touched_tgt = set(range(tgt.n_circles))
            for a, b in e.unchanged:
                assert src.circles[a].support == tgt.circles[b].support
                assert src.circles[a].loop == tgt.circles[b].loop
                touched_src.discard(a)
                touched_tgt.discard(b)
            if e.kind == "merge":
                i, j, k = e.indices
                assert touched_src == {i, j} and touched_tgt == {k}
                assert src.circles[i].support | src.circles[j].support \
                    == tgt.circles[k].support
            elif e.kind == "split":
                i, j, k = e.indices
                assert touched_src == {i} and touched_tgt == {j, k}
                assert src.circles[i].support \
                    == tgt.circles[j].support | tgt.circles[k].support
            else:
                # the re-glued circle keeps its support, so it is also listed
                # among the matched pairs; indices single it out
                i, none, k = e.indices
                assert none is None
                assert touched_src == set() and touched_tgt == set()
                assert dict(e.unchanged)[i] == k
                assert src.circles[i].support == tgt.circles[k].support


def test_dispatch_accepts_every_honest_edge():
    # the class-consistency guards must never fire on a traced resolution
    for d in small_random_diagrams(count=20, seed=11):
        cache = {s: resolve(d, s) for s in range(1 << d.n_crossings)}
        classes = {s: circle_classes(d, res) for s, res in cache.items()}
        for e in cube_edges(d):
            src, tgt = classes[e.source], classes[e.target]
            if e.kind == "merge":
                i, j, k = e.indices
                merge_case(src[i], src[j], tgt[k])
            elif e.kind == "split":
                i, j, k = e.indices
                split_case(src[i], tgt[j], tgt[k])


def test_planar_closures_have_no_neutral_edges():
    for name in SMALL_GENUS0:
        d = corpus(name)
        kinds = {e.kind for e in cube_edges(d)}
        assert "neutral" not in kinds, name


def test_trefoil_circle_count_profile():
    d = corpus("trefoil_rh")
    by_weight = {}
    for s in range(8):
        by_weight.setdefault(bin(s).count("1"), []).append(resolve(d, s).n_circles)
    assert by_weight[0] == [2]
    assert sorted(by_weight[1]) == [1, 1, 1]
    assert sorted(by_weight[2]) == [2, 2, 2]
    assert by_weight[3] == [3]
