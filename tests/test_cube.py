"""State resolutions and cube edge classification."""

import hashlib
import json
import pathlib
import random
from dataclasses import replace
from functools import cached_property

import pytest

from hkhovanov import chain, randgen
from hkhovanov.cube import circle_classes, circle_counts, classify_edge, resolve
from hkhovanov.chain import build_complex, merge_case, split_case
from hkhovanov.diagram import Diagram, diagram_to_json
from hkhovanov.randgen import random_diagram, random_diagram_stream

from helpers import CORPUS_NAMES, SMALL_GENUS0, corpus
from oracles import cube_edges, state_circles, supports, trace_circles


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
    assert res.circles[0].word == ()
    # no edges: the free loop owns slot 0 and is anchored there
    assert res.owner == (0,)
    assert res.anchors == (0,)


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


def test_resolve_matches_the_tracing_oracle():
    inputs = small_random_diagrams() + [
        corpus(name) for name in CORPUS_NAMES if name != "perf12_genus1"]
    for d in inputs:
        counts = circle_counts(d)
        n_edges = len(d.edge_words)
        for s in range(1 << d.n_crossings):
            res = resolve(d, s)
            circles, owner = trace_circles(d, s)
            assert [c.word for c in res.circles] == [word for _, word in circles]
            assert res.owner == owner
            # each traced circle at its least edge, then free loop k at slot n_edges + k
            traced = [min(e for e, _ in darts) for darts, _ in circles if darts]
            assert res.anchors == (*traced, *range(n_edges, n_edges + len(d.free_loops)))
            assert counts[s] == len(circles)


def test_dart_table_is_built_once_per_diagram(monkeypatch):
    built = []
    table = Diagram.dart_steps.func

    def counted(d):
        built.append(d)
        return table(d)

    prop = cached_property(counted)
    prop.__set_name__(Diagram, "dart_steps")
    monkeypatch.setattr(Diagram, "dart_steps", prop)
    d = corpus("trefoil_g1")
    build_complex(d, "homotopical")
    build_complex(d, "classical")
    assert [id(x) for x in built] == [id(d)]

    # the size cap counts the circles of every candidate, kept or not
    built.clear()
    made = []

    def recorded(*args, **kwargs):
        made.append(random_diagram(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(randgen, "random_diagram", recorded)
    kept = list(random_diagram_stream(0, 20, max_crossings=8, max_genus=3, max_word_len=4,
                                      size_cap=500))
    assert len(made) > len(kept) == 20
    assert [id(x) for x in built] == [id(x) for x in made]


STREAM_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "random_streams.json"


def test_random_streams_match_the_recorded_golden():
    # "capped" rejects candidates over its size cap; "fuzz_mixed" is the
    # perfbench workload's stream, which rejects none
    streams = {
        "capped": random_diagram_stream(0, 20, max_crossings=8, max_genus=3, max_word_len=4,
                                        size_cap=500),
        "fuzz_mixed": random_diagram_stream(0, 300, max_crossings=8, max_genus=3,
                                            max_word_len=4),
    }
    digests = {name: hashlib.sha256(json.dumps([diagram_to_json(d) for d in stream]).encode())
               .hexdigest() for name, stream in streams.items()}
    assert digests == json.loads(STREAM_GOLDEN.read_text())


def test_cube_edge_bookkeeping():
    # the corpus adds crossing-free, neutral and multi-circle inputs; the
    # traced supports are the independent oracle for the owner-index
    # classifier and for the anchor rule the build matches circles by: every
    # circle an edge leaves alone lands on the target circle that owns its
    # anchor, which runs through the same edges.  Under the least-edge circle
    # order the untouched circles keep their relative order, and a consumed
    # circle's anchor lands in the target at a slot fixed by kind and indices,
    # so keying the build's edge templates by every anchor's target slot
    # makes no more templates
    inputs = small_random_diagrams(count=20) + [
        corpus(name) for name in CORPUS_NAMES if name != "perf12_genus1"]
    for d in inputs:
        n = d.n_crossings
        edges = cube_edges(d)
        assert len(edges) == (n << n) >> 1
        for e in edges:
            src = resolve(d, e.source)
            tgt = resolve(d, e.target)
            src_sup, tgt_sup = supports(d, src), supports(d, tgt)
            landed = [tgt.owner[a] for a in src.anchors]
            i, j, k = e.indices
            consumed = (i, j) if e.kind == "merge" else (i,) if e.kind == "split" else ()
            untouched = [p for p in range(src.n_circles) if p not in consumed]
            for p in untouched:
                assert src_sup[p] == tgt_sup[landed[p]]
            moved = [landed[p] for p in untouched]
            assert moved == sorted(set(moved))
            if e.kind == "merge":
                assert set(range(tgt.n_circles)) - set(moved) == {k}
                assert [landed[i], landed[j]] == [k, k]
                assert src_sup[i] | src_sup[j] == tgt_sup[k]
            elif e.kind == "split":
                assert set(range(tgt.n_circles)) - set(moved) == {j, k}
                assert landed[i] == j
                assert src_sup[i] == tgt_sup[j] | tgt_sup[k]
            else:
                # the re-glued circle keeps its support, so it is matched too
                assert j is None
                assert set(moved) == set(range(tgt.n_circles))
                assert landed[i] == k


def test_corrupted_owner_index_names_the_site(monkeypatch):
    # state 3 of trefoil_rh puts edges 2..5 on circle 1; moving edge 5 to
    # circle 0 makes the split at crossing 2 (state 3 -> 7) read as two
    # circles turning into two
    d = corpus("trefoil_rh")

    def corrupted(diagram, state):
        res = resolve(diagram, state)
        if diagram is d and state == 3:
            owner = list(res.owner)
            owner[5] = 0
            res = replace(res, owner=tuple(owner))
        return res

    message = "corrupted diagram at state 3, crossing 2: 2 circles become 2"
    with pytest.raises(RuntimeError) as err:
        classify_edge(d, corrupted(d, 3), resolve(d, 7))
    assert str(err.value) == message
    monkeypatch.setattr(chain, "resolve", corrupted)
    for flavor in ("homotopical", "classical"):
        with pytest.raises(RuntimeError) as err:
            build_complex(d, flavor)
        assert str(err.value) == message


def test_corrupted_walk_names_the_site():
    # dart 4 (edge 2 into crossing 2) now leaves the 1-smoothing backwards
    # along edge 1: at state 4 the walk from edge 0 takes edges 0, 2, 1, 5, 4
    # and closes, and the walk from edge 3 steps back onto edge 2
    d = corpus("trefoil_rh")
    steps = list(d.dart_steps)
    c, nxt0, _, word = steps[4]
    steps[4] = (c, nxt0, 3, word)
    d.__dict__["dart_steps"] = tuple(steps)
    message = "corrupted diagram at state 4: edge 2 traversed twice"
    runs = [lambda: resolve(d, 4), lambda: circle_counts(d),
            lambda: build_complex(d, "homotopical"), lambda: build_complex(d, "classical")]
    for run in runs:
        with pytest.raises(RuntimeError) as err:
            run()
        assert str(err.value) == message


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
