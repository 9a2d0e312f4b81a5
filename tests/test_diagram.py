"""Diagram loading, validation, signs, orientations, symmetries."""

import hashlib
import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from hkhovanov.diagram import (
    Diagram,
    HEAD,
    TAIL,
    crossing_sign,
    crossing_signs,
    diagram_from_json,
    diagram_to_json,
    has_source_sink,
    load_diagram,
    mirror,
    reverse_orientation,
    source_sink_orientation,
    validate,
    validate_json,
)
from hkhovanov.randgen import random_diagram

from helpers import CORPUS, CORPUS_NAMES, corpus
from oracles import source_sink_exhaustive


def small_random_diagrams(count=25, max_crossings=3, max_genus=2, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(1, max_crossings + 1)
        out.append(random_diagram(rng, n, rng.randrange(0, max_genus + 1)))
    return out


def test_corpus_loads_and_validates():
    for name in CORPUS_NAMES:
        d = corpus(name)
        assert validate(d) == [], name


def test_json_roundtrip_is_stable():
    for name in CORPUS_NAMES:
        d = corpus(name)
        obj = diagram_to_json(d)
        d2 = diagram_from_json(obj)
        assert d2 == d, name
        assert diagram_to_json(d2) == obj, name
        # byte stability through the serializer as the CLI writes it
        assert json.dumps(obj, sort_keys=True) == json.dumps(
            diagram_to_json(d2), sort_keys=True
        )


def test_validate_json_reports_schema_violations():
    assert validate_json([]) == ["diagram must be a JSON object"]
    assert "genus must be a nonnegative integer" in validate_json({"genus": -1})
    base = {
        "genus": 0,
        "edges": [{"id": 0, "word": ""}, {"id": 1, "word": ""}],
        "crossings": [{"id": 0, "slots": [0, 1, 0, 1]}],
        "free_loops": [],
    }
    assert validate_json(base) == []

    bad = dict(base, edges=[{"id": 0}, {"id": 0}])
    assert any("duplicate edge ids" in p for p in validate_json(bad))

    bad = dict(base, crossings=[{"id": 0, "slots": [0, 1, 0]}])
    assert any("needs exactly 4 slots" in p for p in validate_json(bad))

    bad = dict(base, crossings=[{"id": 0, "slots": [0, 1, 0, 7]}])
    problems = validate_json(bad)
    assert any("unknown edge 7" in p for p in problems)
    assert any("used 1 times" in p for p in problems)

    bad = dict(base, edges=[{"id": 0, "word": "a"}, {"id": 1, "word": ""}])
    assert any("exceeds genus" in p for p in validate_json(bad))


def test_diagram_from_json_raises_with_diagnostics():
    with pytest.raises(ValueError, match="invalid diagram"):
        diagram_from_json({"genus": 0, "edges": [{"id": 0, "word": ""}]})


def test_load_diagram_raises_value_errors_naming_the_file(tmp_path):
    # the parser's RecursionError on deep nesting used to escape the loader
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError) as err:
        load_diagram(str(deep))
    assert str(err.value) == f"{deep}: JSON nested too deeply to parse"
    broken = tmp_path / "broken.json"
    broken.write_text("{nonsense")
    with pytest.raises(ValueError, match=r"broken\.json: line 1: "):
        load_diagram(str(broken))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"genus": True}))
    with pytest.raises(ValueError, match=r"bad\.json: invalid diagram: "):
        load_diagram(str(bad))


def test_validate_flags_structural_damage():
    d = corpus("trefoil_rh")
    # duplicate one slot reference: some edge end now appears twice
    slots = list(d.crossings[0])
    slots[0] = slots[1]
    broken = Diagram(d.genus, d.edge_words, (tuple(slots),) + d.crossings[1:],
                     d.free_loops)
    problems = validate(broken)
    assert problems
    assert any("duplicate" in p or "missing an end" in p for p in problems)


def test_crossing_signs_on_corpus():
    assert crossing_signs(corpus("kink_plus"))[:2] == (1, 0)
    assert crossing_signs(corpus("kink_minus"))[:2] == (0, 1)
    assert crossing_signs(corpus("trefoil_rh"))[:2] == (3, 0)
    assert crossing_signs(corpus("trefoil_lh"))[:2] == (0, 3)
    assert crossing_signs(corpus("fig8"))[:2] == (2, 2)


def test_edge_ends_are_consistent():
    for name in CORPUS_NAMES:
        d = corpus(name)
        for c, slots in enumerate(d.crossings):
            for s, (e, end) in enumerate(slots):
                assert d.edge_ends[e][end] == (c, s)


def test_source_sink_matches_exhaustive_oracle():
    for name in CORPUS_NAMES:
        d = corpus(name)
        if len(d.edge_words) <= 12:
            assert has_source_sink(d) == source_sink_exhaustive(d), name
    for d in small_random_diagrams():
        assert has_source_sink(d) == source_sink_exhaustive(d)


def test_source_sink_orientation_is_alternating():
    for d in [corpus(name) for name in CORPUS_NAMES] + small_random_diagrams():
        flips = source_sink_orientation(d)
        if flips is None:
            continue
        # edge 0 is the least edge of its component, so it keeps its direction
        assert not flips or flips[0] == 1
        for slots in d.crossings:
            toward = [end ^ (flips[e] < 0) for e, end in slots]
            assert toward[0] == toward[2]
            assert toward[1] == toward[3]
            assert toward[0] != toward[1]


def test_neutral_example_has_no_source_sink():
    assert not has_source_sink(corpus("neutral1"))


def test_reverse_orientation_is_an_involution():
    for name in CORPUS_NAMES:
        d = corpus(name)
        r = reverse_orientation(d)
        assert validate(r) == []
        assert reverse_orientation(r) == d
        # reversing both strands keeps every crossing sign
        assert crossing_signs(r) == crossing_signs(d)


def test_mirror_is_an_involution_and_negates_signs():
    for name in CORPUS_NAMES:
        d = corpus(name)
        m = mirror(d)
        assert validate(m) == []
        assert mirror(m) == d
        np, nm, signs = crossing_signs(d)
        mp, mm, msigns = crossing_signs(m)
        assert (mp, mm) == (nm, np)
        assert msigns == tuple(-s for s in signs)


# validate_json messages and sha256(repr(diagram)) per document, recorded at
# commit f3a3dec, before end inference and source-sink orientation shared a solver
LOAD_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "diagram_load.json"


def load_golden_documents():
    """600 seeded documents; every third has one crossing's slots rotated by one."""
    rng = random.Random(5)
    docs = []
    for k in range(600):
        n, genus, n_loops = rng.randint(1, 6), rng.randint(0, 3), rng.randint(0, 1)
        doc = diagram_to_json(random_diagram(rng, n, genus, 3, n_loops))
        if k % 3 == 0:
            slots = doc["crossings"][rng.randrange(n)]["slots"]
            slots.append(slots.pop(0))
        docs.append(doc)
    return docs


def load_record(doc):
    problems = validate_json(doc)
    if problems:
        return {"problems": problems, "sha256": None}
    d = diagram_from_json(doc)
    # the loader's one validation pass leaves nothing for validate to find
    assert validate(d) == []
    return {"problems": [], "sha256": hashlib.sha256(repr(d).encode()).hexdigest()}


def passes_only_over(d):
    """Whether some strand component of d never meets a slot 0 or 2."""
    seen = set()
    for e in range(len(d.edge_words)):
        if e in seen:
            continue
        seen.add(e)
        todo, under = [e], False
        while todo:
            for c, s in d.edge_ends[todo.pop()]:
                under |= s % 2 == 0
                nxt = d.crossings[c][s ^ 2][0]
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        if not under:
            return True
    return False


def test_loading_matches_the_recorded_golden():
    docs = load_golden_documents()
    golden = json.loads(LOAD_GOLDEN.read_text())
    assert [load_record(doc) for doc in docs] == golden
    rejected = [g for g in golden if "orientation-inconsistent slot structure" in g["problems"]]
    free = [doc for doc, g in zip(docs, golden)
            if g["sha256"] and passes_only_over(diagram_from_json(doc))]
    # both the inconsistency rejection and the free-component rule are exercised
    assert rejected and free


# JSON-shaped junk for the loader fuzz test: wrong types, out-of-range and
# huge numbers, bad or out-of-genus words, and nested containers
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2, 8) | st.floats()
    | st.text(max_size=4) | st.sampled_from(["a1 B2", "A", "b9", "a0", "a1x", " "]),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(
        st.sampled_from(["id", "word", "slots", "genus", "edges"]), inner, max_size=3),
    max_leaves=10)
DELETE = object()


def mutation_paths(doc):
    """Where a mutation can land: genus, the lists, their entries, ids, words
    and slots."""
    out = [("genus",), ("edges",), ("crossings",), ("free_loops",)]
    for k in range(len(doc["edges"])):
        out += [("edges", k), ("edges", k, "id"), ("edges", k, "word")]
    for k in range(len(doc["crossings"])):
        out += [("crossings", k), ("crossings", k, "id"), ("crossings", k, "slots")]
        out += [("crossings", k, "slots", s) for s in range(4)]
    out += [("free_loops", k) for k in range(len(doc["free_loops"]))]
    return out


def mutate(doc, path, value):
    """Set the entry at path to value, or delete it; a path that an earlier
    mutation destroyed is left alone."""
    *parents, key = path
    try:
        node = doc
        for p in parents:
            node = node[p]
        if value is DELETE:
            del node[key]
        else:
            node[key] = value
    except (KeyError, IndexError, TypeError):
        pass


@settings(max_examples=80)
@given(data=st.data())
def test_loader_raises_only_value_errors_on_mutated_documents(data):
    name = data.draw(st.sampled_from(["trefoil_g1", "genus2_loops", "torus_link2"]))
    doc = json.loads((CORPUS / f"{name}.json").read_text())
    paths = mutation_paths(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(paths))
        mutate(doc, path, data.draw(JUNK | st.just(DELETE)))
    try:
        d = diagram_from_json(doc)
    except ValueError:
        return
    assert validate(d) == []
