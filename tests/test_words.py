"""Word calculus on closed surface groups: reductions, classes, gradings."""

import doctest

import pytest
from hypothesis import given, settings, strategies as st

import hkhovanov.words
from hkhovanov.cube import resolve
from hkhovanov.randgen import random_diagram_stream
from hkhovanov.words import (
    _cyclic_dehn_reduce,
    ConjClass,
    GradingElem,
    Surface,
    TRIVIAL_CLASS,
    ZERO_GRADING,
    cyclic_reduce,
    free_reduce,
    invert_word,
    parse_word,
    torus_class_exponents,
    word_key,
    word_to_str,
)

from oracles import (
    _relator,
    grading_add,
    grading_negate,
    grading_term,
    table_class_word,
    table_cyclic_dehn_reduce,
    table_dehn_reduce,
    torus_class,
)


def letters(genus):
    gens = [k for k in range(1, 2 * genus + 1)]
    return st.sampled_from(gens + [-g for g in gens])


def word_st(genus, max_len=8):
    if genus == 0:  # the sphere has no letters
        return st.just(())
    return st.lists(letters(genus), max_size=max_len).map(tuple)


def test_docstring_examples():
    failed, _ = doctest.testmod(hkhovanov.words)
    assert failed == 0


def test_parse_examples():
    assert parse_word("a1 B2 a1", 2) == (1, -4, 1)
    assert parse_word("a B", 1) == (1, -2)
    assert parse_word("", 1) == ()
    assert word_to_str((1, -4, 1), 2) == "a1 B2 a1"
    assert word_to_str((1, -2), 1) == "a B"


def test_parse_rejects_bad_tokens():
    with pytest.raises(ValueError, match="expected a/b"):
        parse_word("c1", 1)
    with pytest.raises(ValueError, match="exceeds genus"):
        parse_word("a3", 2)
    with pytest.raises(ValueError, match="exceeds genus"):
        parse_word("a", 0)
    with pytest.raises(ValueError, match="bad handle index"):
        parse_word("a1x", 2)


@given(word_st(2))
def test_invert_is_an_involution(w):
    assert invert_word(invert_word(w)) == w


@given(word_st(2))
def test_free_reduce_is_reduced_and_idempotent(w):
    r = free_reduce(w)
    assert all(r[i] != -r[i + 1] for i in range(len(r) - 1))
    assert free_reduce(r) == r


@given(word_st(2))
def test_cyclic_reduce_strips_ends(w):
    r = cyclic_reduce(w)
    assert free_reduce(r) == r
    assert len(r) < 2 or r[0] != -r[-1]


@given(word_st(1, max_len=10))
def test_torus_triviality_matches_exponent_oracle(w):
    surf = Surface(1)
    assert surf.is_trivial(w) == (torus_class(w) == (0, 0))


@given(word_st(1, max_len=10))
def test_torus_class_matches_exponent_oracle(w):
    cls = Surface(1).canonical_class(w)
    if cls.is_trivial:
        assert torus_class(w) == (0, 0)
    else:
        assert torus_class_exponents(cls) == torus_class(w)


@pytest.mark.parametrize("genus", [0, 1, 2, 3])
@given(data=st.data())
def test_class_is_conjugation_invariant(genus, data):
    w = data.draw(word_st(genus, max_len=6))
    u = data.draw(word_st(genus, max_len=4))
    surf = Surface(genus)
    assert surf.canonical_class(u + w + invert_word(u)) is surf.canonical_class(w)
    # the build classes circle words as traced, without reducing them first
    assert surf.canonical_class(free_reduce(w)) is surf.canonical_class(w)


@pytest.mark.parametrize("genus", [1, 2])
@given(data=st.data())
def test_class_is_inversion_invariant(genus, data):
    w = data.draw(word_st(genus, max_len=6))
    surf = Surface(genus)
    assert surf.canonical_class(invert_word(w)) is surf.canonical_class(w)


def test_sphere_classes_all_trivial():
    surf = Surface(0)
    assert surf.canonical_class(()) is TRIVIAL_CLASS
    assert surf.is_trivial(())
    with pytest.raises(ValueError, match="out of range"):
        surf.canonical_class((1,))


@st.composite
def spliced_words(draw):
    """(genus, word) at genus 2-8, spliced from arcs of rotations of r^+-1
    and random letters: plain random words rarely hold a relator subword of
    half its length or more."""
    genus = draw(st.integers(2, 8))
    r = _relator(genus)
    n = len(r)
    arc = st.tuples(st.sampled_from((r, invert_word(r))), st.integers(0, n - 1),
                    st.integers(1, n + 2))
    pieces = draw(st.lists(st.one_of(
        arc.map(lambda t: tuple(t[0][(t[1] + k) % n] for k in range(t[2]))),
        word_st(genus, max_len=3)), max_size=5))
    return genus, sum(pieces, ())


@settings(max_examples=400)
@given(spliced_words())
def test_dehn_reduction_matches_the_subword_table_oracle(case):
    genus, w = case
    assert Surface(genus).is_trivial(w) == (table_dehn_reduce(w, genus) == ())
    assert _cyclic_dehn_reduce(w, genus) == table_cyclic_dehn_reduce(w, genus)
    assert Surface(genus).canonical_class(w).letters == table_class_word(w, genus)


def test_surface_relator_is_trivial():
    for genus in (2, 3):
        rel = tuple(
            x
            for i in range(1, genus + 1)
            for x in (2 * i - 1, 2 * i, -(2 * i - 1), -(2 * i))
        )
        surf = Surface(genus)
        assert surf.is_trivial(rel)
        assert surf.is_trivial(rel + rel)
        assert surf.canonical_class((1,) + rel + (-1,)) is TRIVIAL_CLASS


def test_generators_are_nontrivial_and_distinct():
    surf = Surface(2)
    classes = [surf.canonical_class((g,)) for g in (1, 2, 3, 4)]
    assert all(not c.is_trivial for c in classes)
    assert len(set(classes)) == 4


def test_genus2_commutator_identity():
    # the relator makes the two handle commutators inverse to each other
    surf = Surface(2)
    lhs = surf.canonical_class(parse_word("a1 b1 A1 B1", 2))
    rhs = surf.canonical_class(parse_word("b2 a2 B2 A2", 2))
    assert not lhs.is_trivial
    assert lhs == rhs


@pytest.mark.xfail(strict=True, reason="the class saturates only under length-preserving"
                   " half-relator swaps; these rotations meet only through 8-letter words")
def test_every_rotation_of_a_genus2_word_has_one_class():
    # rotations 0-3, 8 and 9 class as a1 b1 b1 A1 B1 B2, rotations 4-7 as
    # b1 b2 a2 B2 B2 A2: both are conjugates of one word
    surf = Surface(2)
    w = parse_word("B2 a1 b1 A1 b2 a2 B2 A2 b1 B1", 2)
    classes = {surf.canonical_class(w[r:] + w[:r]) for r in range(len(w))}
    assert len(classes) == 1


def test_a_memo_miss_looks_up_the_freely_reduced_word(monkeypatch):
    # a traced word that differs from a classed one by a cancelling pair
    # reuses its class without computing it again
    surf = Surface(2)
    first = surf.canonical_class((1,))
    calls = []
    real = hkhovanov.words._hyperbolic_class_word
    monkeypatch.setattr(hkhovanov.words, "_hyperbolic_class_word",
                        lambda w, genus: calls.append(w) or real(w, genus))
    assert surf.canonical_class((1, 2, -2)) is first
    assert calls == []
    with pytest.raises(ValueError, match="out of range"):
        surf.canonical_class((9, -9))


def test_classes_are_interned_per_surface():
    # every word of one class maps to one object, so class-keyed lookups hit
    # on identity
    surf = Surface(2)
    words = ["a1 b1 A1 B1", "b2 a2 B2 A2", "b1 A1 B1 a1", "b1 a1 B1 A1"]
    classes = [surf.canonical_class(parse_word(t, 2)) for t in words]
    assert all(c is classes[0] for c in classes)
    torus = Surface(1)
    assert torus.canonical_class((1, 2)) is torus.canonical_class((-2, -1))
    assert torus.canonical_class((1, -1)) is TRIVIAL_CLASS
    genus3 = Surface(3)
    seen = [genus3.canonical_class(circle.word)
            for d in random_diagram_stream(4, 40, max_crossings=5, max_genus=3,
                                           max_word_len=4) if d.genus == 3
            for s in range(1 << d.n_crossings) for circle in resolve(d, s).circles]
    assert len({id(c) for c in seen}) == len(set(seen)) < len(seen)


def test_torus_canonical_form_sorts_letters():
    surf = Surface(1)
    cls = surf.canonical_class(parse_word("b a a B b", 1))
    assert cls.letters == (1, 1, 2)
    assert torus_class_exponents(cls) == (2, 1)
    # sign normalization folds a class onto its inverse
    assert surf.canonical_class(parse_word("A", 1)) == surf.canonical_class((1,))


CLASS_POOL = [Surface(1).canonical_class(parse_word(t, 1)) for t in ("a", "b", "a b")]


def _fold(pairs):
    acc = ZERO_GRADING
    for c, k in pairs:
        acc = grading_add(acc, grading_term(c, k))
    return acc


def grading_st():
    pairs = st.lists(
        st.tuples(st.sampled_from(CLASS_POOL), st.integers(-3, 3)), max_size=4
    )
    return pairs.map(_fold)


@given(grading_st(), grading_st(), grading_st())
def test_grading_group_laws(x, y, z):
    assert grading_add(x, y) == grading_add(y, x)
    assert grading_add(grading_add(x, y), z) == grading_add(x, grading_add(y, z))
    assert grading_add(x, ZERO_GRADING) == x
    assert grading_add(x, grading_negate(x)) == ZERO_GRADING


def test_grading_term_of_trivial_class_is_zero():
    assert grading_term(TRIVIAL_CLASS, 5) == ZERO_GRADING
    assert grading_term(CLASS_POOL[0], 0) == ZERO_GRADING


def test_grading_str_forms():
    a = CLASS_POOL[0]
    assert str(ZERO_GRADING) == "0"
    assert str(grading_term(a, 2)) == "2*[a1]"
    assert str(grading_term(a, -1)) == "-1*[a1]"


# genus 20 reaches letters past word_key's 16-handle table
@given(st.lists(word_st(20), max_size=10))
def test_class_order_and_hash_follow_the_letters(words):
    classes = [ConjClass(w) for w in words]
    assert [c.letters for c in sorted(classes)] == sorted(words, key=word_key)
    for cls, w in zip(classes, words):
        twin = ConjClass(tuple(w))
        assert twin == cls and hash(twin) == hash(cls) == hash(w)
        assert cls.key == word_key(w) == (len(w), tuple(2 * abs(x) + (x < 0) for x in w))
