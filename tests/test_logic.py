"""Core propositional layer: classes, theories, input sets, parsing.

conj_all, pairwise_conj and set_equiv are the set-conjunction helpers
that other test modules use as references, written from their
definitions and tested here.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from choicerev.descriptors import formula_for_class
from choicerev.logic import (
    BeliefSet,
    InputSet,
    LanguageError,
    LanguageSpec,
    ParseError,
    SentenceClass,
    class_of,
    entails,
    enumerate_belief_sets,
    enumerate_classes,
    parse_input_set,
)
from reference_tree import And, Atom, Bottom, Implies, Not, Or, Top, evaluate, render, tree_class


def conj_all(a: InputSet) -> SentenceClass:
    """Conjunction of every member; the empty conjunction is the tautology."""
    mask = a.lang.full_mask
    for c in a.classes:
        mask &= c.mask
    return SentenceClass(a.lang, mask)


def pairwise_conj(a: InputSet, b: InputSet) -> InputSet:
    """All conjunctions of one member from each set."""
    return InputSet(
        a.lang,
        frozenset(
            SentenceClass(a.lang, x.mask & y.mask)
            for x, y in itertools.product(a.classes, b.classes)
        ),
    )


def set_equiv(a: InputSet, b: InputSet) -> bool:
    """Element-wise equivalence in both directions.

    Members are sentence classes (already quotiented by equivalence), so
    this is exactly set equality.
    """
    return a.classes == b.classes


# frozen: at atom_count=2 the valuations are 00,01,10,11 (char i = atom i)
def test_class_of_atom_frozen(lang2):
    assert class_of("p0", lang2).encode() == ["10", "11"]
    assert class_of("p1", lang2).encode() == ["01", "11"]
    assert class_of("p0 & ~p1", lang2).encode() == ["10"]
    assert class_of("p0 -> p1", lang2).encode() == ["00", "01", "11"]


def test_language_bounds():
    with pytest.raises(LanguageError):
        LanguageSpec(0)
    with pytest.raises(LanguageError):
        LanguageSpec(5)
    lang = LanguageSpec(4)
    assert lang.valuation_count == 16
    with pytest.raises(LanguageError):
        lang.require_exhaustive()
    LanguageSpec(3).require_exhaustive()


# (text, its reading, the reading with another grouping)
_GROUPINGS = [
    # ~ binds tighter than &, & tighter than |, | tighter than ->
    ("~p0 & p1 | p0 -> p1", Implies(Or(And(Not(Atom(0)), Atom(1)), Atom(0)), Atom(1)),
     Not(Implies(Or(And(Atom(0), Atom(1)), Atom(0)), Atom(1)))),
    ("~p0 & p1", And(Not(Atom(0)), Atom(1)), Not(And(Atom(0), Atom(1)))),
    ("p0 | p1 & ~p0", Or(Atom(0), And(Atom(1), Not(Atom(0)))),
     And(Or(Atom(0), Atom(1)), Not(Atom(0)))),
    ("p1 | p0 -> p0", Implies(Or(Atom(1), Atom(0)), Atom(0)),
     Or(Atom(1), Implies(Atom(0), Atom(0)))),
    # -> associates right
    ("p0 -> p1 -> p0", Implies(Atom(0), Implies(Atom(1), Atom(0))),
     Implies(Implies(Atom(0), Atom(1)), Atom(0))),
]


def test_parser_precedence(lang2):
    """Each text's class is its reading's, and not the class of the
    reading with another grouping."""
    for text, tree, other in _GROUPINGS:
        assert class_of(text, lang2) == tree_class(tree, lang2) != tree_class(other, lang2)


def test_parser_errors(lang2):
    with pytest.raises(ParseError) as exc:
        class_of("p0 &", lang2)
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        class_of("p7", lang2)
    with pytest.raises(ParseError):
        class_of("(p0", lang2)
    with pytest.raises(ParseError):
        class_of("", lang2)


def test_constants(lang2):
    assert class_of("T", lang2).is_tautology
    assert class_of("F", lang2).is_contradiction


@st.composite
def formulas(draw, max_depth=4):
    """A language of 1 to 4 atoms and a random reference tree over it."""
    atom_count = draw(st.integers(1, 4))
    lang = LanguageSpec(atom_count)

    def build(depth):
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            kind = draw(st.integers(0, 5))
            if kind == 4:
                return Top()
            if kind == 5:
                return Bottom()
            return Atom(draw(st.integers(0, atom_count - 1)))
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return Not(build(depth - 1))
        return [And, Or, Implies][kind - 1](build(depth - 1), build(depth - 1))

    return lang, build(max_depth)


@given(formulas())
def test_format_parse_roundtrip(pair):
    """`formula_for_class`, the package's sentence renderer, parses back
    to the class it renders."""
    lang, f = pair
    c = tree_class(f, lang)
    assert class_of(formula_for_class(c), lang) == c


@given(formulas())
def test_class_matches_truth_table(pair):
    """The class of a tree's text holds valuation v exactly when the tree
    evaluates true under v."""
    lang, f = pair
    c = class_of(render(f), lang)
    for v in lang.valuations():
        assert (c.mask >> v & 1 == 1) == evaluate(f, v)


@given(st.integers(0, 15), st.integers(0, 15))
def test_class_algebra(ma, mb):
    lang = LanguageSpec(2)
    a, b = SentenceClass(lang, ma), SentenceClass(lang, mb)
    assert a.conj(b).mask == ma & mb
    assert a.neg().mask == ~ma & lang.full_mask
    assert a.entails(b) == all(
        mb >> v & 1 for v in range(4) if ma >> v & 1
    )


@given(st.integers(0, 15), st.integers(0, 15))
def test_entailment_brute_force(mx, mc):
    # oracle: every model of the theory satisfies the class
    lang = LanguageSpec(2)
    x, c = BeliefSet(lang, mx), SentenceClass(lang, mc)
    expected = all(mc >> v & 1 for v in range(4) if mx >> v & 1)
    assert entails(x, c) == expected


def test_belief_set_theory(lang2):
    k = BeliefSet.decode(["10"], lang2)
    theory = {c.mask for c in k.theory_classes()}
    # exactly the classes whose model set contains valuation 10
    assert theory == {m for m in range(16) if m >> 1 & 1}
    assert k.believes(class_of("p0", lang2))
    assert not k.believes(class_of("p1", lang2))
    assert BeliefSet.inconsistent(lang2).believes(class_of("F", lang2))


def test_closure_of(lang2):
    k = BeliefSet.closure_of(
        [class_of("p0", lang2), class_of("p0 -> p1", lang2)], lang2
    )
    assert k.encode() == ["11"]
    assert BeliefSet.closure_of([], lang2) == BeliefSet.trivial(lang2)


def test_input_set_dedup_and_parse(lang2):
    a = InputSet.of(lang2, "p0", "p0 & p0", "~~p0")
    assert len(a) == 1
    b = parse_input_set("p0, ~p1", lang2)
    assert len(b) == 2
    assert parse_input_set("  ", lang2) == InputSet.empty(lang2)
    assert class_of("p0", lang2) in b


def test_input_set_of_rejects_a_class_of_another_language(lang1, lang2):
    """{p0 over 1 atom, p1} would have the mask_tuple (1, 12) of a
    different 2-atom set, the one built below, and universe lookups go by
    mask_tuple."""
    with pytest.raises(LanguageError) as exc:
        InputSet.of(lang2, SentenceClass(lang1, 1), "p1")
    assert str(exc.value) == "class over 1 atoms in an input set over 2 atoms"
    a = InputSet.of(lang2, SentenceClass(lang2, 1), "p1")
    assert a.mask_tuple == (1, 12)


def test_input_set_encode_roundtrip(lang2):
    a = parse_input_set("p0, p1, F", lang2)
    assert InputSet.decode(a.encode(), lang2) == a
    assert a.mask_tuple == tuple(sorted(c.mask for c in a.classes))


def test_conj_all_and_pairwise(lang2):
    assert conj_all(InputSet.empty(lang2)).is_tautology
    a = parse_input_set("p0, p1", lang2)
    assert conj_all(a) == class_of("p0 & p1", lang2)
    b = parse_input_set("~p0", lang2)
    pc = pairwise_conj(a, b)
    assert pc == InputSet.of(lang2, "p0 & ~p0", "p1 & ~p0")
    # sets of classes: pairwise conj with itself keeps originals
    assert a.issubset(pairwise_conj(a, a))


def test_set_equiv(lang2):
    a = parse_input_set("p0, p1", lang2)
    b = parse_input_set("~~p0, p1 & p1", lang2)
    c = parse_input_set("p0", lang2)
    assert set_equiv(a, b)
    assert not set_equiv(a, c)


def test_enumerations(lang1, lang2):
    assert len(enumerate_classes(lang1)) == 4
    assert len(enumerate_belief_sets(lang1)) == 4
    assert len(enumerate_classes(lang2)) == 16
    assert len(enumerate_belief_sets(lang2)) == 16
    masks = [b.mask for b in enumerate_belief_sets(lang1)]
    assert masks == [0, 1, 2, 3]
