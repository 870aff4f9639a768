"""Acceptability orderings: postulates, lift/project, derivation, revision."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from choicerev import believability
from choicerev.believability import (
    QUASI_LINEAR_POSTULATES,
    STANDARD_POSTULATES,
    BelievabilityRelation,
    GenerationError,
    MultiBelievabilityRelation,
    RelationFormatError,
    RelationOperationError,
    RelationPostulateId,
    check_relation_postulate,
    derive_mb_from_operator,
    is_quasi_linear,
    lift,
    load_relation,
    project,
    random_quasi_linear,
    revise_via_mb,
    save_relation,
)
from choicerev.logic import (
    BeliefSet,
    InputSet,
    LanguageError,
    LanguageSpec,
    SentenceClass,
    class_of,
    parse_input_set,
)
from choicerev.models import ModelFlags, generate_model
from choicerev.operators import (
    BASIC_POSTULATES,
    SUPPLEMENTARY_POSTULATES,
    ChoiceOperator,
    OutsideUniverseError,
    UniverseSpec,
    _tables,
    enumerate_universe,
    passes,
    random_operator,
)
from choicerev.synthesis import footnote7_operator
from test_logic import conj_all
from test_relation_references import reference_member_equivalence


def sc(lang, mask):
    return SentenceClass(lang, mask)


def single_set(lang, mask):
    return InputSet.of(lang, SentenceClass(lang, mask))


def enumerate_quasi_linear(lang):
    """Every relation passing the seven quasi-linear postulates, by rows:
    each assignment of the classes to levels, read as layers."""
    c = lang.full_mask + 1
    rels = {
        BelievabilityRelation.from_layers(
            lang, [[m for m in range(c) if levels[m] == lv] for lv in sorted(set(levels))]
        )
        for levels in itertools.product(range(c), repeat=c)
    }
    return sorted((r for r in rels if is_quasi_linear(r)), key=lambda r: r.rows)


def is_standard(rel):
    return all(check_relation_postulate(rel, p).holds for p in STANDARD_POSTULATES)


def representation_element(mb, a):
    """A member exactly as acceptable as the nonempty set A, the smallest
    encoding first; RelationOperationError when there is none."""
    if len(a) == 0:
        raise ValueError("input set must be nonempty")
    found = [c for c in a if mb.equiv(InputSet.of(a.lang, c), a)]
    if not found:
        raise RelationOperationError("no representation element")
    return min(found, key=lambda c: c.encode())


def member_reduction_failures(rel):
    """The cells (A, B), both nonempty, where A >= B differs from "some
    {x} with x in A is >= B" or from "A >= {y} for every y in B": the
    singleton rows and columns gathered at every member slot."""
    u = rel.universe
    t = _tables(u)
    m = rel.table_over(u)
    single = t.singleton_index[t.member]
    some = (m[single] & t.valid[:, :, None]).any(axis=1)
    every = (m[:, single] | ~t.valid).all(axis=2)
    nonempty = t.sizes > 0
    return np.argwhere(nonempty[:, None] & nonempty & ((m != some) | (m != every)))


def failing_lemmas(rel):
    """The lemmas of the representation proofs that fail on rel, each
    checked from its definition.  Coupling collapse: completeness holds,
    and weak coupling and coupling agree."""
    comp, wc, cp = (
        check_relation_postulate(rel, p).holds
        for p in (RelationPostulateId.COMPLETENESS, RelationPostulateId.WEAK_COUPLING,
                  RelationPostulateId.COUPLING)
    )

    def represented(a):
        try:
            representation_element(rel, a)
        except RelationOperationError:
            return False
        return True

    holds = {
        "member_reduction": not len(member_reduction_failures(rel)),
        "coupling_collapse": comp and wc == cp,
        "representation_existence": all(
            represented(a) for a in _tables(rel.universe).sets if len(a)
        ),
        "member_equivalence": not reference_member_equivalence(rel),
    }
    return [name for name, ok in holds.items() if not ok]


def table_of(u, fn):
    """The table relation over u whose cell (a, b) is fn(a, b)."""
    sets = enumerate_universe(u)
    return MultiBelievabilityRelation.from_table(
        u, np.array([[fn(a, b) for b in sets] for a in sets], dtype=bool)
    )


# strict order at one atom: tautology, then p0, then its negation, then
# the contradiction (masks 3, 2, 1, 0)
@pytest.fixture(scope="module")
def strict_order():
    lang = LanguageSpec(1)
    return BelievabilityRelation.from_layers(lang, [[3], [2], [1], [0]])


def test_from_layers_holds(strict_order, lang1):
    r = strict_order
    assert r.holds(sc(lang1, 3), sc(lang1, 2))
    assert not r.holds(sc(lang1, 2), sc(lang1, 3))
    assert r.holds(sc(lang1, 2), sc(lang1, 2))
    assert r.layers() == [[3], [2], [1], [0]]


def test_from_matrix_roundtrip(strict_order, lang1):
    again = BelievabilityRelation.from_matrix(lang1, strict_order.matrix())
    assert again == strict_order


def test_from_layers_partition_guard(lang1):
    with pytest.raises(ValueError):
        BelievabilityRelation.from_layers(lang1, [[3], [2], [1]])
    with pytest.raises(ValueError):
        BelievabilityRelation.from_layers(lang1, [[3], [2], [1], [0], [0]])


def test_strict_order_is_quasi_linear(strict_order):
    assert is_quasi_linear(strict_order)
    for p in QUASI_LINEAR_POSTULATES:
        assert check_relation_postulate(strict_order, p).holds, p.value


def test_single_has_no_set_only_postulates(strict_order):
    with pytest.raises(ValueError):
        check_relation_postulate(strict_order, RelationPostulateId.DETERMINATION)
    with pytest.raises(ValueError):
        check_relation_postulate(strict_order, RelationPostulateId.UNION)


def test_coupling_violation_detected(lang1):
    # the two middle classes tie, but their conjunction is strictly above
    r = BelievabilityRelation.from_layers(lang1, [[3], [1, 2], [0]])
    rep = check_relation_postulate(r, RelationPostulateId.COUPLING)
    assert not rep.holds
    assert rep.witness is not None
    assert not is_quasi_linear(r)


def test_reverse_entailment_relation(lang2):
    # easier to accept whatever is logically weaker
    c = lang2.full_mask + 1
    m = np.zeros((c, c), dtype=bool)
    for i in range(c):
        for j in range(c):
            m[i, j] = j & ~i & lang2.full_mask == 0
    r = BelievabilityRelation.from_matrix(lang2, m)
    for p in QUASI_LINEAR_POSTULATES:
        rep = check_relation_postulate(r, p)
        if p == RelationPostulateId.COMPLETENESS:
            assert not rep.holds
            a, b = rep.witness.items
            assert not a.entails(b) and not b.entails(a)
        else:
            assert rep.holds, p.value
    assert not is_quasi_linear(r)


def test_minimality_violation(lang1):
    # contradiction in the bottom layer: universal rows are not a
    # consistent theory
    r = BelievabilityRelation.from_layers(lang1, [[0, 3], [1, 2]])
    rep = check_relation_postulate(r, RelationPostulateId.MINIMALITY)
    assert not rep.holds


def test_maximality_violation(lang1):
    r = BelievabilityRelation.from_layers(lang1, [[3], [1, 0], [2]])
    rep = check_relation_postulate(r, RelationPostulateId.MAXIMALITY)
    assert not rep.holds


def test_enumerate_quasi_linear_frozen(lang1):
    rels = enumerate_quasi_linear(lang1)
    assert len(rels) == 4
    assert all(is_quasi_linear(r) for r in rels)
    layerings = {tuple(tuple(sorted(l)) for l in r.layers()) for r in rels}
    assert layerings == {
        ((3,), (2,), (1,), (0,)),
        ((3,), (1,), (2,), (0,)),
        ((1, 3), (2,), (0,)),
        ((2, 3), (1,), (0,)),
    }


def test_random_quasi_linear(lang1, lang2):
    for lang in (lang1, lang2):
        for seed in range(15):
            r = random_quasi_linear(seed, lang)
            assert is_quasi_linear(r)
    assert random_quasi_linear(3, lang2) == random_quasi_linear(3, lang2)
    assert random_quasi_linear(3, lang2) != random_quasi_linear(4, lang2)


def test_random_quasi_linear_refuses_three_atoms_before_drawing(lang3, monkeypatch):
    def no_draw(layers):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(believability, "_merge_for_coupling", no_draw)
    with pytest.raises(LanguageError, match="1 or 2 atoms, got 3"):
        random_quasi_linear(7, lang3)


def test_random_quasi_linear_draws_pinned(lang1, lang2):
    """The 1- and 2-atom draws for seeds 0-49, pinned by digest: the
    benchmark's translation inputs and artifact digests are built from
    them, so a change to the generator must leave them as they are."""
    h = hashlib.sha256()
    for lang in (lang1, lang2):
        for seed in range(50):
            h.update(repr(random_quasi_linear(seed, lang).rows).encode())
    assert h.hexdigest() == (
        "9cd7712df97a8896e568dbba86dfb12fb5b54c9b52d602f2bf607b605e5e4f33"
    )


def test_lift_empty_set_semantics(strict_order, lang1):
    mb = lift(strict_order, 2)
    empty = InputSet.empty(lang1)
    some = single_set(lang1, 2)
    assert mb.holds(some, empty)
    assert mb.holds(empty, empty)
    assert not mb.holds(empty, some)
    assert mb.strictly(some, empty)


def test_lift_best_member(strict_order, lang1):
    mb = lift(strict_order, 2)
    both = parse_input_set("p0, ~p0", lang1)
    neg = parse_input_set("~p0", lang1)
    # the stronger member p0 carries the set
    assert mb.holds(both, neg)
    assert not mb.holds(neg, both)


def test_lift_is_standard_and_projects_back(lang1, lang2, u1, u2):
    for lang, u in ((lang1, u1), (lang2, u2)):
        for seed in range(4):
            r = random_quasi_linear(seed, lang)
            mb = lift(r, u.max_input_size)
            assert is_standard(mb)
            assert project(mb) == r


def test_package_vs_lift_disagree(strict_order, lang1):
    both = parse_input_set("p0, ~p0", lang1)
    neg = parse_input_set("~p0", lang1)
    taut = parse_input_set("T", lang1)
    # whole-package reading collapses the inconsistent pair to the
    # contradiction; best-member reading keeps it at p0's level
    assert not strict_order.holds(conj_all(both), conj_all(neg))
    assert lift(strict_order, 2).holds(both, neg)
    # empty set packages as the tautology
    assert strict_order.holds(conj_all(InputSet.empty(lang1)), conj_all(taut))


@pytest.fixture(scope="module")
def induced_op2():
    lang = LanguageSpec(2)
    m = generate_model(21, lang, 7, ModelFlags(has_X3=True, has_leq3=True))
    return ChoiceOperator.from_model(m, max_input_size=2)


def test_derived_relation_postulates(induced_op2):
    assert passes(induced_op2, BASIC_POSTULATES)
    assert passes(induced_op2, SUPPLEMENTARY_POSTULATES)
    rel = derive_mb_from_operator(induced_op2)
    assert rel.universe == induced_op2.universe
    assert is_standard(rel)


def test_derived_table_matches_broadcast_and_is_c_ordered(induced_op2):
    # the closure spread by one 2-D broadcast index, which yields a
    # C-ordered table; the derived table must equal it in value and order
    for op in (induced_op2, random_operator(0, induced_op2.universe)):
        k = op._kernel()
        reach = k.reach | np.eye(len(k.uniq), dtype=bool)
        want = (~k.diag)[None, :] | (k.diag[:, None] & reach[k.inv[:, None], k.inv[None, :]])
        got = derive_mb_from_operator(op).table_over(op.universe)
        assert got.flags["C_CONTIGUOUS"]
        assert got.tobytes() == want.tobytes()


def test_derived_relation_regenerates_operator(induced_op2):
    rel = derive_mb_from_operator(induced_op2)
    k = induced_op2.K
    for a in enumerate_universe(induced_op2.universe):
        assert revise_via_mb(rel, k, a) == induced_op2.outcome(a)


def test_revise_via_mb_worked_example(strict_order, lang1):
    mb = lift(strict_order, 2)
    k = BeliefSet.trivial(lang1)
    assert revise_via_mb(mb, k, InputSet.empty(lang1)) == k
    assert revise_via_mb(mb, k, parse_input_set("T", lang1)) == k
    neg = revise_via_mb(mb, k, parse_input_set("~p0", lang1))
    assert neg == BeliefSet.decode(["0"], lang1)
    # with both literals offered, the more acceptable one wins
    both = revise_via_mb(mb, k, parse_input_set("p0, ~p0", lang1))
    assert both == BeliefSet.decode(["1"], lang1)


def test_representation_element(strict_order, lang1):
    mb = lift(strict_order, 2)
    p0 = class_of("p0", lang1)
    assert representation_element(mb, single_set(lang1, 2)) == p0
    both = parse_input_set("p0, ~p0", lang1)
    assert representation_element(mb, both) == p0
    with pytest.raises(ValueError):
        representation_element(mb, InputSet.empty(lang1))


# rank-based relation at one atom: sets containing the tautology (or both
# literals) rank highest; otherwise the best member decides.  Satisfies
# the first three set-level postulates yet set comparisons do not reduce
# to members: {p0, ~p0} outranks {T} while neither literal alone does.
def _rank(a):
    masks = set(a.mask_tuple)
    if 3 in masks or {1, 2} <= masks:
        return 0
    return min({3: 0, 2: 1, 1: 1, 0: 2}[m] for m in masks)


def rank_trap_holds(a, b):
    if len(b) == 0:
        return True
    if len(a) == 0:
        return False
    return _rank(a) <= _rank(b)


@pytest.fixture(scope="module")
def rank_trap(u1):
    return table_of(u1, rank_trap_holds)


def test_rank_trap_antecedents(rank_trap):
    for p in (
        RelationPostulateId.DETERMINATION,
        RelationPostulateId.TRANSITIVITY,
        RelationPostulateId.COUNTER_DOMINANCE,
    ):
        assert check_relation_postulate(rank_trap, p).holds, p.value
    union = check_relation_postulate(rank_trap, RelationPostulateId.UNION)
    assert not union.holds


def test_rank_trap_breaks_member_reduction(rank_trap, lang1, u1):
    # the concrete failing instance
    both = parse_input_set("p0, ~p0", lang1)
    taut = parse_input_set("T", lang1)
    t = _tables(u1)
    assert [t.lookup(both), t.lookup(taut)] in member_reduction_failures(rank_trap).tolist()
    assert rank_trap.holds(both, taut)
    assert not rank_trap.holds(parse_input_set("p0", lang1), taut)
    assert not rank_trap.holds(parse_input_set("~p0", lang1), taut)


def test_rank_trap_has_no_representation_element(rank_trap, lang1):
    assert "representation_existence" in failing_lemmas(rank_trap)
    with pytest.raises(RelationOperationError):
        representation_element(rank_trap, parse_input_set("p0, ~p0", lang1))


def test_metatheorems_on_standard_relations(lang2, u2):
    for seed in range(4):
        mb = lift(random_quasi_linear(seed, lang2), u2.max_input_size)
        assert is_standard(mb)
        assert failing_lemmas(mb) == []


def test_equivalence_preserves_outcome(induced_op2):
    """Equally ranked inputs of the derived relation get identical outcomes."""
    m = derive_mb_from_operator(induced_op2).table_over(induced_op2.universe)
    out = induced_op2._kernel().out
    assert not (m & m.T & (out[:, None] != out[None, :])).any()


def test_single_relation_json_roundtrip(tmp_path, strict_order):
    p = tmp_path / "rel.json"
    save_relation(strict_order, str(p))
    again = load_relation(str(p))
    assert again == strict_order


def test_multi_relation_json_roundtrip(tmp_path, induced_op2):
    rel = derive_mb_from_operator(induced_op2)
    p = tmp_path / "mrel.json"
    save_relation(rel, str(p))
    data = json.loads(p.read_text())
    assert data["kind"] == "multi"
    assert data["max_input_size"] == 2
    again = load_relation(str(p))
    u = induced_op2.universe
    assert np.array_equal(again.table_over(u), rel.table_over(u))


def test_multi_relation_json_size_inference(tmp_path, induced_op2):
    rel = derive_mb_from_operator(induced_op2)
    p = tmp_path / "mrel.json"
    save_relation(rel, str(p))
    data = json.loads(p.read_text())
    del data["max_input_size"]
    p.write_text(json.dumps(data))
    again = load_relation(str(p))
    assert again.universe.max_input_size == 2


def test_relation_json_errors(tmp_path, strict_order):
    p = tmp_path / "bad.json"
    p.write_text('{"atoms": 1, "kind": "single"')
    with pytest.raises(RelationFormatError, match="line"):
        load_relation(str(p))

    p.write_text(json.dumps({"atoms": 1, "kind": "diagonal", "pairs": []}))
    with pytest.raises(RelationFormatError, match="kind"):
        load_relation(str(p))

    p.write_text(
        json.dumps(
            {
                "atoms": 1,
                "kind": "multi",
                "max_input_size": 1,
                "pairs": [[[["0"], ["1"]], [["1"]]]],
            }
        )
    )
    with pytest.raises(RelationFormatError, match="pair 0"):
        load_relation(str(p))


def test_project_of_fn_built_relations(rank_trap, lang1, u1):
    """project reads a table relation's own answers over its universe,
    which must hold the singletons."""
    one = [single_set(lang1, x) for x in range(4)]

    def singleton_queries(mb):
        m = np.array([[mb.holds(a, b) for b in one] for a in one])
        return BelievabilityRelation.from_matrix(lang1, m)

    singletons = table_of(UniverseSpec(lang1, 1), rank_trap_holds)
    for mb in (rank_trap, singletons):
        got = project(mb)
        assert got == singleton_queries(mb)
        # {p0} and {~p0} tie, both below {T} and above {F}
        assert got.rows == (0b0001, 0b0111, 0b0111, 0b1111)
    no_singletons = table_of(UniverseSpec(lang1, 0), rank_trap_holds)
    with pytest.raises(OutsideUniverseError):
        project(no_singletons)


@pytest.mark.parametrize("call", [
    lambda op, rel, a: op.outcome(a),
    lambda op, rel, a: rel.holds(a, InputSet.empty(rel.lang)),
    lambda op, rel, a: rel.holds(InputSet.empty(rel.lang), a),
    lambda op, rel, a: revise_via_mb(rel, op.K, a),
], ids=["outcome", "holds-left", "holds-right", "revise_via_mb"])
def test_other_language_input_is_outside_the_universe(call):
    """The 1-atom input p0 has mask tuple (2,), which names the 2-atom
    set {p0 & ~p1} of the operator's universe."""
    op = random_operator(0, UniverseSpec(LanguageSpec(2), 2))
    with pytest.raises(OutsideUniverseError):
        call(op, derive_mb_from_operator(op), parse_input_set("p0", LanguageSpec(1)))


@pytest.mark.parametrize("call, message", [
    (lambda r, op: r.holds(sc(LanguageSpec(3), 5), sc(r.lang, 0)),
     "class over 3 atoms in a relation over 2 atoms"),
    (lambda r, op: r.holds(sc(r.lang, 15), sc(LanguageSpec(1), 1)),
     "class over 1 atoms in a relation over 2 atoms"),
    (lambda r, op: r.equiv(sc(LanguageSpec(1), 1), sc(r.lang, 1)),
     "class over 1 atoms in a relation over 2 atoms"),
    (lambda r, op: sc(r.lang, 5).conj(sc(LanguageSpec(1), 1)),
     "class over 1 atoms in a conjunction over 2 atoms"),
    (lambda r, op: op.outcome(sc(r.lang, 5)),
     "class over 2 atoms in an operator over 3 atoms"),
], ids=["holds-3-atoms", "holds-1-atom", "equiv", "conj", "sentential-outcome"])
def test_class_over_another_language_is_refused(call, message):
    """A class's mask names another class of another language, so a
    table read by it would answer for that class: the 2-atom relation,
    a 2-atom class and the 3-atom footnote 7 table refuse it."""
    with pytest.raises(LanguageError) as info:
        call(random_quasi_linear(3, LanguageSpec(2)), footnote7_operator())
    assert str(info.value) == message


def test_lift_answers_inputs_of_its_own_language_only():
    """A lift is tabled over one universe, so an input over another
    language is outside it, as for any table relation."""
    lang2 = LanguageSpec(2)
    mb = lift(random_quasi_linear(1, lang2), 2)
    p0_1 = parse_input_set("p0", LanguageSpec(1))
    with pytest.raises(OutsideUniverseError):
        mb.holds(parse_input_set("p0", lang2), p0_1)
    with pytest.raises(OutsideUniverseError):
        revise_via_mb(mb, BeliefSet.trivial(lang2), p0_1)


def test_lift_above_the_universe_cap_raises():
    r = random_quasi_linear(0, LanguageSpec(2))
    with pytest.raises(LanguageError, match="universe cap"):
        lift(r, 4)
    assert lift(r, 3).universe.size == 697


def test_outside_universe_message_names_the_cause(u2):
    op = random_operator(0, u2)
    with pytest.raises(OutsideUniverseError) as info:
        op.outcome(parse_input_set("p0", LanguageSpec(1)))
    assert info.value.args[0] == (
        "input set over 1 atoms is outside the bounded universe over 2 atoms"
    )
    with pytest.raises(OutsideUniverseError) as info:
        op.outcome(parse_input_set("p0, p1, p0 & p1", u2.lang))
    assert info.value.args[0] == "input set of size 3 is outside the bounded universe"


def test_table_over_answers_for_its_own_universe_only(u2):
    rel = derive_mb_from_operator(random_operator(0, u2))
    assert rel.table_over(u2).shape == (137, 137)
    for other in (UniverseSpec(LanguageSpec(1), 2), UniverseSpec(u2.lang, 1)):
        with pytest.raises(ValueError) as info:
            rel.table_over(other)
        assert str(u2) in str(info.value) and str(other) in str(info.value)
