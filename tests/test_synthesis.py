"""Model synthesis, representation round trips, the three-clause table."""

import hashlib
import json
import random
import time

import numpy as np
import pytest
from test_believability import is_standard
from test_kernel import _first_mixed_loop

from choicerev.believability import (
    BelievabilityRelation,
    derive_mb_from_operator,
    random_quasi_linear,
)
from choicerev.logic import (
    BeliefSet,
    InputSet,
    LanguageError,
    LanguageSpec,
    SentenceClass,
    class_of,
    entails,
)
from choicerev.models import (
    ModelFlags,
    check_extended_conditions,
    generate_model,
    validate_model,
)
from choicerev.operators import (
    BASIC_POSTULATES,
    ChoiceOperator,
    _ClassTables,
    PostulateId,
    UniverseSpec,
    check_postulate,
    enumerate_universe,
    random_operator,
)
from choicerev.synthesis import (
    SENTENTIAL_CORE,
    SententialOperator,
    SententialPostulateId,
    SynthesisError,
    check_sentential_postulates,
    footnote7_operator,
    synthesize_model,
    verify_roundtrip_model,
    verify_roundtrip_relation,
    verify_translation,
)
from choicerev.models import choice_revise_via_model


@pytest.fixture(scope="module")
def flags_op():
    lang = LanguageSpec(2)
    m = generate_model(33, lang, 9, ModelFlags(has_X3=True, has_leq3=True))
    return ChoiceOperator.from_model(m, max_input_size=2)


@pytest.fixture(scope="module")
def plain_op():
    lang = LanguageSpec(2)
    m = generate_model(8, lang, 4, ModelFlags(has_X3=False, has_leq3=False))
    return ChoiceOperator.from_model(m, max_input_size=2)


def test_synthesize_model_regenerates(plain_op):
    model = synthesize_model(plain_op)
    assert validate_model(model).passed
    for a in enumerate_universe(plain_op.universe):
        assert choice_revise_via_model(model, a) == plain_op.outcome(a)


def test_synthesize_rejects_bad_operator(u2):
    for seed in range(50):
        op = random_operator(seed, u2)
        if all(check_postulate(op, p).holds for p in BASIC_POSTULATES):
            continue
        with pytest.raises(SynthesisError) as exc:
            synthesize_model(op)
        assert "postulate violation" in str(exc.value)
        assert any(not r.holds for r in exc.value.reports.values())
        return
    pytest.fail("every random operator passed the basic postulates")


def test_roundtrip_model_report(plain_op):
    report = verify_roundtrip_model(plain_op)
    assert report.theorem == 1
    assert report.passed
    assert report.witness is None
    assert report.artifact is not None
    assert report.universe == {"atoms": 2, "max_input_size": 2, "input_sets": 137}
    # deterministic artifact hash
    again = verify_roundtrip_model(plain_op)
    assert report.artifact_hash == again.artifact_hash
    assert len(report.artifact_hash) == 64


def test_roundtrip_model_failure_witness(u2):
    for seed in range(50):
        op = random_operator(seed, u2)
        if all(check_postulate(op, p).holds for p in BASIC_POSTULATES):
            continue
        report = verify_roundtrip_model(op)
        assert not report.passed
        assert report.witness["kind"] == "postulate"
        return
    pytest.fail("no failing operator found")


def test_roundtrip_extended_flags(flags_op):
    report = verify_roundtrip_model(flags_op, require_extended=True)
    assert report.theorem == 2
    assert report.passed
    model = synthesize_model(flags_op)
    assert check_extended_conditions(model) == ModelFlags(True, True)


def test_roundtrip_extended_rejects_plain(plain_op):
    # misses the supplementary postulates, so the extended round trip
    # must fail up front
    report = verify_roundtrip_model(plain_op, require_extended=True)
    assert not report.passed
    assert report.witness["kind"] == "postulate"


def test_roundtrip_relation_theorem4(plain_op):
    report = verify_roundtrip_relation(plain_op)
    assert report.theorem == 4
    assert report.passed, report.witness
    assert report.artifact is not None


def test_roundtrip_relation_theorem5(flags_op):
    report = verify_roundtrip_relation(flags_op, standard=True)
    assert report.theorem == 5
    assert report.passed, report.witness
    rel = derive_mb_from_operator(flags_op)
    assert is_standard(rel)


def test_roundtrip_relation_gate(plain_op):
    report = verify_roundtrip_relation(plain_op, standard=True)
    assert not report.passed
    assert report.witness["kind"] == "postulate"


@pytest.mark.parametrize("atoms, max_input_size", [(3, 1), (2, 3)])
def test_roundtrip_relation_theorem4_full_size(atoms, max_input_size):
    """n=257 and n=697: the relation side runs at the battery's sizes."""
    lang = LanguageSpec(atoms)
    m = generate_model(1, lang, 6, ModelFlags(has_X3=False, has_leq3=False))
    op = ChoiceOperator.from_model(m, max_input_size)
    report = verify_roundtrip_relation(op)
    assert report.theorem == 4
    assert report.passed, report.witness
    assert report.universe["input_sets"] == op.universe.size


def test_roundtrip_relation_theorem5_n697(lang2):
    m = generate_model(1, lang2, 8, ModelFlags(has_X3=True, has_leq3=True))
    op = ChoiceOperator.from_model(m, max_input_size=3)
    report = verify_roundtrip_relation(op, standard=True)
    assert report.theorem == 5
    assert report.universe["input_sets"] == 697
    assert report.passed, report.witness


def test_roundtrip_relation_gate_n697(lang2):
    op = random_operator(0, UniverseSpec(lang2, 3))
    report = verify_roundtrip_relation(op, standard=True)
    assert not report.passed
    assert report.witness["kind"] == "postulate"


def test_theorem5_needs_pair_inputs(lang2):
    """With singleton inputs only (k=1), theorem 5 fails completeness for
    some has_X3/has_leq3 models; the same models pass at k=2, and
    theorem 4, which does not ask for completeness, passes at k=1.

    The incomparable pair is two singletons: no singleton input links
    their outcomes, so the table does not reveal their order.
    """
    failed = 0
    for seed in range(40):
        m = generate_model(seed, lang2, 6 + seed % 7, ModelFlags(True, True))
        k1 = ChoiceOperator.from_model(m, max_input_size=1)
        assert verify_roundtrip_relation(k1).passed, seed
        assert verify_roundtrip_relation(
            ChoiceOperator.from_model(m, max_input_size=2), standard=True
        ).passed, seed
        report = verify_roundtrip_relation(k1, standard=True)
        if report.passed:
            continue
        failed += 1
        assert report.detail == "derived relation fails completeness", seed
        items = report.witness["witness"]["items"]
        assert [len(a) for a in items] == [1, 1], seed
    assert failed == 17
    # the same at three atoms, n=257
    m = generate_model(2, LanguageSpec(3), 12, ModelFlags(True, True))
    report = verify_roundtrip_relation(ChoiceOperator.from_model(m, 1), standard=True)
    assert report.detail == "derived relation fails completeness"


def test_derived_relation_maximality_needs_consistency(u2, lang2):
    """Mapping a satisfiable input to the inconsistent theory plants a
    second top element in the derived ordering."""
    lang = lang2
    m = generate_model(40, lang, 6, ModelFlags(has_X3=True, has_leq3=True))
    bottom = BeliefSet.inconsistent(lang)
    target = class_of("p0 & p1", lang).mask

    def warped(a):
        if a.mask_tuple == (target,):
            return bottom
        return choice_revise_via_model(m, a)

    op = ChoiceOperator.from_function(UniverseSpec(lang, 2), m.K, warped)
    report = verify_roundtrip_relation(op, standard=True)
    assert not report.passed


def test_translation_quasi_linear(lang2):
    r = random_quasi_linear(2, lang2)
    report = verify_translation(r)
    assert report.theorem == 3
    assert report.passed, report.witness
    assert report.universe["max_input_size"] == 2


def test_translation_rejects_incomplete(lang2):
    c = lang2.full_mask + 1
    m = np.zeros((c, c), dtype=bool)
    for i in range(c):
        for j in range(c):
            m[i, j] = j & ~i & lang2.full_mask == 0
    r = BelievabilityRelation.from_matrix(lang2, m)
    report = verify_translation(r)
    assert not report.passed
    assert report.witness["postulate"] == "completeness"


def test_translation_multi_direction(flags_op):
    rel = derive_mb_from_operator(flags_op)
    report = verify_translation(rel)
    assert report.theorem == 3
    assert report.passed, report.witness


def test_translation_multi_rejects_nonstandard(u1, lang1):
    rank = {3: 0, 2: 1, 1: 1, 0: 2}
    t_sets = enumerate_universe(u1)
    n = len(t_sets)

    def f(a):
        masks = set(a.mask_tuple)
        if 3 in masks or {1, 2} <= masks:
            return 0
        return min(rank[m] for m in masks)

    m = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(t_sets):
        for j, b in enumerate(t_sets):
            if len(b) == 0:
                m[i, j] = True
            elif len(a) == 0:
                m[i, j] = False
            else:
                m[i, j] = f(a) <= f(b)
    from choicerev.believability import MultiBelievabilityRelation

    rel = MultiBelievabilityRelation.from_table(u1, m)
    report = verify_translation(rel)
    assert not report.passed
    assert report.witness["kind"] == "relation_postulate"


# ---------------------------------------------------------------------------
# Single-sentence operators
# ---------------------------------------------------------------------------


def test_footnote7_language_guard():
    with pytest.raises(LanguageError, match="too small"):
        footnote7_operator(LanguageSpec(2))


def test_footnote7_clause_examples(lang3):
    op = footnote7_operator()
    assert op.lang.atom_count == 3
    assert op.K == BeliefSet.trivial(lang3)

    conj01 = class_of("p0 & p1", lang3)
    conj12 = class_of("p1 & p2", lang3)
    conj02 = class_of("p0 & p2", lang3)

    # inputs squeezed between a conjunction and its designated atom
    assert op.outcome(class_of("p0", lang3)).mask == conj01.mask
    assert op.outcome(class_of("p1", lang3)).mask == conj12.mask
    assert op.outcome(class_of("p2", lang3)).mask == conj02.mask
    assert op.outcome(conj01).mask == conj01.mask
    # everything else: its own closure
    assert op.outcome(class_of("T", lang3)) == BeliefSet.trivial(lang3)
    assert op.outcome(class_of("F", lang3)) == BeliefSet.inconsistent(lang3)
    assert op.outcome(class_of("~p0", lang3)).mask == class_of("~p0", lang3).mask


def test_footnote7_clauses_mutually_exclusive(lang3):
    # at most one squeeze clause fires per class
    p = [class_of(f"p{i}", lang3).mask for i in range(3)]
    pairs = [(p[0] & p[1], p[0]), (p[1] & p[2], p[1]), (p[0] & p[2], p[2])]
    for m in range(lang3.full_mask + 1):
        firing = [
            i
            for i, (conj, single) in enumerate(pairs)
            if conj & ~m == 0 and m & ~single == 0
        ]
        assert len(firing) <= 1, (m, firing)


def test_footnote7_battery(lang3):
    op = footnote7_operator()
    reports = check_sentential_postulates(op)
    for p in SENTENTIAL_CORE:
        assert reports[p].holds, p.value
    assert reports[SententialPostulateId.EXTENSIONALITY].holds
    strong = reports[SententialPostulateId.STRONG_RECIPROCITY]
    assert not strong.holds
    w = strong.witness
    assert w is not None
    assert len(w.items) >= 3
    # the loop is genuine: each input follows from the next outcome, and
    # at least two outcomes differ
    k = len(w.items)
    for i in range(k):
        assert entails(w.outcomes[(i + 1) % k], w.items[i])
    assert len({o.mask for o in w.outcomes}) > 1


def _sentential_ops():
    """footnote 7, the own-closure operator, model-induced operators and
    random tables at 2 and 3 atoms."""
    ops = [footnote7_operator()]
    for atoms in (2, 3):
        lang = LanguageSpec(atoms)
        ops.append(SententialOperator.from_function(
            lang, BeliefSet.trivial(lang), lambda c, lang=lang: BeliefSet(lang, c.mask)
        ))
        m = generate_model(5, lang, (1 << atoms) + 2, ModelFlags(has_X3=True, has_leq3=True))
        ops.append(SententialOperator.from_function(
            lang, m.K, lambda c, m=m: choice_revise_via_model(m, InputSet(lang, frozenset({c})))
        ))
        for seed in range(6):
            rng = random.Random(seed)
            # a few distinct outcomes, so that some tables have no mixed loop
            pool = [BeliefSet(lang, rng.randrange(lang.full_mask + 1)) for _ in range(seed % 3 + 1)]
            k = BeliefSet(lang, rng.randrange(1, lang.full_mask + 1))
            ops.append(SententialOperator.from_function(lang, k, lambda c, p=pool, r=rng: r.choice(p)))
    return ops


def _sentential_corpus():
    """`_sentential_ops()`, the same kinds of table at 1 atom, the table a
    model induces for every flag pair at 1-3 atoms, one-entry flips of
    those structured tables, and random tables over pools of 1-4 drawn
    outcomes, or of as many as there are classes, from more seeds at 1-3
    atoms."""
    ops = _sentential_ops()
    for atoms in (1, 2, 3):
        lang = LanguageSpec(atoms)
        c = lang.full_mask + 1
        own = SententialOperator.from_function(
            lang, BeliefSet.trivial(lang), lambda x, lang=lang: BeliefSet(lang, x.mask)
        )
        models = []
        for flags in (ModelFlags(x3, leq3) for x3 in (False, True) for leq3 in (False, True)):
            m = generate_model(atoms, lang, (1 << atoms) + flags.has_X3, flags)
            models.append(SententialOperator.from_function(
                lang, m.K, lambda x, m=m: choice_revise_via_model(m, InputSet(lang, frozenset({x})))
            ))
        # footnote 7 and the own-closure tables at 2 and 3 atoms are in
        # _sentential_ops()
        ops += models + ([own] if atoms == 1 else [])
        for op in [own] + models + ([footnote7_operator()] if atoms == 3 else []):
            for i in range(1, c, max(1, c // 5)):
                outputs = list(op.outputs)
                outputs[i] = BeliefSet(lang, outputs[i].mask ^ 1)
                ops.append(SententialOperator(op.K, tuple(outputs)))
        for seed in range({1: 200, 2: 300, 3: 200}[atoms]):
            rng = random.Random(1000 * atoms + seed)
            size = seed % 5 + 1 if seed % 5 < 4 else c
            pool = [BeliefSet(lang, rng.randrange(c)) for _ in range(size)]
            k = BeliefSet(lang, rng.randrange(1, c))
            ops.append(SententialOperator.from_function(lang, k, lambda _, p=pool, r=rng: r.choice(p)))
    return ops


# Every verdict, count and witness of the sentential battery on
# `_sentential_corpus()`, as the battery gave them with its own
# postulate code, before it ran the set-level checkers.
SENTENTIAL_REPORT_DIGEST = "efdd92b20b4eccd5f5d3d676aa246e116dd8369d720b33d942d7d39a11227fc0"


def test_sentential_report_digest_pinned():
    h = hashlib.sha256()
    for op in _sentential_corpus():
        reports = check_sentential_postulates(op)
        h.update(json.dumps([reports[p].to_dict() for p in SententialPostulateId]).encode())
    assert h.hexdigest() == SENTENTIAL_REPORT_DIGEST


def test_sentential_strong_reciprocity_matches_reference():
    """The loop is the seed's: edge-by-edge Tarjan over the membership
    graph, built here from `entails`, and BFS there and back inside the
    first mixed component."""
    verdicts = set()
    for op in _sentential_ops():
        c = op.lang.full_mask + 1
        classes = [SentenceClass(op.lang, x) for x in range(c)]
        member = np.array([[entails(o, x) for o in op.outputs] for x in classes])
        cycle = _first_mixed_loop(member, [o.mask for o in op.outputs])
        strong = check_sentential_postulates(op)[SententialPostulateId.STRONG_RECIPROCITY]
        assert strong.holds == (cycle is None)
        if cycle is not None:
            assert strong.witness.items == tuple(classes[i] for i in cycle)
            assert strong.witness.outcomes == tuple(op.outputs[i] for i in cycle)
        verdicts.add(strong.holds)
    assert verdicts == {True, False}


def _sentential_relative_success(op):
    """(holds, checked, first witness): every outcome is K or contains its
    input."""
    classes = [SentenceClass(op.lang, x) for x in range(op.lang.full_mask + 1)]
    for x in classes:
        if op.outcome(x) != op.K and not entails(op.outcome(x), x):
            return False, len(classes), (x,)
    return True, len(classes), None


def _sentential_confirmation(op):
    """(holds, checked, first witness): an input that K already contains
    leaves K unchanged."""
    classes = [SentenceClass(op.lang, x) for x in range(op.lang.full_mask + 1)]
    for x in classes:
        if entails(op.K, x) and op.outcome(x) != op.K:
            return False, len(classes), (x,)
    return True, len(classes), None


def _sentential_regularity(op):
    """(holds, checked, first witness): an input that some input's outcome
    contains is in its own outcome."""
    classes = [SentenceClass(op.lang, x) for x in range(op.lang.full_mask + 1)]
    out = [op.outcome(x) for x in classes]
    for x in classes:
        for y in classes:
            if entails(out[y.mask], x) and not entails(out[x.mask], x):
                return False, len(classes) ** 2, (x, y)
    return True, len(classes) ** 2, None


def _sentential_reciprocity(op):
    """(holds, checked, first witness): two inputs each in the other's
    outcome have the same outcome."""
    classes = [SentenceClass(op.lang, x) for x in range(op.lang.full_mask + 1)]
    out = [op.outcome(x) for x in classes]
    for x in classes:
        for y in classes:
            if (
                entails(out[y.mask], x)
                and entails(out[x.mask], y)
                and out[x.mask] != out[y.mask]
            ):
                return False, len(classes) ** 2, (x, y)
    return True, len(classes) ** 2, None


_SENTENTIAL_DEFINITIONS = (
    (SententialPostulateId.RELATIVE_SUCCESS, _sentential_relative_success),
    (SententialPostulateId.CONFIRMATION, _sentential_confirmation),
    (SententialPostulateId.REGULARITY, _sentential_regularity),
    (SententialPostulateId.RECIPROCITY, _sentential_reciprocity),
)


def test_sentential_checkers_match_definitions():
    """Verdict, count and first witness in scan order of relative success,
    confirmation, regularity and reciprocity, against loops over each
    definition, on the whole corpus; each postulate shows both verdicts."""
    verdicts = {p: set() for p, _ in _SENTENTIAL_DEFINITIONS}
    for op in _sentential_corpus():
        reports = check_sentential_postulates(op)
        for p, reference in _SENTENTIAL_DEFINITIONS:
            r = reports[p]
            items = r.witness.items if r.witness else None
            assert (r.holds, r.checked, items) == reference(op), p.value
            if items:
                assert r.witness.outcomes == tuple(map(op.outcome, items)), p.value
            verdicts[p].add(r.holds)
    assert all(v == {True, False} for v in verdicts.values()), verdicts


def test_own_closure_operator_passes_everything(lang3):
    op = SententialOperator.from_function(
        lang3,
        BeliefSet.trivial(lang3),
        lambda c: BeliefSet(lang3, c.mask),
    )
    reports = check_sentential_postulates(op)
    assert all(r.holds for r in reports.values())


def test_sentential_closure_flags_outcome_over_another_language(lang2, lang3):
    """The own-closure table at 3 atoms with one outcome over 2 atoms, of
    the same mask: closure fails and names that class, and the other
    postulates, which read masks only, still hold."""
    x = 6
    foreign = BeliefSet(lang2, x)
    op = SententialOperator(
        BeliefSet.trivial(lang3),
        tuple(foreign if m == x else BeliefSet(lang3, m) for m in range(lang3.full_mask + 1)),
    )
    reports = check_sentential_postulates(op)
    closure = reports.pop(SententialPostulateId.CLOSURE)
    assert not closure.holds and closure.checked == lang3.full_mask + 1
    assert closure.witness.items == (SentenceClass(lang3, x),)
    assert closure.witness.outcomes[0] is foreign
    assert all(r.holds for r in reports.values())


def test_sentential_battery_reads_no_conjunction_table(monkeypatch):
    """The battery runs on the class layout's entailment table alone: the
    conjunction index and table, which only relation checks read, are
    never touched (a property outranks a value already cached)."""
    def unread(layout):
        raise AssertionError("conjunction table read")

    monkeypatch.setattr(_ClassTables, "conj_index", property(unread))
    monkeypatch.setattr(_ClassTables, "conj_table", property(unread))
    for op in _sentential_ops():
        check_sentential_postulates(op)


def test_sentential_operator_needs_exhaustive_language():
    """A 4-atom table (65536 classes) is refused when it is made, not when
    its check builds class-by-class tables."""
    lang = LanguageSpec(4)
    k = BeliefSet.trivial(lang)
    outputs = (k,) * (lang.full_mask + 1)
    start = time.perf_counter()
    with pytest.raises(LanguageError, match="exhaustive"):
        SententialOperator(k, outputs)
    assert time.perf_counter() - start < 1


def test_sentential_inconsistent_k_rejected(lang3):
    with pytest.raises(ValueError):
        SententialOperator.from_function(
            lang3,
            BeliefSet.inconsistent(lang3),
            lambda c: BeliefSet(lang3, c.mask),
        )
