"""End-to-end acceptance gate.

Each test exercises one release criterion over a deterministic corpus and
prints a single pass/fail line.  Corpora are seeded, never random at run
time, so failures reproduce exactly.
"""

import time

import pytest

from choicerev import (
    BASIC_POSTULATES,
    SUPPLEMENTARY_POSTULATES,
    ChoiceOperator,
    PostulateId,
    check_equivalences,
    derive_mb_from_operator,
    lift,
    random_quasi_linear,
    verify_roundtrip_model,
    verify_roundtrip_relation,
    verify_translation,
)
from choicerev.models import (
    ModelFlags,
    check_extended_conditions,
    generate_model,
)
from choicerev.operators import (
    UniverseSpec,
    check_postulate,
    enumerate_universe,
    passes,
    random_operator,
    witness_violates,
)
from choicerev.synthesis import (
    SENTENTIAL_CORE,
    SententialPostulateId,
    check_sentential_postulates,
    footnote7_operator,
)
from test_believability import enumerate_quasi_linear, failing_lemmas, is_standard
from test_models import enumerate_models

SIX_POSTULATES = (
    PostulateId.CLOSURE,
    PostulateId.SUCCESS,
    PostulateId.VACUITY,
    PostulateId.CONFIRMATION,
    PostulateId.RECIPROCITY,
    PostulateId.CONSISTENCY,
)

def _line(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def _corpus_model(i, lang):
    # sizes cycle 1..8; flag mix covers all four condition combinations,
    # including models whose operators pass the supplementary postulates
    size = (i % 8) + 1
    x3 = (i // 8) % 2 == 0 and size >= 2
    leq3 = (i // 16) % 2 == 0 and size >= 6
    return generate_model(i, lang, size, ModelFlags(x3, leq3))


@pytest.fixture(scope="module")
def seeded_ops(lang2):
    return [
        ChoiceOperator.from_model(_corpus_model(i, lang2), max_input_size=2)
        for i in range(200)
    ]


@pytest.fixture(scope="module")
def tiny_ops(lang1):
    return [
        ChoiceOperator.from_model(m, max_input_size=4)
        for m in enumerate_models(lang1)
    ]


@pytest.fixture(scope="module")
def single_orders(lang2):
    return [random_quasi_linear(seed, lang2) for seed in range(100)]


@pytest.fixture(scope="module")
def set_orders(lang2):
    rels = []
    for seed in range(100):
        m = generate_model(seed, lang2, 6 + seed % 3, ModelFlags(True, True))
        op = ChoiceOperator.from_model(m, max_input_size=2)
        assert passes(op, SUPPLEMENTARY_POSTULATES)
        rels.append(derive_mb_from_operator(op))
    return rels


def test_seeded_model_battery(seeded_ops, u2):
    assert len(enumerate_universe(u2)) == 137
    t0 = time.monotonic()
    failures = [
        i for i, op in enumerate(seeded_ops) if not passes(op, BASIC_POSTULATES)
    ]
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    _line(1, ok, f"200 operators x 137 inputs x 5 core postulates, "
                 f"{len(failures)} failures, {elapsed:.1f}s")
    assert not failures, f"core postulate failures at corpus indices {failures}"
    assert elapsed < 60.0


def test_model_synthesis_round_trip(seeded_ops, tiny_ops):
    t0 = time.monotonic()
    failures = [
        i for i, op in enumerate(seeded_ops + tiny_ops)
        if not verify_roundtrip_model(op).passed
    ]
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    _line(2, ok, f"{len(seeded_ops)} seeded + {len(tiny_ops)} exhaustive "
                 f"small-language operators, {len(failures)} mismatches, "
                 f"{elapsed:.1f}s")
    assert not failures
    assert elapsed < 60.0


def test_extended_flags_match_supplementary_postulates(lang1, lang2):
    mismatches = []
    for k, m in enumerate(enumerate_models(lang1)):
        flags = check_extended_conditions(m)
        op = ChoiceOperator.from_model(m, max_input_size=2)
        if (flags.has_X3 and flags.has_leq3) != passes(
            op, SIX_POSTULATES
        ):
            mismatches.append(("tiny", k))
    for i in range(100):
        m = _corpus_model(i, lang2)
        flags = check_extended_conditions(m)
        op = ChoiceOperator.from_model(m, max_input_size=2)
        if (flags.has_X3 and flags.has_leq3) != passes(
            op, SIX_POSTULATES
        ):
            mismatches.append(("seeded", i))
    ok = not mismatches
    _line(3, ok, f"condition flags vs six-postulate battery, exhaustive tiny "
                 f"language + 100 seeds, {len(mismatches)} mismatches")
    assert not mismatches, mismatches


def test_derived_equivalences_with_negative_control(seeded_ops, tiny_ops, lang1):
    violations = []
    applicable = 0
    for i, op in enumerate(seeded_ops + tiny_ops):
        for item in check_equivalences(op).items:
            if item.applicable:
                applicable += 1
                if not item.holds:
                    violations.append((i, item.name))
    assert applicable > 0

    u = UniverseSpec(lang1, 2)
    witnessed = 0
    for seed in range(100):
        op = random_operator(seed, u)
        rep = check_postulate(op, PostulateId.RECIPROCITY)
        if not rep.holds:
            assert witness_violates(op, PostulateId.RECIPROCITY, rep.witness)
            witnessed += 1
    ok = not violations and witnessed >= 1
    _line(4, ok, f"{applicable} applicable equivalence checks, "
                 f"{len(violations)} violations; {witnessed}/100 random "
                 f"operators correctly witnessed failing reciprocity")
    assert not violations, violations
    assert witnessed >= 1


def test_three_atom_cyclic_counterexample(lang3):
    t0 = time.monotonic()
    op = footnote7_operator(lang3)
    reports = check_sentential_postulates(op)
    elapsed = time.monotonic() - t0
    core_ok = all(
        reports[p].holds
        for p in SENTENTIAL_CORE + (SententialPostulateId.EXTENSIONALITY,)
    )
    strong = reports[SententialPostulateId.STRONG_RECIPROCITY]
    cycle_ok = not strong.holds and strong.witness is not None \
        and len(strong.witness.items) >= 3
    ok = core_ok and cycle_ok and elapsed < 30.0
    _line(5, ok, f"core + extensionality pass, strong reciprocity fails with "
                 f"a {len(strong.witness.items) if strong.witness else 0}-step "
                 f"cycle, {elapsed:.1f}s over 256 classes")
    assert core_ok
    assert cycle_ok
    assert elapsed < 30.0


def test_order_translation_round_trips(single_orders, set_orders):
    single_fail = [
        seed for seed, r in enumerate(single_orders)
        if not verify_translation(r).passed
    ]
    set_fail = [
        seed for seed, r in enumerate(set_orders)
        if not verify_translation(r).passed
    ]
    ok = not single_fail and not set_fail
    _line(6, ok, f"100 sentence orders lifted and projected back, "
                 f"{len(single_fail)} failures; 100 set orders projected and "
                 f"lifted back, {len(set_fail)} failures")
    assert not single_fail, single_fail
    assert not set_fail, set_fail


def test_operator_to_relation_round_trips(seeded_ops):
    t0 = time.monotonic()
    base_fail = []
    standard_fail = []
    standard_count = 0
    for i, op in enumerate(seeded_ops):
        if not verify_roundtrip_relation(op).passed:
            base_fail.append(i)
        if passes(op, SUPPLEMENTARY_POSTULATES):
            standard_count += 1
            if not verify_roundtrip_relation(op, standard=True).passed:
                standard_fail.append(i)
    elapsed = time.monotonic() - t0
    ok = not base_fail and not standard_fail and standard_count >= 1 \
        and elapsed < 120.0
    _line(7, ok, f"200 operators derive regenerating relations, "
                 f"{len(base_fail)} failures; {standard_count} supplementary "
                 f"operators yield standard relations, {len(standard_fail)} "
                 f"failures, {elapsed:.1f}s")
    assert not base_fail, base_fail
    assert not standard_fail, standard_fail
    assert standard_count >= 1
    assert elapsed < 120.0


def test_set_comparison_reduction_and_representation(
    single_orders, set_orders, lang1, u2
):
    tiny_rels = [lift(r, 4) for r in enumerate_quasi_linear(lang1)]
    for m in enumerate_models(lang1):
        op = ChoiceOperator.from_model(m, max_input_size=4)
        if passes(op, SUPPLEMENTARY_POSTULATES):
            tiny_rels.append(derive_mb_from_operator(op))
    assert len(tiny_rels) > 4
    full_rels = [lift(r, u2.max_input_size) for r in single_orders] + set_orders

    # every lemma's antecedents are among the nine postulates
    violations = []
    for kind, rels in (("tiny", tiny_rels), ("seeded", full_rels)):
        for j, mb in enumerate(rels):
            if not is_standard(mb):
                violations.append((kind, j, "standard"))
            violations += [(kind, j, name) for name in failing_lemmas(mb)]

    ok = not violations
    _line(8, ok, f"{len(tiny_rels)} exhaustive tiny-language relations over "
                 f"all 16 input sets + {len(full_rels)} seeded relations, "
                 f"{len(violations)} lemma violations")
    assert not violations, violations
