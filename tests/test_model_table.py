"""Model-induced operator tables and the model round trip's replay against
the per-input revision.

`choice_revise_via_model` (descriptor revision, one input at a time) is
the reference for `ChoiceOperator.from_model`, which reads every input's
revision off one meets gather over the model's outcomes, and
`_reference_mismatch` is the input-by-input replay `verify_roundtrip_model`
used to run.
"""

import pytest
from test_conjunction import _universe

from choicerev import synthesis
from choicerev.logic import BeliefSet
from choicerev.models import (
    GenerationError,
    ModelFlags,
    RelationalModel,
    check_extended_conditions,
    choice_revise_via_model,
    generate_model,
)
from choicerev.operators import ChoiceOperator, _tables, theory_meets
from choicerev.synthesis import synthesize_model, verify_roundtrip_model

FLAGS = [ModelFlags(x3, leq3) for x3 in (False, True) for leq3 in (False, True)]


def _models(lang, seeds):
    """Valid models for every flag pair, several sizes each."""
    total = lang.full_mask + 1
    out = []
    for seed in seeds:
        for flags in FLAGS:
            for size in (2, 4, 7, 12):
                try:
                    out.append(generate_model(seed, lang, min(size, total), flags))
                except GenerationError:
                    pass
    return out


def _with_own_k(m):
    """The same model with K an equal but distinct object from outcomes[0]."""
    return RelationalModel(m.lang, BeliefSet(m.lang, m.K.mask), m.outcomes)


@pytest.mark.parametrize("n", [16, 17, 137, 257, 697])
def test_from_model_matches_per_input_revision(n):
    """Same objects as the per-input revision, for all four flag pairs,
    K-fallback rows and the empty input included."""
    u = _universe(n)
    t = _tables(u)
    models = _models(u.lang, range(3) if n < 697 else range(1))
    models += [_with_own_k(m) for m in models[::3]]
    fallback = 0
    for m in models:
        op = ChoiceOperator.from_model(m, u.max_input_size)
        for a, got in zip(t.sets, op.outputs):
            assert got is choice_revise_via_model(m, a)
            if len(a) and not any(theory_meets(a, o) for o in m.outcomes):
                assert got is m.K
                fallback += 1
        assert op.outputs[t.empty_index] is m.K
    assert {check_extended_conditions(m) for m in models} == set(FLAGS)
    assert any(m.K is not m.outcomes[0] for m in models)
    assert fallback > 0


def _reference_mismatch(op, model):
    """The seed's replay: revise input by input, stop at the first mismatch."""
    for a in _tables(op.universe).sets:
        regenerated = choice_revise_via_model(model, a)
        expected = op.outcome(a)
        if regenerated != expected:
            return {
                "kind": "mismatch",
                "input": a.encode(),
                "expected": expected.encode(),
                "regenerated": regenerated.encode(),
            }
    return None


def _wrong_models(model):
    """Valid models that differ from the synthesized one: tail reversed,
    last outcome dropped, and K alone."""
    head, tail = model.outcomes[:1], model.outcomes[1:]
    lists = [head + tail[::-1], model.outcomes[:-1] if tail else None, head]
    return [RelationalModel(model.lang, model.K, o) for o in lists if o]


@pytest.mark.parametrize("n", [16, 17, 137, 697])
def test_roundtrip_mismatch_witness_matches_per_input_replay(n, monkeypatch):
    u = _universe(n)
    ops = [ChoiceOperator.from_model(m, u.max_input_size)
           for m in _models(u.lang, [1])[:: 2 if n < 697 else 4]]
    mismatches = 0
    for op in ops:
        model = synthesize_model(op)
        assert _reference_mismatch(op, model) is None
        assert verify_roundtrip_model(op).passed
        for wrong in _wrong_models(model):
            fresh = ChoiceOperator(op.universe, op.K, op.outputs)
            monkeypatch.setattr(synthesis, "synthesize_model", lambda _op, w=wrong: w)
            report = verify_roundtrip_model(fresh)
            monkeypatch.undo()
            want = _reference_mismatch(op, wrong)
            assert report.witness == want
            assert report.passed == (want is None)
            if want is not None:
                assert report.detail == "regenerated outcome differs"
                assert report.artifact == wrong.to_json()
                mismatches += 1
    assert mismatches > 0
