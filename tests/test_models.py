"""Ordered-outcome models: validation, revision, generation, JSON."""

import dataclasses
import gc
import itertools
import json

import pytest

from choicerev.descriptors import parse_descriptor, parse_molecular
from choicerev.logic import BeliefSet, LanguageSpec, parse_input_set
from choicerev.models import (
    GenerationError,
    ModelFlags,
    ModelFormatError,
    ModelInvalidError,
    RelationalModel,
    _load_json,
    check_extended_conditions,
    choice_revise_via_model,
    descriptor_revise,
    generate_model,
    load_model,
    save_model,
    validate_model,
)


def bs(lang, *bits):
    return BeliefSet.decode(bits, lang)


def enumerate_models(lang):
    """Every model over the language with a consistent K: K first, then
    any ordered list of the other belief sets.  48 at one atom."""
    sets = [BeliefSet(lang, m) for m in range(lang.full_mask + 1)]
    return [
        RelationalModel(lang, k, (k, *tail))
        for k in sets
        if k.is_consistent
        for r in range(len(sets))
        for tail in itertools.permutations([b for b in sets if b != k], r)
    ]


@pytest.fixture
def simple_model(lang2):
    k = bs(lang2, "00", "01", "10", "11")
    return RelationalModel(
        lang2,
        k,
        (k, bs(lang2, "10", "11"), bs(lang2, "01"), BeliefSet.inconsistent(lang2)),
    )


def test_validate_good(simple_model):
    report = validate_model(simple_model)
    assert report.passed
    simple_model.require_valid()


def test_validate_k_not_first(lang2):
    k = bs(lang2, "11")
    other = bs(lang2, "10")
    m = RelationalModel(lang2, k, (other, k))
    report = validate_model(m)
    assert not report.passed
    assert not report.conditions["leq1"].passed
    with pytest.raises(ModelInvalidError):
        m.require_valid()


def test_replace_does_not_carry_validity(lang2):
    """A model made by dataclasses.replace validates itself afresh."""
    m = generate_model(1, lang2, size=4)
    m.require_valid()
    rotated = dataclasses.replace(m, outcomes=m.outcomes[1:] + m.outcomes[:1])
    assert not validate_model(rotated).passed
    with pytest.raises(ModelInvalidError):
        rotated.require_valid()


def test_validate_k_absent(lang2):
    k = bs(lang2, "11")
    m = RelationalModel(lang2, k, (bs(lang2, "10"),))
    report = validate_model(m)
    assert not report.conditions["X2"].passed


def test_validate_duplicates(lang2):
    k = bs(lang2, "11")
    m = RelationalModel(lang2, k, (k, bs(lang2, "10"), bs(lang2, "10")))
    report = validate_model(m)
    assert not report.conditions["leq2"].passed
    assert "positions 1 and 2" in report.conditions["leq2"].witness


def test_validate_inconsistent_k(lang2):
    k = BeliefSet.inconsistent(lang2)
    m = RelationalModel(lang2, k, (k,))
    assert not validate_model(m).conditions["K_consistent"].passed


def test_descriptor_revise_minimal(simple_model, lang2):
    d = parse_molecular("B(p0)", lang2)
    assert descriptor_revise(simple_model, d) == bs(lang2, "10", "11")
    # nothing satisfies "believes p0 and believes ~p0" except the
    # inconsistent outcome, last in the order
    d2 = parse_molecular("B(p0) & B(~p0)", lang2)
    assert descriptor_revise(simple_model, d2) == BeliefSet.inconsistent(lang2)


def test_descriptor_revise_fallback_k(lang2):
    k = bs(lang2, "00", "01", "10", "11")
    m = RelationalModel(lang2, k, (k, bs(lang2, "01")))
    d = parse_molecular("B(p0)", lang2)
    assert descriptor_revise(m, d) == k


def test_descriptor_revise_composite(simple_model, lang2):
    d = parse_descriptor("B(p0), !B(p1)", lang2)
    # first outcome believing p0 but not p1 is the inconsistent-free one?
    # outcome {10,11} believes p0 only; !B(p1) holds there
    assert descriptor_revise(simple_model, d) == bs(lang2, "10", "11")


def test_choice_revise_empty_returns_k(simple_model, lang2):
    assert (
        choice_revise_via_model(simple_model, parse_input_set("", lang2))
        == simple_model.K
    )


def test_choice_revise_picks_minimal_meeting(simple_model, lang2):
    a = parse_input_set("p0 & ~p1, p1 & ~p0", lang2)
    # K believes neither; {10,11} believes neither member; {01} believes
    # the second
    assert choice_revise_via_model(simple_model, a) == bs(lang2, "01")


def test_extended_conditions_frozen(lang1, lang2, simple_model):
    assert check_extended_conditions(simple_model) == ModelFlags(True, False)
    k = BeliefSet.trivial(lang1)
    two = RelationalModel(lang1, k, (k, BeliefSet.inconsistent(lang1)))
    assert check_extended_conditions(two) == ModelFlags(True, False)
    full = RelationalModel(
        lang1,
        k,
        (k, bs(lang1, "1"), bs(lang1, "0"), BeliefSet.inconsistent(lang1)),
    )
    assert check_extended_conditions(full) == ModelFlags(True, True)
    nobot = RelationalModel(lang1, k, (k, bs(lang1, "1"), bs(lang1, "0")))
    assert check_extended_conditions(nobot) == ModelFlags(False, True)


def test_generate_model_deterministic(lang2):
    a = generate_model(11, lang2, 5)
    b = generate_model(11, lang2, 5)
    c = generate_model(12, lang2, 5)
    assert a == b
    assert a != c


@pytest.mark.parametrize("x3", [False, True])
@pytest.mark.parametrize("leq3", [False, True])
def test_generate_model_flags_exact(lang2, x3, leq3):
    flags = ModelFlags(has_X3=x3, has_leq3=leq3)
    for seed in range(5):
        m = generate_model(seed, lang2, 8, flags)
        assert validate_model(m).passed
        assert check_extended_conditions(m) == flags


def test_generate_model_sizes(lang2):
    for size in range(1, 9):
        m = generate_model(size, lang2, size)
        assert len(m.outcomes) == size
        assert validate_model(m).passed


def test_generate_model_infeasible(lang1):
    # only 3 consistent belief sets exist at one atom
    with pytest.raises(GenerationError):
        generate_model(0, lang1, 4, ModelFlags(has_X3=False))
    # settling every consistent class without the inconsistent outcome
    # needs K plus both singleton theories
    with pytest.raises(GenerationError):
        generate_model(0, lang1, 1, ModelFlags(has_X3=False, has_leq3=True))
    with pytest.raises(GenerationError):
        generate_model(0, lang1, 0)


def test_enumerate_models_frozen_count(lang1):
    models = enumerate_models(lang1)
    assert len(models) == 48
    assert all(validate_model(m).passed for m in models)
    assert len({m.outcomes for m in models}) == 48


def test_model_json_roundtrip(tmp_path, simple_model):
    p = tmp_path / "m.json"
    save_model(simple_model, str(p))
    again = load_model(str(p))
    assert again == simple_model
    # canonical file: reserialization is byte-identical
    text = p.read_text()
    assert text == json.dumps(simple_model.to_json(), sort_keys=True, indent=2) + "\n"


def test_model_json_errors(tmp_path, lang2):
    bad = tmp_path / "bad.json"
    bad.write_text('{"atoms": 2, "outcomes": ')
    with pytest.raises(ModelFormatError) as exc:
        load_model(str(bad))
    assert "line" in str(exc.value)

    bad.write_text("[1, 2]")
    with pytest.raises(ModelFormatError):
        load_model(str(bad))

    bad.write_text('{"atoms": 2, "outcomes": []}')
    with pytest.raises(ModelFormatError):
        load_model(str(bad))

    # structurally fine but invalid: duplicate outcome
    k = bs(lang2, "11")
    bad.write_text(
        json.dumps({"atoms": 2, "outcomes": [k.encode(), k.encode()]})
    )
    with pytest.raises(ModelInvalidError):
        load_model(str(bad))
    # the file's structure alone still reads
    m = RelationalModel.from_json(json.loads(bad.read_text()))
    assert len(m.outcomes) == 2


class _ParseError(ValueError):
    pass


def _parse(data):
    if data["a"] == 2:
        raise _ParseError("bad a")
    return data["a"], gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_load_json_parses_with_collector_paused(enabled, tmp_path):
    """parse runs with the collector off, which is left as it was found
    after a good file and after every error: a parse error, another
    exception from parse, invalid JSON, a non-object and a missing file."""
    cases = (('{"a": 1}', None, None), ('{"a": 2}', _ParseError, "bad a"),
             ('{"b": 3}', KeyError, "'a'"), ('{"a": ', _ParseError, "invalid JSON"),
             ("[1]", _ParseError, "JSON object"), (None, FileNotFoundError, "data.json"))
    path = tmp_path / "data.json"
    was = gc.isenabled()
    try:
        for text, error, message in cases:
            (gc.enable if enabled else gc.disable)()
            path.unlink(missing_ok=True)
            if text is not None:
                path.write_text(text)
            if error is None:
                assert _load_json(str(path), _ParseError, _parse) == (1, False)
            else:
                with pytest.raises(error, match=message):
                    _load_json(str(path), _ParseError, _parse)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
