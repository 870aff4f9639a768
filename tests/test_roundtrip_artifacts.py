"""Round-trip artifacts and their hashes against the dicts they stand for.

A report keeps the model or relation its artifact comes from and builds
the artifact on each read; its hash is streamed from the relation's
table.  The references are the artifact built pair by pair from point
queries (`artifact_reference`) and the sha256 of that dict's compact JSON
text, on theorem 1/2/4/5 reports that pass, that fail on a regenerated
outcome and that fail a relation postulate, and on translations in both
directions.
"""

import hashlib
import json
import numpy as np
import pytest
from test_believability import is_standard
from test_conjunction import _universe
from test_model_table import _wrong_models
from test_relation_tables import artifact_reference, dumps

from choicerev import synthesis
from choicerev.believability import (
    MultiBelievabilityRelation,
    derive_mb_from_operator,
    lift,
    project,
    random_quasi_linear,
    relation_to_json,
)
from choicerev.models import GenerationError, ModelFlags, generate_model
from choicerev.operators import ChoiceOperator
from choicerev.synthesis import (
    RoundTripReport,
    synthesize_model,
    verify_roundtrip_model,
    verify_roundtrip_relation,
    verify_translation,
)


def reference_hash(artifact):
    """The sha256 a report gave by serialising its artifact dict."""
    return hashlib.sha256(dumps(artifact).encode()).hexdigest()


def _model_ops(u, count=6):
    """Distinct operators of models drawn with both extended conditions,
    then of models drawn with neither."""
    out = []
    for flags in (ModelFlags(True, True), ModelFlags(False, False)):
        for s in range(10):
            for size in (4, 10):
                try:
                    m = generate_model(s, u.lang, min(size, u.lang.full_mask), flags)
                except GenerationError:
                    continue
                op = ChoiceOperator.from_model(m, u.max_input_size)
                if all((op.K, op.outputs) != (o.K, o.outputs) for o in out):
                    out.append(op)
                if len(out) == count:
                    return out
    return out


def _cases(u, monkeypatch):
    """(report, model.to_json() or relation_to_json() of what the round
    trip synthesized) pairs: the dicts the reports carried when they
    built their artifacts during verification."""
    # at max_input_size 1 some relations derived from models with both
    # conditions are not complete (test_theorem5_needs_pair_inputs)
    ops = _model_ops(u)
    op = next(o for o in ops if is_standard(derive_mb_from_operator(o)))
    others = [o for o in ops if o is not op]
    out = []
    for extended in (False, True):
        model = synthesize_model(op)
        out.append((verify_roundtrip_model(op, extended), model.to_json()))
        for wrong in _wrong_models(model)[:2]:
            monkeypatch.setattr(synthesis, "synthesize_model", lambda _op, w=wrong: w)
            out.append((verify_roundtrip_model(op, extended), wrong.to_json()))
            monkeypatch.undo()
    n = u.size
    noise = MultiBelievabilityRelation.from_table(
        u, np.random.default_rng(n).random((n, n)) < 0.3)
    for standard in (False, True):
        out.append((verify_roundtrip_relation(op, standard),
                    relation_to_json(derive_mb_from_operator(op))))
        # another operator's relation that passes the postulates rebuilds
        # another table, where the universe has one; a random table fails
        # a postulate
        fits = [mb for mb in map(derive_mb_from_operator, others)
                if not standard or is_standard(mb)]
        for rel in fits[:1] + [noise]:
            monkeypatch.setattr(synthesis, "derive_mb_from_operator", lambda _op, r=rel: r)
            out.append((verify_roundtrip_relation(op, standard), relation_to_json(rel)))
            monkeypatch.undo()
    if u.lang.atom_count <= 2:
        r = random_quasi_linear(n, u.lang)
        out.append((verify_translation(r, u.max_input_size), relation_to_json(r)))
        lifted = lift(r, u.max_input_size)
        out.append((verify_translation(lifted), relation_to_json(project(lifted))))
    mb = derive_mb_from_operator(op)
    report = verify_translation(mb)
    out.append((report, relation_to_json(project(mb)) if report.passed else None))
    return out


def _check(report, want):
    first, second = report.artifact, report.artifact
    assert first == want and second == want
    if want is None:
        assert report.artifact_hash is None
        return
    # new dicts, whose lists ("pairs" or "outcomes") are new too
    assert first is not second
    assert not any(v is second[k] for k, v in first.items() if isinstance(v, list))
    assert report.artifact_hash == reference_hash(want)


@pytest.mark.parametrize("n", [16, 17, 137, 257])
def test_artifacts_and_hashes_match_the_dict_they_stand_for(n, monkeypatch):
    u = _universe(n)
    seen = set()
    for report, want in _cases(u, monkeypatch):
        _check(report, want)
        seen.add((report.theorem, (report.witness or {}).get("kind")))
        # the dict the parent built is the pair-by-pair artifact too
        if want is not None and "pairs" in want:
            assert dumps(want) == dumps(artifact_reference(report._source))
    assert seen >= ({(t, k) for t in (1, 2) for k in (None, "mismatch")}
                    | {(t, k) for t in (4, 5) for k in (None, "mismatch", "relation_postulate")}
                    | {(3, None)})


def test_artifact_and_hash_at_697():
    op = _model_ops(_universe(697))[0]
    report = verify_roundtrip_relation(op, standard=True)
    assert report.passed, report.detail
    want = relation_to_json(derive_mb_from_operator(op))
    assert len(want["pairs"]) > 10**5
    assert dumps(want) == dumps(artifact_reference(report._source))
    _check(report, want)


def test_report_equality_reads_fields_and_artifact_bytes():
    u = _universe(137)
    op, other = _model_ops(u)[:2]
    a, b = verify_roundtrip_relation(op), verify_roundtrip_relation(op)
    # separate derived relations, equal tables: equal reports
    assert a._source is not b._source
    assert a == b and a.to_dict() == b.to_dict()
    assert a != verify_roundtrip_relation(other)
    mb = derive_mb_from_operator(op)
    same = MultiBelievabilityRelation.from_table(u, mb.table_over(u).copy())
    flipped = mb.table_over(u).copy()
    flipped[0, 0] = not flipped[0, 0]
    changed = MultiBelievabilityRelation.from_table(u, flipped)

    def report(source, detail="d"):
        return RoundTripReport(4, True, detail, _source=source, universe={"n": 137})

    assert report(mb) == report(same)
    # only the artifact bytes differ, or only the detail
    assert report(mb) != report(changed)
    assert report(mb) != report(mb, "e")
    assert report(None) == report(None) != report(mb)
    # a model report and a relation report are told apart by their bytes
    model = verify_roundtrip_model(op)
    assert model != RoundTripReport(1, True, model.detail, universe=model.universe)
    assert model == RoundTripReport(1, True, model.detail,
                                    _source=synthesize_model(op), universe=model.universe)
    assert a != "report" and a != a.to_dict()
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
