"""Relation-driven revision against the member-by-member construction.

A bounded relation revises every input of its universe at once, with one
gather through the conjunction table, and verify_roundtrip_relation
replays that table in one comparison.  The references are the
member-by-member revision, which builds each adjunction with
pairwise_conj, and the per-input replay loop over it.  They are compared
on every input: outcome, first mismatch witness and exception type.
"""

import random

import numpy as np
import pytest

from choicerev import synthesis
from choicerev.believability import (
    BelievabilityRelation,
    MultiBelievabilityRelation,
    RelationOperationError,
    derive_mb_from_operator,
    lift,
    revise_via_mb,
)
from choicerev.logic import (
    BeliefSet,
    InputSet,
    LanguageSpec,
    SentenceClass,
    parse_input_set,
)
from choicerev.models import ModelFlags, generate_model
from choicerev.operators import (
    ChoiceOperator,
    OutsideUniverseError,
    UniverseSpec,
    _tables,
    random_operator,
)
from choicerev.synthesis import _replay_relation, verify_roundtrip_relation

from test_conjunction import _models, _universe
from test_logic import pairwise_conj


def _reference_revise(mb, k, a):
    """Each adjunction A conj {x} built member by member."""
    lang = k.lang
    empty = InputSet.empty(lang)
    if not (mb.holds(a, empty) and not mb.holds(empty, a)):
        return k
    full = lang.full_mask
    chosen = []
    for m in range(full + 1):
        adjoined = pairwise_conj(a, InputSet.of(lang, SentenceClass(lang, m)))
        if mb.equiv(a, adjoined):
            chosen.append(m)
    mask = full
    for m in chosen:
        mask &= m
    closed = [x for x in range(full + 1) if mask & ~x & full == 0]
    if closed != chosen:
        raise RelationOperationError("result not closed")
    return BeliefSet(lang, mask)


def _reference_replay(op, mb):
    """First mismatch witness of the per-input loop, or None."""
    for a in _tables(op.universe).sets:
        regenerated = _reference_revise(mb, op.K, a)
        expected = op.outcome(a)
        if regenerated != expected:
            return {
                "kind": "mismatch",
                "input": a.encode(),
                "expected": expected.encode(),
                "regenerated": regenerated.encode(),
            }
    return None


def _outcome(fn, *args):
    """fn's result, or the type of the relation error it raised."""
    try:
        return fn(*args)
    except RelationOperationError as exc:
        return type(exc)


def _pairs(u, seed):
    """(operator, relation) pairs on one universe: relations derived from
    model-induced and random operators, random tables, and one-entry
    flips of the derived ones, each with an operator to replay against."""
    rng = np.random.default_rng(seed)
    n = u.size
    ops = [ChoiceOperator.from_model(m, u.max_input_size) for m in _models(u.lang, 8, seed)]
    ops += [random_operator(seed + s, u) for s in range(3)]
    out = [(op, derive_mb_from_operator(op)) for op in ops]
    for op, density in zip(ops, (0.5, 0.9, 0.99)):
        out.append((op, MultiBelievabilityRelation.from_table(u, rng.random((n, n)) < density)))
    for op, rel in out[:8]:
        m = rel.table_over(u).copy()
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        m[i, j] = not m[i, j]
        out.append((op, MultiBelievabilityRelation.from_table(u, m)))
    return out


@pytest.mark.parametrize("n", [16, 17, 137])
def test_revision_and_replay_match_member_by_member(n):
    u = _universe(n)
    sets = _tables(u).sets
    kinds = set()
    for op, rel in _pairs(u, seed=n):
        for a in sets:
            got = _outcome(revise_via_mb, rel, op.K, a)
            assert got == _outcome(_reference_revise, rel, op.K, a)
        want = _outcome(_reference_replay, op, rel)
        assert _outcome(_replay_relation, op, rel) == want
        kinds.add(want if want in (None, RelationOperationError) else "mismatch")
    # agreement, the first mismatch and the not-closed error all occur
    assert kinds == {None, "mismatch", RelationOperationError}


def test_theorem5_round_trip_and_replay_at_697():
    u = _universe(697)
    model = generate_model(21, u.lang, 7, ModelFlags(has_X3=True, has_leq3=True))
    op = ChoiceOperator.from_model(model, u.max_input_size)
    report = verify_roundtrip_relation(op, standard=True)
    assert report.passed, report.detail
    rel = derive_mb_from_operator(op)
    assert _replay_relation(op, rel) is None
    assert _reference_replay(op, rel) is None
    for a in _tables(u).sets:
        assert revise_via_mb(rel, op.K, a) == _reference_revise(rel, op.K, a)


def test_not_closed_revision_raises_on_table_paths(monkeypatch, lang1, u1):
    """A table-backed relation whose revision of {p0, ~p0} keeps rank
    under adjunction of the contradiction and of the tautology only, so
    the meet (the contradiction) entails classes that were not chosen."""
    a = parse_input_set("p0, ~p0", lang1)
    above = {(a.mask_tuple, ()), (a.mask_tuple, a.mask_tuple),
             (a.mask_tuple, (0,)), ((0,), a.mask_tuple)}
    sets = _tables(u1).sets
    m = np.array([[(x.mask_tuple, y.mask_tuple) in above for y in sets] for x in sets])
    mb = MultiBelievabilityRelation.from_table(u1, m)
    k = BeliefSet.trivial(lang1)
    for revise in (revise_via_mb, _reference_revise):
        with pytest.raises(RelationOperationError, match="not closed"):
            revise(mb, k, a)
    # every input before {p0, ~p0} keeps K, so its row is the first bad one
    op = ChoiceOperator(u1, k, (k,) * u1.size)
    with pytest.raises(RelationOperationError, match="not closed"):
        _reference_replay(op, mb)
    # through verify_roundtrip_relation, with mb in place of the derived
    # relation and the relation postulate gate, which mb fails, emptied
    monkeypatch.setattr(synthesis, "derive_mb_from_operator", lambda _: mb)
    monkeypatch.setattr(synthesis, "_CORE_RELATION_SET", ())
    with pytest.raises(RelationOperationError, match="not closed"):
        verify_roundtrip_relation(op)


class _BestMember:
    """The lift of base, written from the definition: A is at least as
    acceptable as B iff B is empty or some member of A is at least as
    acceptable as every member of B.  Answers inputs of any size."""

    def __init__(self, base):
        self.base = base

    def holds(self, a, b):
        return len(b) == 0 or any(
            all(self.base.holds(x, y) for y in b.classes) for x in a.classes
        )

    def equiv(self, a, b):
        return self.holds(a, b) and self.holds(b, a)


def test_lift_revision_paths_agree():
    """revise_via_mb on lift(base, k) reads the revision table of the
    lift's table; the reference builds each adjunction member by member
    and compares it through the best-member rule on base.  On
    arbitrary-row base relations both give the same outcome, or the same
    error, on every input: 1 atom up to k=4 and 2 atoms up to k=2.  Each
    universe shows both agreement on an outcome and the not-closed error."""
    rng = random.Random(16)
    for atoms, top, count in ((1, 4, 30), (2, 2, 6)):
        lang = LanguageSpec(atoms)
        c = lang.full_mask + 1
        bases = [BelievabilityRelation(lang, tuple(rng.getrandbits(c) for _ in range(c)))
                 for _ in range(count)]
        for k in range(1, top + 1):
            kinds = set()
            for base in bases:
                lifted = lift(base, k)
                best = _BestMember(base)
                prior = BeliefSet(lang, rng.randrange(1, c))
                for a in _tables(lifted.universe).sets:
                    got = _outcome(_reference_revise, best, prior, a)
                    assert _outcome(revise_via_mb, lifted, prior, a) == got
                    kinds.add("outcome" if isinstance(got, BeliefSet) else got)
            assert kinds == {"outcome", RelationOperationError}, (atoms, k)


def test_bounded_revision_rejects_outside_input(lang1, u1):
    op = random_operator(0, u1)
    mb = derive_mb_from_operator(op)
    big = parse_input_set("p0, ~p0, T", lang1)
    for revise in (revise_via_mb, _reference_revise):
        with pytest.raises(OutsideUniverseError):
            revise(mb, op.K, big)
