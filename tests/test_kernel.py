"""The operator kernel, the report memo and the shared tables against the
seed's constructions.

`_reference_meets` is the n*n*maxk broadcast the kernel used to build,
`_reference_union_index` the sorted-tuple loop, and `_reference_draw`
the per-entry BeliefSet draw of `random_operator`.
"""

import dataclasses
import random

import numpy as np
import pytest
from test_conjunction import _universe

from choicerev.logic import BeliefSet
from choicerev.models import ModelFlags, generate_model
from choicerev.operators import (
    _CHECKERS,
    ChoiceOperator,
    PostulateId,
    Witness,
    _tables,
    check_equivalences,
    check_postulate,
    check_postulates,
    random_operator,
    theory_meets,
    witness_violates,
)


def _reference_meets(op):
    """meets[a, b]: some member of A_a follows from the outcome of A_b."""
    t = _tables(op.universe)
    x = np.array([o.mask for o in op.outputs], dtype=np.int64)[None, :, None]
    m = t.member[:, None, :]
    v = t.valid[:, None, :]
    return (((x & ~m) == 0) & v).any(axis=2)


def _loop_meets(op):
    sets = _tables(op.universe).sets
    return np.array([[theory_meets(a, o) for o in op.outputs] for a in sets])


def _reference_union_index(t):
    n = len(t.sets)
    out = np.full((n, n), -1, dtype=np.int32)
    for a in range(n):
        ta = t.sets[a].mask_tuple
        for b in range(a, n):
            merged = tuple(sorted(set(ta) | set(t.sets[b].mask_tuple)))
            out[a, b] = out[b, a] = t.index.get(merged, -1)
    return out


def _reference_draw(seed, u):
    """K's mask and the output masks, drawn as the seed drew them."""
    rng = random.Random(seed)
    full = u.lang.full_mask
    k = rng.randrange(1, full + 1)
    return k, [rng.randrange(0, full + 1) for _ in _tables(u).sets]


def _flipped(op, i):
    """op with entry i's outcome changed in one valuation."""
    o = op.outputs[i]
    outputs = list(op.outputs)
    outputs[i] = BeliefSet(op.lang, o.mask ^ 1)
    return ChoiceOperator(op.universe, op.K, tuple(outputs))


def _operators(n, seed=0):
    """A model-induced, a random and a one-entry-flipped model-induced operator."""
    u = _universe(n)
    flags = ModelFlags(has_X3=True, has_leq3=True)
    # K, the bottom and every singleton outcome, plus one more
    size = (1 << u.lang.atom_count) + 2
    model = generate_model(seed, u.lang, size, flags)
    induced = ChoiceOperator.from_model(model, u.max_input_size)
    return [induced, random_operator(seed, u), _flipped(induced, n // 2)]


@pytest.mark.parametrize("n", [16, 17, 137, 257])
def test_meets_matches_broadcast_and_loop(n):
    for op in _operators(n):
        meets = op._kernel().meets
        assert np.array_equal(meets, _reference_meets(op))
        assert np.array_equal(meets, _loop_meets(op))


def test_meets_matches_broadcast_and_loop_at_697():
    op = _operators(697)[2]
    meets = op._kernel().meets
    assert np.array_equal(meets, _reference_meets(op))
    assert np.array_equal(meets, _loop_meets(op))


@pytest.mark.parametrize("n", [16, 17, 137, 257, 697])
def test_union_index_matches_tuple_loop(n):
    t = _tables(_universe(n))
    assert np.array_equal(t.union_index, _reference_union_index(t))


def _first_violating_pair(op, p):
    """The first (A, B) in scan order that violates p, from its definition."""
    sets = _tables(op.universe).sets
    for a in sets:
        for b in sets:
            w = Witness((a, b), (op.outcome(a), op.outcome(b)), "")
            if witness_violates(op, p, w):
                return a, b
    return None


@pytest.mark.parametrize("n", [16, 17, 137])
def test_pair_witnesses_are_first_in_scan_order(n):
    pair_postulates = (
        PostulateId.REGULARITY, PostulateId.RECIPROCITY, PostulateId.CAUTIOUSNESS
    )
    for op in _operators(n, seed=1):
        for p in pair_postulates:
            report = check_postulate(op, p)
            first = _first_violating_pair(op, p)
            assert report.holds == (first is None), p.value
            if first is not None:
                assert report.witness.inputs == first, p.value


@pytest.mark.parametrize("n", [16, 17, 137])
def test_memoised_reports_match_fresh_copy(n):
    for op in _operators(n, seed=3):
        reports = check_postulates(op)
        eq = check_equivalences(op)
        assert all(check_postulate(op, p) is r for p, r in reports.items())
        # equivalences first on the copy: it fills the memo in another order
        fresh = ChoiceOperator(op.universe, op.K, op.outputs)
        assert check_equivalences(fresh).to_dict() == eq.to_dict()
        assert {p: r.to_dict() for p, r in check_postulates(fresh).items()} == {
            p: r.to_dict() for p, r in reports.items()
        }
        # and the unmemoised checkers on a third copy
        plain = ChoiceOperator(op.universe, op.K, op.outputs)
        assert {p: _CHECKERS[p](plain).to_dict() for p in PostulateId} == {
            p: r.to_dict() for p, r in reports.items()
        }


def test_replaced_operator_gets_its_own_reports():
    op = _operators(137)[0]
    assert check_postulate(op, PostulateId.CONSISTENCY).holds
    bottom = BeliefSet(op.lang, 0)
    broken = dataclasses.replace(op, outputs=(bottom,) * len(op.outputs))
    assert not check_postulate(broken, PostulateId.CONSISTENCY).holds
    assert check_postulate(op, PostulateId.CONSISTENCY).holds


@pytest.mark.parametrize("n", [16, 17, 137, 257, 697])
def test_random_operator_draw_unchanged_and_shared(n):
    u = _universe(n)
    for seed in range(3):
        op = random_operator(seed, u)
        k, masks = _reference_draw(seed, u)
        assert op.K.mask == k
        assert [o.mask for o in op.outputs] == masks
        assert len({id(o) for o in op.outputs}) <= u.lang.full_mask + 1
