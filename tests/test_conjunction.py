"""The pairwise-conjunction table and weak coupling against slow references.

The references build every conjunction member by member as a frozenset
and look it up by its sorted member masks; weak coupling's reference
reads triple conjunctions from its own n^3 table instead of gathering
them through the pairwise one.
"""

import random

import numpy as np
import pytest

from choicerev.believability import (
    MultiBelievabilityRelation,
    RelationPostulateId,
    RelationReport,
    RelationWitness,
    _check_multi,
    derive_mb_from_operator,
    lift,
    random_quasi_linear,
)
from choicerev.logic import LanguageSpec
from choicerev.models import GenerationError, ModelFlags, generate_model
from choicerev.operators import (
    ChoiceOperator,
    UniverseSpec,
    _tables,
    random_operator,
)

WC = RelationPostulateId.WEAK_COUPLING

# (atoms, max_input_size) -> n = 16, 17, 137, 257, 697
SPECS = {16: (1, 4), 17: (2, 1), 137: (2, 2), 257: (3, 1), 697: (2, 3)}


def _universe(n):
    atoms, k = SPECS[n]
    u = UniverseSpec(LanguageSpec(atoms), k)
    assert u.size == n
    return u


def _reference_conj_sets(t):
    """Member masks of every pairwise conjunction, as frozensets."""
    tuples = [s.mask_tuple for s in t.sets]
    return [
        [frozenset(x & y for x in ta for y in tb) for tb in tuples] for ta in tuples
    ]


def _reference_conj_index(t, conj_sets):
    n = len(t.sets)
    out = np.full((n, n), -1, dtype=np.int32)
    for a in range(n):
        for b in range(n):
            out[a, b] = t.index.get(tuple(sorted(conj_sets[a][b])), -1)
    return out


def _reference_conj3_index(t, conj_sets):
    """Index of A conj B conj D, -1 when outside: an n^3 table."""
    n = len(t.sets)
    tuples = [s.mask_tuple for s in t.sets]
    memo = {}
    out = np.full((n, n, n), -1, dtype=np.int32)
    for a in range(n):
        for b in range(n):
            ab = conj_sets[a][b]
            for d in range(n):
                got = memo.get((ab, d))
                if got is None:
                    members = frozenset(x & y for x in ab for y in tuples[d])
                    got = memo[(ab, d)] = t.index.get(tuple(sorted(members)), -1)
                out[a, b, d] = got
    return out


@pytest.fixture(scope="module")
def references():
    """n -> (conj_index, conj3_index) for n = 16, 17, 137."""
    out = {}
    for n in (16, 17, 137):
        t = _tables(_universe(n))
        sets = _reference_conj_sets(t)
        out[n] = (_reference_conj_index(t, sets), _reference_conj3_index(t, sets))
    return out


def _reference_weak_coupling(rel, u, c2, c3):
    """Weak coupling with triple conjunctions read from the n^3 table."""
    t = _tables(u)
    m = rel.table_over(u)
    sets = t.sets
    n = len(sets)
    eq = m & m.T
    checked = skipped = 0
    first = None
    for a in range(n):
        row2 = c2[a]
        ok2 = row2 >= 0
        prem = np.zeros(n, dtype=bool)
        prem[ok2] = eq[a, row2[ok2]]
        tgt = c3[a]
        evaluable = ok2[:, None] & ok2[None, :] & (tgt >= 0)
        checked += int(evaluable.sum())
        skipped += n * n - int(evaluable.sum())
        concl = eq[a, np.clip(tgt, 0, None)]
        viol = evaluable & prem[:, None] & prem[None, :] & ~concl
        if first is None and viol.any():
            b, d = (int(v) for v in np.argwhere(viol)[0])
            first = RelationWitness(
                (sets[a], sets[b], sets[d]),
                "both pairwise adjunctions keep rank but the triple one drops it",
            )
    return RelationReport(WC, "multi", first is None, checked, skipped, first)


def _models(lang, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        flags = ModelFlags(rng.random() < 0.5, rng.random() < 0.5)
        size = rng.randint(1, lang.full_mask + 1)
        try:
            out.append(generate_model(rng.randrange(1 << 30), lang, size, flags))
        except GenerationError:
            continue
    return out


def _corpus(u, seed):
    """Derived, random-operator, random-table, lifted and flipped relations."""
    rng = np.random.default_rng(seed)
    n = u.size
    rels = []
    derived = [
        derive_mb_from_operator(ChoiceOperator.from_model(m, u.max_input_size))
        for m in _models(u.lang, 12, seed)
    ]
    rels += derived[:6]
    rels += [derive_mb_from_operator(random_operator(seed + s, u)) for s in range(4)]
    for density in (0.3, 0.6, 0.9, 0.97, 0.99):
        rels.append(MultiBelievabilityRelation.from_table(u, rng.random((n, n)) < density))
    rels += [lift(random_quasi_linear(seed + s, u.lang)) for s in range(4)]
    for rel in derived[6:]:
        m = rel.table_over(u).copy()
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        m[i, j] = not m[i, j]
        rels.append(MultiBelievabilityRelation.from_table(u, m))
    return rels


@pytest.mark.parametrize("n", [16, 17, 137, 257, 697])
def test_conj_index_matches_reference(n):
    t = _tables(_universe(n))
    want = _reference_conj_index(t, _reference_conj_sets(t))
    assert t.conj_index.dtype == want.dtype
    assert np.array_equal(t.conj_index, want)


@pytest.mark.parametrize("n", [16, 17, 137])
def test_weak_coupling_matches_triple_table(n, references):
    """Same verdict, counts and first witness as the n^3-table algorithm."""
    u = _universe(n)
    c2, c3 = references[n]
    verdicts = set()
    for rel in _corpus(u, seed=n):
        got = _check_multi(rel, WC, u)
        want = _reference_weak_coupling(rel, u, c2, c3)
        assert got.to_dict() == want.to_dict()
        verdicts.add(got.holds)
    # both verdicts occur, so witnesses are compared too
    assert verdicts == {True, False}
