"""The pairwise-conjunction table and the relation checks built on the
universe tables, against slow references.

The references build every conjunction member by member as a frozenset
and look it up by its sorted member masks; weak coupling's first
reference reads triple conjunctions from its own n^3 table, and its
second walks one row of conjunctions at a time, n^2 work per row, which
still runs at n=697.  Counter dominance and union are checked against
their n*n*k*k broadcast and an upper-triangle scan over the seed's
sorted-tuple union index (`_reference_union_index`), at n=16, 17 and
137 on the corpus and its breaking flips, and at n=697 on a derived
relation and its flips.
"""

import functools
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
CD = RelationPostulateId.COUNTER_DOMINANCE
UNION = RelationPostulateId.UNION

# (atoms, max_input_size) -> n = 16, 17, 137, 257, 697
SPECS = {16: (1, 4), 17: (2, 1), 137: (2, 2), 257: (3, 1), 697: (2, 3)}


def _universe(n):
    atoms, k = SPECS[n]
    u = UniverseSpec(LanguageSpec(atoms), k)
    assert u.size == n
    return u


@functools.lru_cache(maxsize=None)
def _reference_union_index(t):
    """Universe index of each pairwise union, -1 outside: the sorted-tuple loop."""
    n = len(t.sets)
    out = np.full((n, n), -1, dtype=np.int32)
    for a in range(n):
        ta = t.sets[a].mask_tuple
        for b in range(a, n):
            merged = tuple(sorted(set(ta) | set(t.sets[b].mask_tuple)))
            out[a, b] = out[b, a] = t.index.get(merged, -1)
    return out


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


@functools.lru_cache(maxsize=None)
def _reference_tables(n):
    """(conj_index, conj3_index) at n, built once per test session."""
    t = _tables(_universe(n))
    sets = _reference_conj_sets(t)
    return _reference_conj_index(t, sets), _reference_conj3_index(t, sets)


@pytest.fixture(scope="module")
def references():
    """n -> (conj_index, conj3_index) for n = 16, 17, 137."""
    return {n: _reference_tables(n) for n in (16, 17, 137)}


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


def _row_loop_weak_coupling(rel, u):
    """Weak coupling one row a at a time, over every (b, d)."""
    t = _tables(u)
    m = rel.table_over(u)
    sets = t.sets
    n = len(sets)
    eq = m & m.T
    c2 = t.conj_index
    checked = skipped = 0
    first = None
    for a in range(n):
        row2 = c2[a]
        ok2 = row2 >= 0
        prem = np.zeros(n, dtype=bool)
        prem[ok2] = eq[a, row2[ok2]]
        tgt = c2[np.clip(row2, 0, None)]
        ok3 = tgt >= 0
        evaluable = ok2[:, None] & ok2[None, :] & ok3
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


def _reference_counter_dominance_ante(t, lang):
    """ante[a, b] as an n*n*k*k broadcast over member pairs."""
    masks = np.arange(lang.full_mask + 1)
    ent = (masks[:, None] & ~masks[None, :] & lang.full_mask) == 0
    mem = t.member
    look = ent[mem[None, :, :, None], mem[:, None, None, :]]
    exists = (look & t.valid[:, None, None, :]).any(axis=3)
    return (exists | ~t.valid[None, :, :]).all(axis=2)


def _reference_counter_dominance(rel, u):
    t = _tables(u)
    viol = _reference_counter_dominance_ante(t, u.lang) & ~rel.table_over(u)
    n = len(t.sets)
    if not viol.any():
        return RelationReport(CD, "multi", True, n * n)
    a, b = (int(v) for v in np.argwhere(viol)[0])
    w = RelationWitness(
        (t.sets[a], t.sets[b]),
        "every member of the second set entails some member of the first, yet the first does not rank at least as high",
    )
    return RelationReport(CD, "multi", False, n * n, 0, w)


def _reference_union(rel, u):
    """Every pair a <= b in upper-triangle order, unions read from the
    reference union index."""
    t = _tables(u)
    m = rel.table_over(u)
    ia, ib = np.triu_indices(len(t.sets))
    flat = _reference_union_index(t)[ia, ib]
    ok = flat >= 0
    target = np.clip(flat, 0, None)
    viol = ok & ~m[ia, target] & ~m[ib, target]
    checked, skipped = int(ok.sum()), int((~ok).sum())
    if not viol.any():
        return RelationReport(UNION, "multi", True, checked, skipped)
    i = int(np.flatnonzero(viol)[0])
    w = RelationWitness(
        (t.sets[ia[i]], t.sets[ib[i]], t.sets[flat[i]]),
        "neither part ranks at least as high as the union",
    )
    return RelationReport(UNION, "multi", False, checked, skipped, w)


def _break_weak_coupling(rel, u):
    """rel's table with one entry cleared so that weak coupling fails.

    Takes the first input A (scan order) and classes x < y such that
    A conj {x}, A conj {y} and T = A conj {x & y} all rank with A, T
    being a fourth set, and clears m[A, T]: (A, {x}, {y}) then keeps
    both premises and loses the conclusion.
    """
    t = _tables(u)
    m = rel.table_over(u).copy()
    eq = m & m.T
    adj = t.conj_index[:, t.singleton_index]
    c = u.class_count
    for a in range(len(t.sets)):
        for x in range(c):
            for y in range(x + 1, c):
                v, w, tt = adj[a, x], adj[a, y], adj[a, x & y]
                if eq[a, v] and eq[a, w] and eq[a, tt] and tt not in (a, v, w):
                    m[a, tt] = False
                    return MultiBelievabilityRelation.from_table(u, m)
    raise AssertionError("no triple to break")


def _flip_multi(rel, u, i, j):
    m = rel.table_over(u).copy()
    m[i, j] = not m[i, j]
    return MultiBelievabilityRelation.from_table(u, m)


def _breaking_flip(cells, flip, reference, seed, tries=40):
    """The first of up to `tries` seeded candidate flips that the reference
    says breaks the postulate, with its reference report; None if none."""
    rng = random.Random(seed)
    for cell in rng.sample(cells, min(tries, len(cells))):
        broken = flip(*cell)
        want = reference(broken)
        if not want.holds:
            return broken, want
    return None


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
    rels += [lift(random_quasi_linear(seed + s, u.lang), u.max_input_size) for s in range(4)]
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
        got = _check_multi(rel, WC)
        want = _reference_weak_coupling(rel, u, c2, c3)
        assert got.to_dict() == want.to_dict()
        verdicts.add(got.holds)
    # both verdicts occur, so witnesses are compared too
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [16, 137])
def test_weak_coupling_witness_in_cell_order(n, references):
    """Relations that are all True but for one row a whose distinct
    conjunctions A conj B first occur out of index order.  The witness
    is the first failing cell (a, b) in scan order, which need not be a
    cell of the failing conjunction with the smallest index."""
    u = _universe(n)
    c2, c3 = references[n]
    rng = np.random.default_rng(n)
    rows = []
    for a in range(n):
        _, first = np.unique(c2[a][c2[a] >= 0], return_index=True)
        if (np.diff(first) < 0).any():
            rows.append(a)
    verdicts = set()
    for a in rows[:3]:
        for _ in range(8):
            m = np.ones((n, n), dtype=bool)
            m[a] = rng.random(n) < 0.7
            rel = MultiBelievabilityRelation.from_table(u, m)
            got = _check_multi(rel, WC)
            assert got.to_dict() == _reference_weak_coupling(rel, u, c2, c3).to_dict()
            verdicts.add(got.holds)
    assert False in verdicts


@pytest.mark.parametrize("n", [257, 697])
def test_weak_coupling_matches_row_loop_at_full_size(n):
    """Beyond the n^3 table's reach: a derived relation and a one-entry
    flip of it that breaks weak coupling."""
    u = _universe(n)
    model = _models(u.lang, 1, seed=n)[0]
    derived = derive_mb_from_operator(ChoiceOperator.from_model(model, u.max_input_size))
    verdicts = set()
    for rel in (derived, _break_weak_coupling(derived, u)):
        got = _check_multi(rel, WC)
        assert got.to_dict() == _row_loop_weak_coupling(rel, u).to_dict()
        verdicts.add(got.holds)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [16, 17, 137])
def test_counter_dominance_and_union_match_references(n):
    u = _universe(n)
    verdicts = {CD: set(), UNION: set()}
    for rel in _corpus(u, seed=n):
        for p, reference in ((CD, _reference_counter_dominance), (UNION, _reference_union)):
            got = _check_multi(rel, p)
            assert got.to_dict() == reference(rel, u).to_dict()
            verdicts[p].add(got.holds)
    assert verdicts == {CD: {True, False}, UNION: {True, False}}


def _breaking_cells(m, u, p):
    """Cells whose flip breaks p on a table where p holds: a cell (a, b)
    whose antecedent holds (counter dominance); for an evaluable pair of
    whose union only one part ranks at least as high, that part's cell
    (union).  Both read the reference tables."""
    t = _tables(u)
    if p == CD:
        cells = _reference_counter_dominance_ante(t, u.lang) & m
        return [(int(a), int(b)) for a, b in np.argwhere(cells)]
    ia, ib = np.triu_indices(len(t.sets))
    flat = _reference_union_index(t)[ia, ib]
    ok = flat >= 0
    target = np.clip(flat, 0, None)
    ca, cb = m[ia, target], m[ib, target]
    one = ok & (ca != cb)
    cells = {(int(a), int(x)) for a, x in zip(ia[one & ca], target[one & ca])}
    cells |= {(int(b), int(x)) for b, x in zip(ib[one & cb], target[one & cb])}
    return sorted(cells)


CD_UNION_REFERENCES = {CD: _reference_counter_dominance, UNION: _reference_union}


@pytest.mark.parametrize("n", [16, 17, 137])
def test_counter_dominance_and_union_hold_breaks_under_flip(n):
    """Each passing counter dominance or union verdict turns false under
    a one-entry flip the reference says breaks it; every candidate cell
    breaks, so one is found whenever there is one."""
    u = _universe(n)
    broken = {p: 0 for p in CD_UNION_REFERENCES}
    for i, rel in enumerate(_corpus(u, seed=n)):
        m = rel.table_over(u)
        flip = functools.partial(_flip_multi, rel, u)
        for p, reference in CD_UNION_REFERENCES.items():
            if not _check_multi(rel, p).holds:
                continue
            cells = _breaking_cells(m, u, p)
            found = _breaking_flip(cells, flip, lambda r: reference(r, u), seed=i)
            assert (found is not None) == bool(cells), (p.value, i)
            if found:
                flipped, want = found
                assert _check_multi(flipped, p).to_dict() == want.to_dict()
                broken[p] += 1
    assert min(broken.values()) >= 3, broken


def test_counter_dominance_and_union_match_references_at_697():
    """A derived relation, and for each postulate a one-entry flip that
    breaks it."""
    u = _universe(697)
    model = _models(u.lang, 1, seed=697)[0]
    rel = derive_mb_from_operator(ChoiceOperator.from_model(model, u.max_input_size))
    m = rel.table_over(u)
    flip = functools.partial(_flip_multi, rel, u)
    for p, reference in CD_UNION_REFERENCES.items():
        got = _check_multi(rel, p)
        assert got.to_dict() == reference(rel, u).to_dict(), p.value
        assert got.holds, p.value
        found = _breaking_flip(_breaking_cells(m, u, p), flip, lambda r: reference(r, u), 697, tries=3)
        assert found is not None, p.value
        flipped, want = found
        assert _check_multi(flipped, p).to_dict() == want.to_dict()


@pytest.mark.parametrize("n", [16, 17, 137, 257, 697])
def test_counter_dominance_ante_matches_broadcast(n):
    u = _universe(n)
    t = _tables(u)
    want = _reference_counter_dominance_ante(t, u.lang)
    assert t.counter_dominance_ante.flags.c_contiguous
    assert np.array_equal(t.counter_dominance_ante, want)
