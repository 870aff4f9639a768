"""The conjunction table of a layout (`_conj_table`) and the coupling and
weak-coupling checks that gather through it, against brute force and two
oracles.

The table lists, for weak coupling, each distinct quadruple (a, v, w, t)
with v = A conj B, w = A conj D and t = A conj B conj D in the universe,
v <= w and t not v or w.  Its brute force enumerates every (a, b, d):
over a universe it reads t from the n^3 triple-conjunction table that
test_conjunction builds member by member, over a language's classes it
is a & b & d.

The checker is compared, on verdict, counts and first witness, with
`_reference_weak_coupling` (the n^3 table, test_conjunction) and with
`pair_gather_weak_coupling`, the checker it replaces: one conclusion row
per distinct pair (A, A conj B), gathered over every d at each call.
The class layouts' tables and the single-level checker are compared with
the same brute force and oracle in test_relation_references.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from test_conjunction import (
    _break_weak_coupling,
    _corpus,
    _flip_multi,
    _models,
    _reference_tables,
    _reference_weak_coupling,
    _universe,
)

from choicerev.believability import (
    MultiBelievabilityRelation,
    RelationPostulateId,
    RelationReport,
    RelationWitness,
    _check,
    check_relation_postulate,
    derive_mb_from_operator,
)
from choicerev.logic import LanguageSpec
from choicerev.operators import (
    ChoiceOperator,
    UniverseSpec,
    _conj_table,
    _row_blocks,
    _tables,
    random_operator,
)

WC = RelationPostulateId.WEAK_COUPLING
NOTES = {
    "single": "both single adjunctions keep rank but the joint one drops it",
    "multi": "both pairwise adjunctions keep rank but the triple one drops it",
}


def pair_gather_conj_pairs(c2):
    """Distinct (A, A conj B) pairs pa, pv sorted by (a, v); pair_of[a, b],
    the pair of each in-universe cell (-1 outside); and the weak-coupling
    instances checked and skipped."""
    n = len(c2)
    ok = c2 >= 0
    keys = (np.arange(n)[:, None] * n + c2)[ok]
    uniq, inverse, mult = np.unique(keys, return_inverse=True, return_counts=True)
    pa, pv = np.divmod(uniq, n)
    pair_of = np.full((n, n), -1, dtype=np.int32)
    pair_of[ok] = inverse
    evaluable = np.empty(len(uniq), dtype=np.int64)
    for blk in _row_blocks(len(uniq), n):
        evaluable[blk] = (ok[pa[blk]] & ok[pv[blk]]).sum(axis=1)
    checked = int(mult @ evaluable)
    return pa, pv, pair_of, checked, n ** 3 - checked


def pair_gather_weak_coupling(m, sets, c2, variant):
    """Weak coupling of table m over items `sets` with conjunction index c2:
    per call, one conclusion row of n cells for each live pair (a, v)."""
    n = len(sets)
    flat = (m & m.T).ravel()
    pa, pv, pair_of, checked, skipped = pair_gather_conj_pairs(c2)
    prem = (c2 >= 0) & flat[np.arange(0, n * n, n)[:, None] + c2]
    live = np.flatnonzero(flat[pa * n + pv])
    bad = np.zeros(len(pa), dtype=bool)
    for blk in _row_blocks(len(live), n):
        q = live[blk]
        tgt = c2[pv[q]]
        concl = flat[(pa[q] * n)[:, None] + tgt]
        bad[q] = (prem[pa[q]] & (tgt >= 0) & ~concl).any(axis=1)
    if not bad.any():
        return RelationReport(WC, variant, True, checked, skipped)
    viol = (pair_of >= 0) & bad[pair_of]
    a, b = (int(i) for i in np.unravel_index(viol.argmax(), viol.shape))
    tgt = c2[pv[pair_of[a, b]]]
    d = int(np.flatnonzero(prem[a] & (tgt >= 0) & ~flat[a * n + tgt])[0])
    w = RelationWitness((sets[a], sets[b], sets[d]), NOTES[variant])
    return RelationReport(WC, variant, False, checked, skipped, w)


def _pair_gather_multi(rel):
    u = rel.universe
    t = _tables(u)
    return pair_gather_weak_coupling(rel.table_over(u), t.sets, t.conj_index, "multi")


def brute_force_table(c2, c3):
    """(quadruples, checked) over every (a, b, d), with the triple
    conjunction row c3(a)[b, d] given: the sorted distinct (a, v, w, t)
    with v <= w and t not v or w, and the count of evaluable instances."""
    n = len(c2)
    keys = []
    checked = 0
    for a in range(n):
        row = c2[a].astype(np.int64)
        v, w = row[:, None], row[None, :]
        t = c3(a)
        ok = (v >= 0) & (w >= 0) & (t >= 0)
        checked += int(ok.sum())
        keep = ok & (v <= w) & (t != v) & (t != w)
        keys.append((((a * n + v) * n + w) * n + t)[keep])
    keys = np.unique(np.concatenate(keys))
    quads = zip(keys // n ** 3, keys // n ** 2 % n, keys // n % n, keys % n)
    return [tuple(int(x) for x in q) for q in quads], checked


def _table_quads(ct, n):
    a = ct.iv // n
    return list(zip(a.tolist(), (ct.iv % n).tolist(), (ct.iw - a * n).tolist(),
                    (ct.it - a * n).tolist()))


def assert_conj_table(ct, c2, c3):
    """ct against brute_force_table, and its coupling cells in scan order."""
    n = len(c2)
    quads, checked = brute_force_table(c2, c3)
    assert _table_quads(ct, n) == quads
    assert (ct.checked, ct.skipped) == (checked, n ** 3 - checked)
    a, b = np.nonzero(c2 >= 0)
    assert ct.cells.tolist() == (a * n + b).tolist()
    assert ct.conj.tolist() == (a * n + c2[a, b]).tolist()
    for x in (ct.cells, ct.conj, ct.iv, ct.iw, ct.it):
        assert x.dtype == np.intp


@pytest.mark.parametrize("n", [16, 17, 137])
def test_universe_table_matches_brute_force(n):
    """Over a universe, against every (a, b, d) of the member-by-member
    n^3 triple-conjunction table; checked and skipped as the pair-gather
    builder counts them."""
    c2, c3 = _reference_tables(n)
    ct = _tables(_universe(n)).conj_table
    assert_conj_table(ct, c2, lambda a: c3[a])
    assert (ct.checked, ct.skipped) == pair_gather_conj_pairs(c2)[3:]


# every universe up to UNIVERSE_CAP, as (atoms, max_input_size); a larger
# max_input_size at 1 atom gives the n=16 universe again
ADMITTED = [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1), (2, 2), (2, 3),
            (3, 0), (3, 1)]


def test_table_counts_match_pair_gather_on_every_universe():
    """Every universe up to UNIVERSE_CAP: the same instance counts as the
    pair-gather builder, strictly increasing keys, each quadruple's (a, v)
    one of the builder's distinct pairs, and no quadruple with t = a (which only an arbitrary commutative,
    associative table produces; see test_weak_coupling_t_equal_to_a)."""
    sizes = []
    for atoms, k in ADMITTED:
        u = UniverseSpec(LanguageSpec(atoms), k)
        t = _tables(u)
        n = u.size
        ct = t.conj_table
        pa, pv, _, checked, skipped = pair_gather_conj_pairs(t.conj_index)
        assert (ct.checked, ct.skipped) == (checked, skipped)
        keys = (ct.iv * n + ct.iw % n) * n + ct.it % n
        assert (np.diff(keys) > 0).all()
        assert set(ct.iv.tolist()) <= set((pa * n + pv).tolist())
        assert not (ct.it == ct.iv - ct.iv % n + ct.iv // n).any()
        sizes.append(n)
    assert sorted(sizes) == [1, 1, 1, 5, 11, 15, 16, 17, 137, 257, 697]


def _three_atom_corpus(u, seed):
    """_corpus without its lifts, which need 1 or 2 atoms: derived,
    random-operator and random-table relations, one-cell flips of the
    derived ones and a flip that breaks weak coupling."""
    rng = np.random.default_rng(seed)
    n = u.size
    derived = [derive_mb_from_operator(ChoiceOperator.from_model(m, u.max_input_size))
               for m in _models(u.lang, 6, seed)]
    rels = derived + [derive_mb_from_operator(random_operator(seed + s, u)) for s in range(3)]
    rels += [MultiBelievabilityRelation.from_table(u, rng.random((n, n)) < density)
             for density in (0.9, 0.99)]
    rels += [_flip_multi(rel, u, *(int(v) for v in rng.integers(0, n, size=2)))
             for rel in derived]
    return rels + [_break_weak_coupling(derived[0], u)]


@pytest.mark.parametrize("n", [16, 17, 137, 257])
def test_weak_coupling_matches_oracles(n):
    """The corpus at n: the same report as the pair-gather checker and,
    up to n=137, as the n^3-table reference."""
    u = _universe(n)
    refs = _reference_tables(n) if n <= 137 else None
    verdicts = set()
    for rel in _corpus(u, seed=n) if n <= 137 else _three_atom_corpus(u, seed=n):
        got = check_relation_postulate(rel, WC)
        assert got == _pair_gather_multi(rel)
        if refs:
            assert got.to_dict() == _reference_weak_coupling(rel, u, *refs).to_dict()
        verdicts.add(got.holds)
    assert verdicts == {True, False}


def test_weak_coupling_matches_pair_gather_on_697_flips():
    """A derived n=697 relation, six random one-cell flips of it and a flip
    that breaks weak coupling."""
    u = _universe(697)
    model = _models(u.lang, 1, seed=698)[0]
    rel = derive_mb_from_operator(ChoiceOperator.from_model(model, u.max_input_size))
    rng = random.Random(697)
    rels = [rel, _break_weak_coupling(rel, u)]
    rels += [_flip_multi(rel, u, rng.randrange(697), rng.randrange(697)) for _ in range(6)]
    verdicts = set()
    for r in rels:
        got = check_relation_postulate(r, WC)
        assert got == _pair_gather_multi(r)
        verdicts.add(got.holds)
    assert verdicts == {True, False}


def _violations(m, c2, c3):
    """Every failing (a, b, d) of weak coupling, from the n^3 table."""
    eq = m & m.T
    n = len(m)
    out = []
    for a in range(n):
        v, w, t = c2[a][:, None], c2[a][None, :], c3[a]
        ok = (v >= 0) & (w >= 0) & (t >= 0)
        prem = np.where(c2[a] >= 0, eq[a, c2[a]], False)
        viol = ok & prem[:, None] & prem[None, :] & ~eq[a, np.where(ok, t, 0)]
        out += [(a, int(b), int(d)) for b, d in zip(*np.nonzero(viol))]
    return out


def test_weak_coupling_v_equal_to_w():
    """At n=16, a relation whose only failing instances have A conj B =
    A conj D: every entry holds but A's comparisons with the sets other
    than itself and V = A conj B, for a quadruple (a, V, V, T)."""
    u = _universe(16)
    n = u.size
    c2, c3 = _reference_tables(n)
    a, v = next((a, int(c2[a, b])) for a in range(n) for b in range(n) for d in range(n)
                if c2[a, b] >= 0 and c2[a, b] == c2[a, d] and c3[a, b, d] not in (-1, c2[a, b]))
    m = np.ones((n, n), dtype=bool)
    m[a, [x for x in range(n) if x not in (a, v)]] = False
    rel = MultiBelievabilityRelation.from_table(u, m)
    bad = _violations(m, c2, c3)
    assert bad and all(c2[a_, b] == c2[a_, d] for a_, b, d in bad)
    got = check_relation_postulate(rel, WC)
    assert not got.holds
    assert got.to_dict() == _reference_weak_coupling(rel, u, c2, c3).to_dict()
    assert got == _pair_gather_multi(rel)


def test_weak_coupling_t_equal_to_a():
    """Addition mod 2 as the conjunction of a two-item layout: (a, 1, 1)
    has v = w = a + 1 and t = a, so a table with m[0, 0] False fails weak
    coupling at (0, 1, 1) and nowhere else; both quadruples with t = a
    must be in the table."""
    c2 = np.add.outer(np.arange(2), np.arange(2)) % 2
    layout = SimpleNamespace(sets=("x0", "x1"), conj_index=c2, conj_table=_conj_table(c2))
    assert _table_quads(layout.conj_table, 2) == [(0, 1, 1, 0), (1, 0, 0, 1)]
    m = np.array([[False, True], [True, True]])
    got = _check(WC, layout, m, "single")
    assert got == RelationReport(WC, "single", False, 8, 0,
                                 RelationWitness(("x0", "x1", "x1"), NOTES["single"]))
    assert got == pair_gather_weak_coupling(m, layout.sets, c2, "single")
    assert _check(WC, layout, np.ones((2, 2), dtype=bool), "single").holds


def test_weak_coupling_witness_is_first_instance():
    """Several rows fail: the witness is the smallest failing a and, in
    it, the first (b, d) in scan order, as the n^3-table reference says."""
    n = 137
    u = _universe(n)
    c2, c3 = _reference_tables(n)
    rng = np.random.default_rng(11)
    verdicts = set()
    for _ in range(12):
        m = np.ones((n, n), dtype=bool)
        rows = rng.choice(n, size=4, replace=False)
        m[rows] = rng.random((4, n)) < 0.8
        rel = MultiBelievabilityRelation.from_table(u, m)
        got = check_relation_postulate(rel, WC)
        assert got.to_dict() == _reference_weak_coupling(rel, u, c2, c3).to_dict()
        assert got == _pair_gather_multi(rel)
        verdicts.add(got.holds)
    assert False in verdicts
