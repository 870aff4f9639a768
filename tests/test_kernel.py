"""The operator kernel, the report memo and the shared tables against the
seed's constructions.

`_reference_meets` is the n*n*maxk broadcast the kernel used to build,
`_reference_over_members` the member/valid broadcast of the member fold,
`_reference_union_index` (in test_conjunction) the sorted-tuple loop,
`_reference_subset` the n*n subset loop, `_reference_draw`
the per-entry BeliefSet draw of `random_operator`, `_reference_dichotomy`
the all-pairs dichotomy scan and `_reference_strong_reciprocity` the
strong-reciprocity check over the whole n*n input graph (edge-by-edge
Tarjan and BFS, from test_graphs).  The references for relative success,
regularity, confirmation, reciprocity, success, vacuity, consistency and
cautiousness are loops over the postulates' definitions, and
`REPORT_DIGEST` pins every report on the `_operators` corpus.
`_two_mixed_components` builds operators whose outcome quotient has two
mixed components, where the strong-reciprocity walk cannot stop at the
witness.
"""

import copy
import dataclasses
import hashlib
import itertools
import json
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_conjunction import _reference_union_index, _universe
from test_graphs import _reference_scc, _reference_shortest_path
from test_logic import set_equiv

from choicerev.logic import BeliefSet, InputSet, LanguageSpec, SentenceClass
from choicerev.models import ModelFlags, generate_model
from choicerev.operators import (
    _CHECKERS,
    ChoiceOperator,
    PostulateId,
    PostulateReport,
    UniverseSpec,
    Witness,
    _draw_operator,
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
    valid = t.slot < t.u.class_count
    m = np.where(valid, t.slot, 0)[:, None, :]
    v = valid[:, None, :]
    return (((x & ~m) == 0) & v).any(axis=2)


def _reference_meets_k(op):
    """meets_k[a]: some member of A_a follows from K, by the per-slot formula."""
    t = _tables(op.universe)
    valid = t.slot < t.u.class_count
    return (((np.int64(op.K.mask) & ~np.where(valid, t.slot, 0)) == 0) & valid).any(axis=1)


def _loop_meets(op):
    sets = _tables(op.universe).sets
    return np.array([[theory_meets(a, o) for o in op.outputs] for a in sets])


def _reference_subset(t):
    """subset[a, b]: A_a is a subset of A_b; the seed's n*n class-bitset loop."""
    n = len(t.sets)
    bits = [sum(1 << m for m in s.mask_tuple) for s in t.sets]
    out = np.zeros((n, n), dtype=bool)
    for a in range(n):
        ba = bits[a]
        out[a] = [ba & ~bb == 0 for bb in bits]
    return out


def _reference_draw(rng, u):
    """K's mask and the output masks, drawn as the seed drew them: one
    randrange call per entry."""
    full = u.lang.full_mask
    k = rng.randrange(1, full + 1)
    return k, [rng.randrange(0, full + 1) for _ in _tables(u).sets]


def _reference_dichotomy(op):
    k = op._kernel()
    t = k.t
    n = len(op.outputs)
    ia, ib = np.triu_indices(n)
    uidx = _reference_union_index(t)[ia, ib]
    valid = uidx >= 0
    outu = k.out[np.clip(uidx, 0, None)]
    viol = valid & (outu != k.out[ia]) & (outu != k.out[ib])
    checked = int(valid.sum())
    skipped = int((~valid).sum())
    if not viol.any():
        return PostulateReport(PostulateId.DICHOTOMY, True, checked, skipped)
    first = int(np.flatnonzero(viol)[0])
    a, b, u = int(ia[first]), int(ib[first]), int(uidx[first])
    w = Witness(
        (t.sets[a], t.sets[b], t.sets[u]),
        (op.outputs[a], op.outputs[b], op.outputs[u]),
        "outcome of the union matches neither part's outcome",
    )
    return PostulateReport(PostulateId.DICHOTOMY, False, checked, skipped, witness=w)


def _reference_scc_cycle(adj, comp, x, y):
    """The seed's directed cycle through x and y inside one strongly
    connected component: BFS there and back on the masked adjacency."""
    inside = np.zeros(adj.shape[0], dtype=bool)
    inside[comp] = True
    sub = adj & inside[:, None] & inside[None, :]
    there = _reference_shortest_path(sub, x, y)
    back = _reference_shortest_path(sub, y, x)
    return there + back[1:-1]


def _first_mixed_loop(adj, out):
    """The seed's witness loop: edge-by-edge Tarjan over the whole graph,
    the first component in output order holding two outcomes, and the
    cycle through its first node and the first node with another outcome;
    None when every component has one outcome."""
    for comp in _reference_scc(adj):
        first = comp[0]
        for node in comp[1:]:
            if out[node] != out[first]:
                return _reference_scc_cycle(adj, comp, first, node)
    return None


def _reference_strong_reciprocity(op):
    """Strong reciprocity over the n*n input graph: the seed's broadcast
    meets matrix and its witness loop."""
    t = _tables(op.universe)
    n = len(op.outputs)
    cycle = _first_mixed_loop(_reference_meets(op), [o.mask for o in op.outputs])
    if cycle is None:
        return PostulateReport(PostulateId.STRONG_RECIPROCITY, True, n * n)
    w = Witness(
        tuple(t.sets[i] for i in cycle),
        tuple(op.outputs[i] for i in cycle),
        "loop of mutually meeting inputs with unequal outcomes",
    )
    return PostulateReport(PostulateId.STRONG_RECIPROCITY, False, n * n, witness=w)


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


def _kernel_meets(op):
    """meets[a, b] read off the kernel's n*g table: column inv[b] of M."""
    k = op._kernel()
    assert k.M.shape == (len(op.outputs), len(k.uniq))
    return k.M[:, k.inv]


@pytest.mark.parametrize("n", [16, 17, 137, 257])
def test_meets_matches_broadcast_and_loop(n):
    for op in _operators(n):
        meets = _kernel_meets(op)
        assert np.array_equal(meets, _reference_meets(op))
        assert np.array_equal(meets, _loop_meets(op))
        _assert_meets_k(op)


def _assert_meets_k(op):
    meets_k = op._kernel().meets_k
    assert np.array_equal(meets_k, _reference_meets_k(op))
    assert meets_k.tolist() == [theory_meets(a, op.K) for a in _tables(op.universe).sets]


def test_meets_matches_broadcast_and_loop_at_697():
    op = _operators(697)[2]
    meets = _kernel_meets(op)
    assert np.array_equal(meets, _reference_meets(op))
    assert np.array_equal(meets, _loop_meets(op))
    for op in _operators(697):
        _assert_meets_k(op)


def _reference_over_members(t, per_class, every):
    """The member/valid broadcast: per_class gathered at every member slot
    of every input, the empty slots masked out, then any or all."""
    valid = t.slot < t.u.class_count
    rows = per_class[np.where(valid, t.slot, 0)]
    valid = valid.reshape(valid.shape + (1,) * (per_class.ndim - 1))
    if every:
        return (rows | ~valid).all(axis=1)
    return (rows & valid).any(axis=1)


# (atoms, max_input_size) for the universes beyond test_conjunction's
_SMALL_SPECS = {1: (2, 0), 5: (1, 1)}


@pytest.mark.parametrize("n", [1, 5, 16, 17, 137, 257, 697])
def test_over_members_matches_member_broadcast(n):
    """Both quantifiers, on 1-D and 2-D per-class rows at every density;
    with max_input_size 0 the only input, the empty one, gets False for
    the OR and True for the AND."""
    u = UniverseSpec(LanguageSpec(_SMALL_SPECS[n][0]), _SMALL_SPECS[n][1]) if n in _SMALL_SPECS else _universe(n)
    t = _tables(u)
    assert len(t.sets) == n
    rng = np.random.default_rng(n)
    c = u.class_count
    for shape in ((c,), (c, 7)):
        for density in (0.0, 0.3, 0.9, 1.0):
            per_class = rng.random(shape) < density
            for every in (False, True):
                got = t.over_members(per_class, every=every)
                want = _reference_over_members(t, per_class, every)
                assert got.shape == (n,) + shape[1:]
                assert np.array_equal(got, want), (shape, density, every)
                assert got[t.empty_index].tolist() == np.full(shape[1:], every).tolist()


@pytest.mark.parametrize("n", [16, 17, 137, 257, 697])
def test_union_index_matches_tuple_loop(n):
    """The in-universe union triples, gathered from each input's subsets,
    are the upper-triangle scan of the sorted-tuple union index."""
    t = _tables(_universe(n))
    ref = _reference_union_index(t)
    ia, ib = np.triu_indices(n)
    flat = ref[ia, ib]
    inside = flat >= 0
    got_a, got_b, got_u, skipped = t.union_triples
    assert np.array_equal(got_a, ia[inside])
    assert np.array_equal(got_b, ib[inside])
    assert np.array_equal(got_u, flat[inside])
    assert skipped == int((~inside).sum())


@pytest.mark.parametrize("n", [16, 17, 137, 257, 697])
def test_subset_pairs_match_subset_loop(n):
    t = _tables(_universe(n))
    sub, sup = t.subset_pairs
    want_sub, want_sup = np.nonzero(_reference_subset(t))
    assert np.array_equal(sub, want_sub) and np.array_equal(sup, want_sup)
    # each input's row of subsets lists exactly its subsets
    for a, s in enumerate(t.sets):
        row = t.subsets[a]
        assert sorted(row[row >= 0].tolist()) == sorted(
            i for i, x in enumerate(t.sets) if x.issubset(s)
        )


_REFERENCES = (
    (PostulateId.DICHOTOMY, _reference_dichotomy),
    (PostulateId.STRONG_RECIPROCITY, _reference_strong_reciprocity),
)


@pytest.mark.parametrize("n", [16, 17, 137, 257])
def test_dichotomy_and_strong_reciprocity_match_references(n):
    verdicts = {p: set() for p, _ in _REFERENCES}
    for seed in range(3):
        for op in _operators(n, seed):
            for p, reference in _REFERENCES:
                report = _CHECKERS[p](op._kernel())
                assert report.to_dict() == reference(op).to_dict(), p.value
                verdicts[p].add(report.holds)
    # both verdicts, so failing witnesses are compared too; with singleton
    # inputs only, every in-universe union is trivial and dichotomy holds
    pair_inputs = _universe(n).max_input_size >= 2
    assert verdicts[PostulateId.DICHOTOMY] == ({True, False} if pair_inputs else {True})
    assert verdicts[PostulateId.STRONG_RECIPROCITY] == {True, False}


def test_dichotomy_and_strong_reciprocity_match_references_at_697():
    """Model-induced, random and flipped operators at full size: the
    strong-reciprocity witness, read off the outcome quotient, is the
    reference's loop through the first mixed component of the input graph."""
    verdicts = {p: set() for p, _ in _REFERENCES}
    for seed in range(3):
        for op in _operators(697, seed):
            for p, reference in _REFERENCES:
                report = _CHECKERS[p](op._kernel())
                assert report.to_dict() == reference(op).to_dict(), p.value
                verdicts[p].add(report.holds)
    assert all(v == {True, False} for v in verdicts.values()), verdicts


def _first_rule(u, rules, rest):
    """The operator giving each input the outcome of the first rule
    (need, outcome) that one of its members meets, by holding at every
    valuation in need, and rest when none does; K is rest."""
    def outcome(a):
        for need, out in rules:
            if any(c.mask & need == need for c in a.classes):
                return BeliefSet(u.lang, out)
        return BeliefSet(u.lang, rest)

    return ChoiceOperator.from_function(u, BeliefSet(u.lang, rest), outcome)


def _two_mixed_components(u):
    """Operators whose outcome quotient has two mixed components, so a
    failing strong-reciprocity check walks until the first one's first
    member finishes.

    For valuations p != q: {q} when a member holds at both, {p, q} when
    one holds at q, the inconsistent set when one holds at p, else {p}.
    Inputs with the first two outcomes meet each other's, as do inputs
    with the last two (every nonempty input meets the inconsistent set),
    and no input with one of the last two meets the first two.

    For four distinct valuations a, b, c, d: {a} when a member holds at
    b, else {b} when one holds at a, else {c} at d, else {d} at c, and {a}
    for inputs holding nowhere.  When the lowest input on a cycle has
    {a} or {b}, the first component discovered is not the first output.
    """
    bits = lambda *vs: sum(1 << v for v in vs)
    valuations = range(u.lang.full_mask.bit_length())
    for p, q in itertools.permutations(valuations, 2):
        yield _first_rule(u, [(bits(p, q), bits(q)), (bits(q), bits(p, q)), (bits(p), 0)], bits(p))
    for a, b, c, d in itertools.permutations(valuations, 4):
        rules = [(bits(b), bits(a)), (bits(a), bits(b)), (bits(d), bits(c)), (bits(c), bits(d))]
        yield _first_rule(u, rules, bits(a))


def _mixed_components(op):
    return sum(len(c) > 1 for c in _reference_scc(op._kernel().ge))


@pytest.mark.parametrize("n", [16, 17, 137])
def test_strong_reciprocity_full_walk_matches_reference(n):
    """Operators whose quotient has two mixed components, so the walk
    cannot stop at the witness, and one-entry flips of them that keep two:
    the reports are the reference's."""
    u = _universe(n)
    ops = []
    for base in _two_mixed_components(u):
        ops += [base] + [_flipped(base, i) for i in range(0, n, max(1, n // 6))]
    ops = [op for op in ops if _mixed_components(op) >= 2]
    assert len(ops) >= 10
    for op in ops:
        report = _CHECKERS[PostulateId.STRONG_RECIPROCITY](op._kernel())
        assert not report.holds
        assert report.to_dict() == _reference_strong_reciprocity(op).to_dict()


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
        assert {p: _CHECKERS[p](plain._kernel()).to_dict() for p in PostulateId} == {
            p: r.to_dict() for p, r in reports.items()
        }


def test_replaced_operator_gets_its_own_reports():
    op = _operators(137)[0]
    assert check_postulate(op, PostulateId.CONSISTENCY).holds
    bottom = BeliefSet(op.lang, 0)
    broken = dataclasses.replace(op, outputs=(bottom,) * len(op.outputs))
    assert not check_postulate(broken, PostulateId.CONSISTENCY).holds
    assert check_postulate(op, PostulateId.CONSISTENCY).holds


def test_reports_and_operators_survive_pickle_copy_and_replace():
    """Reports and operators are slotted frozen dataclasses: pickle,
    deepcopy and replace give equal objects, and replace gives the new
    operator its own (empty) stash.  A pickle or copy carries the table
    only, not the kernel and the universe tables it holds: a checked
    operator pickles to the same bytes as an unchecked one, and a copy
    rebuilds the same reports."""
    op = _operators(137)[1]
    unchecked = len(pickle.dumps(op))
    reports = check_postulates(op)
    assert op._stash and len(pickle.dumps(op)) == unchecked
    assert not all(r.holds for r in reports.values())
    objects = [op, check_equivalences(op), *reports.values()]
    objects += [r.witness for r in reports.values() if r.witness is not None]
    objects += list(check_equivalences(op).items)
    for x in objects:
        assert not hasattr(x, "__dict__"), type(x).__name__
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), dataclasses.replace(x)):
            assert type(y) is type(x) and y == x
    want = {p: r.to_dict() for p, r in reports.items()}
    for again in (pickle.loads(pickle.dumps(op)), copy.deepcopy(op), copy.copy(op)):
        assert again._stash == []
        assert {p: r.to_dict() for p, r in check_postulates(again).items()} == want
    replaced = dataclasses.replace(op)
    assert op._stash and replaced._stash == []


def test_equal_reports_shared_per_universe():
    """Tables on one universe share each passing report and each
    equivalence report, so a caller keeping many batteries keeps them once;
    failing reports, whose witnesses differ, are their own."""
    ops = [op for seed in range(3) for op in _operators(137, seed)]
    batteries = [check_postulates(op) for op in ops]
    for p in PostulateId:
        passing = [r[p] for r in batteries if r[p].holds]
        assert passing and all(r is passing[0] for r in passing), p.value
    failing = [r[p] for r in batteries for p in PostulateId if not r[p].holds]
    assert len({id(r) for r in failing}) == len(failing)
    eqs = [check_equivalences(op) for op in ops]
    assert len({id(e) for e in eqs}) == len({json.dumps(e.to_dict()) for e in eqs}) < len(eqs)


def test_failing_strong_reciprocity_builds_no_n_by_n_array():
    """The witness comes from the n*g table and the quotient: the check's
    peak allocation stays below n*n bytes, the size of one bool input graph."""
    op = random_operator(1, _universe(697))
    op._kernel()
    n = len(op.outputs)
    tracemalloc.start()
    try:
        report = _CHECKERS[PostulateId.STRONG_RECIPROCITY](op._kernel())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.holds
    assert peak < n * n, peak


# every universe UniverseSpec admits at one and two atoms, and three atoms
# at k <= 1 (k=2 is over the cap), as (atoms, k)
DRAW_SPECS = [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4),
              (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1)]


def _draw_id(spec):
    """The universe's size; sizes repeat only at k=0, named by atom count."""
    atoms, k = spec
    return str(UniverseSpec(LanguageSpec(atoms), k).size) if k else f"{atoms}-atoms-k0"


@pytest.mark.parametrize("spec", DRAW_SPECS, ids=_draw_id)
def test_random_operator_draw_unchanged_and_shared(spec):
    u = UniverseSpec(LanguageSpec(spec[0]), spec[1])
    ops = [random_operator(seed, u) for seed in range(10)]
    for seed, op in enumerate(ops):
        k, masks = _reference_draw(random.Random(seed), u)
        assert op.K.mask == k
        assert [o.mask for o in op.outputs] == masks
    # one pool per universe, shared by every random table on it
    held = {id(o) for op in ops for o in op.outputs + (op.K,)}
    assert len(held) <= u.lang.full_mask + 1


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from([(1, 4), (2, 1), (2, 2), (3, 1)]),
    seed=st.integers(-(2 ** 80), 2 ** 80) | st.sampled_from([-1, 2 ** 64, 2 ** 64 + 1, -(2 ** 64)]),
)
def test_random_operator_draw_matches_randrange_for_any_seed(spec, seed):
    u = UniverseSpec(LanguageSpec(spec[0]), spec[1])
    op = random_operator(seed, u)
    assert (op.K.mask, [o.mask for o in op.outputs]) == _reference_draw(random.Random(seed), u)


class _TopBitRun(random.Random):
    """Mersenne Twister words whose first `run` have the top bit set.

    A try on such a word is rejected, so a batched draw needs more than
    one batch.  getrandbits follows CPython's word model: up to 32 bits
    take one word shifted right, a multiple of 32 packs whole words
    little-endian.  `batches` counts the multi-word calls.
    """

    def __init__(self, seed, run):
        super().__init__(seed)
        self.run = run
        self.batches = 0

    def _word(self):
        w = super().getrandbits(32)
        if self.run > 0:
            self.run -= 1
            w |= 1 << 31
        return w

    def getrandbits(self, k):
        if k <= 32:
            return self._word() >> (32 - k)
        assert k % 32 == 0, k
        self.batches += 1
        return sum(self._word() << (32 * i) for i in range(k // 32))


@pytest.mark.parametrize("spec", [(1, 4), (2, 3), (3, 1)], ids=_draw_id)
def test_random_operator_draw_spans_batches(spec):
    """A long run of rejected words forces later batches; the draw still
    matches per-entry randrange on the same generator."""
    u = UniverseSpec(LanguageSpec(spec[0]), spec[1])
    for seed in range(3):
        rng = _TopBitRun(seed, run=10 * u.size + 100)
        op = _draw_operator(rng, u)
        assert rng.batches >= 2
        want = _reference_draw(_TopBitRun(seed, run=10 * u.size + 100), u)
        assert (op.K.mask, [o.mask for o in op.outputs]) == want


def _reference_reciprocity(op):
    """(holds, checked, first witness) from the definition: every pair of
    inputs, each meeting the other's outcome, has equal outcomes."""
    sets = _tables(op.universe).sets
    outs = op.outputs
    n = len(sets)
    for a in range(n):
        for b in range(n):
            if (
                theory_meets(sets[a], outs[b])
                and theory_meets(sets[b], outs[a])
                and outs[a] != outs[b]
            ):
                return False, n * n, (sets[a], sets[b])
    return True, n * n, None


def _verdict(report):
    return report.holds, report.checked, report.witness.inputs if report.witness else None


@pytest.mark.parametrize("n", [16, 17, 137])
def test_reciprocity_matches_definition(n):
    verdicts = set()
    for seed in range(3):
        for op in _operators(n, seed):
            report = _CHECKERS[PostulateId.RECIPROCITY](op._kernel())
            assert _verdict(report) == _reference_reciprocity(op)
            verdicts.add(report.holds)
    assert verdicts == {True, False}


def test_reciprocity_matches_definition_at_697():
    op = _operators(697)[2]
    assert _verdict(_CHECKERS[PostulateId.RECIPROCITY](op._kernel())) == _reference_reciprocity(op)


def _reference_relative_success(op):
    """(holds, checked, first witness): every outcome is K or meets its input."""
    sets = _tables(op.universe).sets
    for a, o in zip(sets, op.outputs):
        if o != op.K and not theory_meets(a, o):
            return False, len(sets), (a,)
    return True, len(sets), None


def _reference_success(op):
    """(holds, checked, first witness): every nonempty input meets its
    outcome."""
    sets = _tables(op.universe).sets
    for a, o in zip(sets, op.outputs):
        if len(a) > 0 and not theory_meets(a, o):
            return False, len(sets), (a,)
    return True, len(sets), None


def _reference_regularity(op):
    """(holds, checked, first witness): an input that meets some input's
    outcome meets its own."""
    sets = _tables(op.universe).sets
    outs = op.outputs
    n = len(sets)
    for a in range(n):
        for b in range(n):
            if not theory_meets(sets[a], outs[a]) and theory_meets(sets[a], outs[b]):
                return False, n * n, (sets[a], sets[b])
    return True, n * n, None


def _reference_cautiousness(op):
    """(holds, checked, first witness): a subset of an input that meets the
    input's outcome has the same outcome."""
    sets = _tables(op.universe).sets
    outs = op.outputs
    n = len(sets)
    for a in range(n):
        for b in range(n):
            if (
                sets[a].issubset(sets[b])
                and theory_meets(sets[a], outs[b])
                and outs[a] != outs[b]
            ):
                return False, n * n, (sets[a], sets[b])
    return True, n * n, None


def _reference_confirmation(op):
    """(holds, checked, first witness): an input that meets K's theory
    leaves K unchanged."""
    sets = _tables(op.universe).sets
    for a, o in zip(sets, op.outputs):
        if theory_meets(a, op.K) and o != op.K:
            return False, len(sets), (a,)
    return True, len(sets), None


def _reference_consistency(op):
    """(holds, checked, first witness): every input not equivalent to the
    contradiction singleton has a consistent outcome."""
    sets = _tables(op.universe).sets
    contradiction = InputSet(op.lang, frozenset({SentenceClass(op.lang, 0)}))
    for a, o in zip(sets, op.outputs):
        if not set_equiv(a, contradiction) and not o.is_consistent:
            return False, len(sets), (a,)
    return True, len(sets), None


def _reference_vacuity(op):
    """(holds, checked, first witness): the empty input returns K; checked
    counts the empty inputs, one per universe."""
    empty = [(a, o) for a, o in zip(_tables(op.universe).sets, op.outputs) if len(a) == 0]
    for a, o in empty:
        if o != op.K:
            return False, len(empty), (a,)
    return True, len(empty), None


_DEFINITIONS = (
    (PostulateId.RELATIVE_SUCCESS, _reference_relative_success),
    (PostulateId.REGULARITY, _reference_regularity),
    (PostulateId.CONFIRMATION, _reference_confirmation),
    (PostulateId.SUCCESS, _reference_success),
    (PostulateId.VACUITY, _reference_vacuity),
    (PostulateId.CONSISTENCY, _reference_consistency),
    (PostulateId.CAUTIOUSNESS, _reference_cautiousness),
)


@pytest.mark.parametrize("n", [16, 17, 137])
def test_meets_checkers_match_definitions(n):
    verdicts = {p: set() for p, _ in _DEFINITIONS}
    for seed in range(3):
        for op in _operators(n, seed):
            for p, reference in _DEFINITIONS:
                report = _CHECKERS[p](op._kernel())
                assert _verdict(report) == reference(op), p.value
                verdicts[p].add(report.holds)
    # with singleton inputs only, a proper subset is empty and meets
    # nothing, so cautiousness holds
    both = {True, False}
    pair_inputs = _universe(n).max_input_size >= 2
    assert verdicts.pop(PostulateId.CAUTIOUSNESS) == (both if pair_inputs else {True})
    assert all(v == both for v in verdicts.values()), verdicts


def test_meets_checkers_match_definitions_at_697():
    op = _operators(697)[2]
    for p, reference in _DEFINITIONS:
        assert _verdict(_CHECKERS[p](op._kernel())) == reference(op), p.value


# Every verdict, count, witness and outcome quotient on the corpus below
# goes into it, so a change to any of them fails here.
REPORT_DIGEST = "2cda97ad1939a77356f42f89acfeb38593cd73ce88a2be169c552cc7ffe77156"


def test_report_digest_pinned():
    h = hashlib.sha256()
    for n in (16, 17, 137, 257, 697):
        for seed in range(3):
            for op in _operators(n, seed):
                reports = check_postulates(op)
                h.update(json.dumps([reports[p].to_dict() for p in PostulateId]).encode())
                h.update(json.dumps(check_equivalences(op).to_dict()).encode())
                k = op._kernel()
                for x in (k.uniq, k.inv, k.ge):
                    h.update(f"{x.dtype.str}{x.shape}".encode())
                    h.update(x.tobytes())
    assert h.hexdigest() == REPORT_DIGEST


def _reference_closure(op):
    """The seed's per-input language scan."""
    for i, o in enumerate(op.outputs):
        if o.lang != op.lang:
            t = _tables(op.universe)
            w = Witness((t.sets[i],), (o,), "outcome over a different language")
            return PostulateReport(PostulateId.CLOSURE, False, len(op.outputs), witness=w)
    return PostulateReport(PostulateId.CLOSURE, True, len(op.outputs))


@pytest.mark.parametrize("n", [16, 17, 137])
def test_closure_flags_foreign_language_output(n):
    u = _universe(n)
    sets = _tables(u).sets
    # an equal but distinct LanguageSpec object is the same language
    twin = LanguageSpec(u.lang.atom_count)
    for op in _operators(n):
        assert _CHECKERS[PostulateId.CLOSURE](op._kernel()) == _reference_closure(op)
        outputs = [BeliefSet(twin, o.mask) if i % 2 else o for i, o in enumerate(op.outputs)]
        same = ChoiceOperator(u, op.K, tuple(outputs))
        assert outputs[1].lang is not u.lang
        assert _CHECKERS[PostulateId.CLOSURE](same._kernel()) == _reference_closure(same)
        assert _reference_closure(same).holds
        # two foreign entries holding one object, and the first in scan
        # order behind an entry that only shares its mask
        foreign = BeliefSet(LanguageSpec(u.lang.atom_count + 1), op.outputs[3].mask)
        outputs[n - 1] = outputs[5] = foreign
        bad = ChoiceOperator(u, op.K, tuple(outputs))
        report = _CHECKERS[PostulateId.CLOSURE](bad._kernel())
        assert report == _reference_closure(bad)
        assert not report.holds and report.checked == n
        assert report.witness.inputs == (sets[5],)
        assert report.witness.outcomes[0] is foreign
        assert witness_violates(bad, PostulateId.CLOSURE, report.witness)
        assert not witness_violates(same, PostulateId.CLOSURE, report.witness)
