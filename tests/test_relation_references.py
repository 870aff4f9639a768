"""Relation postulates against references written from the definitions
(set-level weak coupling, counter dominance and union have theirs in
test_conjunction.py); and a digest over every relation postulate report.

Transitivity: for every pair (a, b) in scan order, a middle element
that a ranks at least as high as and that ranks at least as high as b
forces a to rank at least as high as b.  The reference keeps each row
as an int bitset and ORs the rows of a's successors.  Coupling: two
equally acceptable items have a conjunction exactly as acceptable as
the first; the set-level reference builds each pairwise conjunction
member by member and looks it up by its sorted member masks, skipping
those outside the universe.  Each reference returns the checker's
report: verdict, checked, skipped, and the first witness in scan order,
with the smallest middle element for transitivity.

Minimality, maximality, completeness and determination have set-level
references too, each a loop over the table's rows as lists.  Minimality:
the singletons that stand in the relation to every set are the classes
some consistent theory K entails, searched over every K; then a set
stands in the relation to every set exactly when it shares a class with
K.  Maximality: no nonempty set but the contradiction's singleton has
every nonempty set standing in the relation to it.  Completeness: every
two sets compare one way or the other.  Determination: every nonempty
set stands in the relation to the empty set, and not back.

Every other single-level postulate has a reference as well, a loop over
the rows as lists of booleans.  Weak coupling: a class equally
acceptable with its adjunctions of b and of d is equally acceptable
with their joint adjunction.  Counter dominance: a logically weaker
class is at least as acceptable.  Minimality: the classes that stand to
every class are those some consistent theory K entails, searched over
every K.  Maximality: only the contradiction has every class standing
to it.  Completeness: every two classes compare.

At 3 atoms, where the c^3 definition loop for single-level weak coupling
is too slow, the reference is the per-class loop the single-level checker
ran before it shared the set-level one (`class_loop_weak_coupling`); the
other single-level references run there as they are.

The member-equivalence lemma of the representation proofs is checked
from its definition here (test_believability's lemma checks use it): for
each set and each of its members in scan order, the adjunction of the
member, built with pairwise_conj, keeps the set's rank exactly when the
member alone is as acceptable as the set.
"""

import functools
import hashlib
import json
import random

import numpy as np
import pytest

from test_conjunction import (
    _breaking_flip,
    _corpus,
    _flip_multi,
    _models,
    _reference_tables,
    _reference_weak_coupling,
    _universe,
)
from test_conj_table import assert_conj_table, pair_gather_weak_coupling
from test_logic import pairwise_conj

from choicerev.believability import (
    QUASI_LINEAR_POSTULATES,
    BelievabilityRelation,
    MultiBelievabilityRelation,
    RelationPostulateId,
    RelationReport,
    RelationWitness,
    _check_multi,
    check_relation_postulate,
    derive_mb_from_operator,
    lift,
    project,
    random_quasi_linear,
)
from choicerev.logic import InputSet, LanguageSpec, SentenceClass
from choicerev.models import GenerationError, ModelFlags, generate_model
from choicerev.operators import ChoiceOperator, _class_tables, _tables, random_operator
from choicerev.synthesis import verify_roundtrip_relation, verify_translation

TR = RelationPostulateId.TRANSITIVITY
CP = RelationPostulateId.COUPLING
WC = RelationPostulateId.WEAK_COUPLING
CD = RelationPostulateId.COUNTER_DOMINANCE
MN = RelationPostulateId.MINIMALITY
MX = RelationPostulateId.MAXIMALITY
CM = RelationPostulateId.COMPLETENESS
DT = RelationPostulateId.DETERMINATION

CHAIN = "chain holds but the endpoints do not compare"


def _bits(x):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _int_rows(m):
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in m]


def _transitivity_witness(rows, items):
    """(a, mid, b) for the first pair (a, b) in scan order with a middle
    element but no comparison, the smallest such mid; None if none."""
    for a, row in enumerate(rows):
        two = 0
        for mid in _bits(row):
            two |= rows[mid]
        bad = two & ~row
        if bad:
            b = (bad & -bad).bit_length() - 1
            mid = next(mid for mid in _bits(row) if rows[mid] >> b & 1)
            return RelationWitness((items[a], items[mid], items[b]), CHAIN)
    return None


def reference_single_transitivity(r):
    c = r.class_count
    items = [SentenceClass(r.lang, x) for x in range(c)]
    w = _transitivity_witness(list(r.rows), items)
    return RelationReport(TR, "single", w is None, c ** 3, 0, w)


def reference_multi_transitivity(rel, u):
    sets = _tables(u).sets
    n = len(sets)
    w = _transitivity_witness(_int_rows(rel.table_over(u)), sets)
    return RelationReport(TR, "multi", w is None, n ** 3, 0, w)


def reference_single_coupling(r):
    c = r.class_count
    ge = [[bool(row >> y & 1) for y in range(c)] for row in r.rows]
    first = None
    for a in range(c):
        for b in range(c):
            ab = a & b
            if ge[a][b] and ge[b][a] and not (ge[a][ab] and ge[ab][a]):
                first = RelationWitness(
                    tuple(SentenceClass(r.lang, x) for x in (a, b, ab)),
                    "equally acceptable pair whose conjunction drops rank",
                )
                break
        if first:
            break
    return RelationReport(CP, "single", first is None, c * c, 0, first)


def reference_multi_coupling(rel, u):
    t = _tables(u)
    ge = rel.table_over(u).tolist()
    sets = t.sets
    checked = skipped = 0
    first = None
    for a, sa in enumerate(sets):
        for b, sb in enumerate(sets):
            members = {x & y for x in sa.mask_tuple for y in sb.mask_tuple}
            ab = t.index.get(tuple(sorted(members)))
            if ab is None:
                skipped += 1
                continue
            checked += 1
            if first is None and ge[a][b] and ge[b][a] and not (ge[a][ab] and ge[ab][a]):
                first = RelationWitness(
                    (sa, sb, sets[ab]),
                    "equally acceptable pair whose pairwise conjunction drops rank",
                )
    return RelationReport(CP, "multi", first is None, checked, skipped, first)


def _ge(r):
    return [[bool(row >> y & 1) for y in range(r.class_count)] for row in r.rows]


def reference_single_weak_coupling(r):
    """Two adjunctions that each keep a's rank keep it together: for
    every (a, b, d) in scan order, a equally acceptable with a&b and with
    a&d forces a equally acceptable with a&b&d."""
    c = r.class_count
    ge = _ge(r)
    for a in range(c):
        for b in range(c):
            for d in range(c):
                ab, ad, abd = a & b, a & d, a & b & d
                if (ge[a][ab] and ge[ab][a] and ge[a][ad] and ge[ad][a]
                        and not (ge[a][abd] and ge[abd][a])):
                    w = RelationWitness(
                        tuple(SentenceClass(r.lang, x) for x in (a, b, d)),
                        "both single adjunctions keep rank but the joint one drops it",
                    )
                    return RelationReport(WC, "single", False, c ** 3, 0, w)
    return RelationReport(WC, "single", True, c ** 3)


def reference_single_counter_dominance(r):
    """A logically weaker class is at least as acceptable: for every
    (a, b) in scan order, a entailing b forces b over a."""
    c = r.class_count
    ge = _ge(r)
    for a in range(c):
        for b in range(c):
            if a & ~b == 0 and not ge[b][a]:
                w = RelationWitness(
                    (SentenceClass(r.lang, a), SentenceClass(r.lang, b)),
                    "logically weaker class is not at least as acceptable",
                )
                return RelationReport(CD, "single", False, c * c, 0, w)
    return RelationReport(CD, "single", True, c * c)


def reference_single_minimality(r):
    """The classes that stand to every class are the classes some
    consistent theory K entails, searched over every K.  When none is,
    the witness is empty if those classes share no model, and else the
    smallest class they entail together that does not stand to every
    class."""
    c = r.class_count
    full = r.lang.full_mask
    bottom = {x for x, row in enumerate(_ge(r)) if all(row)}
    if any(bottom == {x for x in range(c) if k & ~x == 0} for k in range(1, c)):
        return RelationReport(MN, "single", True, c)
    shared = functools.reduce(lambda k, x: k & x, bottom, full)
    if shared == 0:
        w = RelationWitness((), "universally acceptable classes force an inconsistent state")
    else:
        off = min(x for x in range(c) if shared & ~x == 0 and x not in bottom)
        w = RelationWitness(
            (SentenceClass(r.lang, off),),
            "universally acceptable classes do not form a deductively closed theory",
        )
    return RelationReport(MN, "single", False, c, 0, w)


def reference_single_maximality(r):
    """Only the contradiction may have every class standing to it; the
    witness is the smallest other class that does."""
    c = r.class_count
    ge = _ge(r)
    for b in range(1, c):
        if all(ge[a][b] for a in range(c)):
            w = RelationWitness(
                (SentenceClass(r.lang, b),), "a satisfiable class sits at the very top"
            )
            return RelationReport(MX, "single", False, c, 0, w)
    return RelationReport(MX, "single", True, c)


def reference_single_completeness(r):
    """Every two classes compare one way or the other; the witness is the
    first incomparable pair in scan order."""
    c = r.class_count
    ge = _ge(r)
    for a in range(c):
        for b in range(c):
            if not ge[a][b] and not ge[b][a]:
                w = RelationWitness(
                    (SentenceClass(r.lang, a), SentenceClass(r.lang, b)), "incomparable pair"
                )
                return RelationReport(CM, "single", False, c * c, 0, w)
    return RelationReport(CM, "single", True, c * c)


SINGLE_REFERENCES = {
    TR: reference_single_transitivity,
    CP: reference_single_coupling,
    WC: reference_single_weak_coupling,
    CD: reference_single_counter_dominance,
    MN: reference_single_minimality,
    MX: reference_single_maximality,
    CM: reference_single_completeness,
}


def _flip_single(r, i, j):
    rows = list(r.rows)
    rows[i] ^= 1 << j
    return BelievabilityRelation(r.lang, tuple(rows))


def _transitivity_cells(m):
    """Cells (a, b), a != b, with a middle element distinct from both:
    clearing one may break transitivity."""
    ints = m.astype(np.int64)
    diag = np.diag(ints)
    strict_mid = ints @ ints - diag[:, None] * ints - ints * diag[None, :]
    return [(int(a), int(b)) for a, b in np.argwhere(m & (strict_mid > 0)) if a != b]


def _coupling_cells(m, conj):
    """Cells (a, A conj B) for equally acceptable A, B whose conjunction is
    a third item: clearing one may break coupling."""
    eq = m & m.T
    out = []
    for a, b in np.argwhere(eq):
        ab = int(conj(int(a), int(b)))
        if ab >= 0 and ab not in (a, b) and m[a, ab]:
            out.append((int(a), ab))
    return out


def single_relations():
    """Quasi-linear draws, arbitrary rows and one-entry flips of the draws
    at 1 and 2 atoms."""
    rng = random.Random(5)
    out = []
    for atoms in (1, 2):
        lang = LanguageSpec(atoms)
        c = lang.full_mask + 1
        draws = [random_quasi_linear(seed, lang) for seed in range(12)]
        out += draws
        out += [BelievabilityRelation(lang, tuple(rng.getrandbits(c) for _ in range(c)))
                for _ in range(6)]
        out += [_flip_single(r, rng.randrange(c), rng.randrange(c)) for r in draws]
    return out


def _forced_bottom_relations(count=60):
    """2-atom random rows, about a third of them all True: minimality
    fails with several jointly entailed classes missing, so the witness
    must be the smallest of them."""
    rng = random.Random(19)
    lang = LanguageSpec(2)
    c = lang.full_mask + 1
    full = (1 << c) - 1
    out = []
    for _ in range(count):
        rows = [full if rng.random() < 0.3 else rng.getrandbits(c) & ~(1 << rng.randrange(c))
                for _ in range(c)]
        out.append(BelievabilityRelation(lang, tuple(rows)))
    return out


def test_single_checkers_match_references():
    verdicts = {p: set() for p in SINGLE_REFERENCES}
    for r in single_relations() + _forced_bottom_relations():
        for p, reference in SINGLE_REFERENCES.items():
            got = check_relation_postulate(r, p)
            assert got == reference(r), (p.value, r.rows)
            verdicts[p].add(got.holds)
    assert all(v == {True, False} for v in verdicts.values()), verdicts


def _single_breaking_cells(m, p):
    """Cells whose flip breaks p on a matrix where p holds: for a ranking
    a with a&b and a&d, the cell (a, a&b&d) when that is a fourth class
    (weak coupling); a cell (b, a) with a entailing b (counter
    dominance); a cell of a row that stands to every class, unless the
    rest of those rows is the tautology's alone (minimality); the one
    missing cell of a column at a satisfiable class (maximality); a
    one-way or reflexive comparison (completeness)."""
    c = len(m)
    if p == WC:
        eq = m & m.T
        out = set()
        for a in range(c):
            for b in range(c):
                for d in range(c):
                    t = a & b & d
                    if eq[a, a & b] and eq[a, a & d] and t not in (a, a & b, a & d):
                        out.add((a, t))
        return sorted(out)
    if p == CD:
        masks = np.arange(c)
        cells = ((masks[None, :] & ~masks[:, None]) == 0) & m
    elif p == MN:
        bottom = m.all(axis=1)
        rest_is_top = [set(np.flatnonzero(bottom)) - {x} == {c - 1} for x in range(c)]
        cells = (bottom & ~np.array(rest_is_top))[:, None] & m
    elif p == MX:
        top = ((~m).sum(axis=0) == 1) & (np.arange(c) != 0)
        cells = ~m & top[None, :]
    else:
        cells = (m & ~m.T) | (np.eye(c, dtype=bool) & m)
    return [(int(a), int(b)) for a, b in np.argwhere(cells)]


def test_single_holds_breaks_under_flip():
    """A passing verdict on a draw turns false under a one-entry flip the
    reference says breaks the postulate.  A one-atom draw may have no two
    equally acceptable classes whose conjunction is a third class.  Every
    candidate cell of `_single_breaking_cells` breaks, so one is found
    whenever there is one."""
    broken_count = {p: 0 for p in SINGLE_REFERENCES}
    for atoms in (1, 2):
        lang = LanguageSpec(atoms)
        for seed in range(6):
            r = random_quasi_linear(seed, lang)
            m = r.matrix()
            for p, reference in SINGLE_REFERENCES.items():
                if p == TR:
                    cells = _transitivity_cells(m)
                elif p == CP:
                    cells = _coupling_cells(m, lambda a, b: a & b)
                else:
                    cells = _single_breaking_cells(m, p)
                assert check_relation_postulate(r, p).holds
                found = _breaking_flip(cells, functools.partial(_flip_single, r), reference, seed)
                assert (found is not None) == bool(cells), (p.value, seed)
                if found:
                    broken, want = found
                    assert check_relation_postulate(broken, p) == want
                    broken_count[p] += 1
    assert min(broken_count.values()) >= 5, broken_count


def class_loop_weak_coupling(r):
    """Single-level weak coupling as its own checker ran it before it
    shared the set-level one: per class a, the c*c table of premise pairs
    and conclusions.  Unlike the definition's c^3 Python loop it runs at
    3 atoms, in about 60 ms."""
    c = r.class_count
    masks = np.arange(c)
    m = r.matrix()
    eq = m & m.T
    for a in range(c):
        prem = eq[a, a & masks]
        concl = eq[a, (a & masks)[:, None] & masks[None, :]]
        viol = prem[:, None] & prem[None, :] & ~concl
        if viol.any():
            b, d = (int(v) for v in np.argwhere(viol)[0])
            w = RelationWitness(
                tuple(SentenceClass(r.lang, x) for x in (a, b, d)),
                "both single adjunctions keep rank but the joint one drops it",
            )
            return RelationReport(WC, "single", False, c ** 3, 0, w)
    return RelationReport(WC, "single", True, c ** 3)


def _weak_coupling_cells(m):
    """Cells (a, a&b&d) that hold, with a equally acceptable with a&b and
    with a&d and a&b&d a fourth class: clearing one breaks weak coupling.
    The per-class form of `_single_breaking_cells`, for 3 atoms."""
    eq = m & m.T
    out = []
    for a in range(len(m)):
        adj = a & np.arange(len(m))
        keep = np.unique(adj[eq[a, adj]])
        joint = keep[:, None] & keep[None, :]
        fourth = (joint != keep[:, None]) & (joint != keep[None, :]) & (joint != a)
        out += [(a, int(x)) for x in np.unique(joint[fourth]) if m[a, x]]
    return out


@functools.lru_cache(maxsize=None)
def three_atom_relations():
    """Projections of the set-level relations derived from has_leq3 models
    over 3 atoms at max_input_size 1, each followed by a random one-cell
    flip and a flip that clears a weak-coupling conclusion."""
    lang = LanguageSpec(3)
    rng = random.Random(3)
    models = []
    while len(models) < 6:
        flags = ModelFlags(rng.random() < 0.5, has_leq3=True)
        try:
            models.append(generate_model(rng.randrange(1 << 30), lang, rng.randint(1, 12), flags))
        except GenerationError:
            continue
    out = []
    for model in models:
        r = project(derive_mb_from_operator(ChoiceOperator.from_model(model, 1)))
        c = r.class_count
        out += [r, _flip_single(r, rng.randrange(c), rng.randrange(c))]
        cells = _weak_coupling_cells(r.matrix())
        if cells:
            out.append(_flip_single(r, *rng.choice(cells)))
    return out


def test_single_weak_coupling_matches_class_loop():
    """The shared checker against the former per-class loop: verdict,
    counts and first witness, at 1 and 2 atoms (where the loop also
    matches the definition) and on 3-atom projections and their flips."""
    for r in single_relations() + _forced_bottom_relations():
        assert class_loop_weak_coupling(r) == reference_single_weak_coupling(r), r.rows
        assert check_relation_postulate(r, WC) == class_loop_weak_coupling(r), r.rows
    verdicts = set()
    for r in three_atom_relations():
        got = check_relation_postulate(r, WC)
        assert got == class_loop_weak_coupling(r), r.rows
        verdicts.add(got.holds)
    assert verdicts == {True, False}


def test_single_checkers_match_references_at_3_atoms():
    """Every single-level reference that runs in under a second at 3
    atoms (all but weak coupling's, which is c^3 Python steps)."""
    verdicts = {p: set() for p in SINGLE_REFERENCES if p != WC}
    for r in three_atom_relations():
        for p in verdicts:
            got = check_relation_postulate(r, p)
            assert got == SINGLE_REFERENCES[p](r), (p.value, r.rows)
            verdicts[p].add(got.holds)
    # no draw puts a satisfiable class at the very top
    assert all(v == {True, False} for p, v in verdicts.items() if p != MX), verdicts


@pytest.mark.parametrize("atoms", [1, 2, 3])
def test_class_layout_matches_brute_force(atoms):
    """_class_tables(lang): item x is class x, the conjunction index is
    a & b, and conj_table holds every cell as a coupling cell and the
    distinct weak-coupling quadruples (a, a & b, a & d, a & b & d) of
    every (a, b, d), every cell checking all c classes d."""
    lang = LanguageSpec(atoms)
    c = lang.full_mask + 1
    layout = _class_tables(lang)
    assert [s.mask for s in layout.sets] == list(range(c))
    assert layout.conj_index.tolist() == [[a & b for b in range(c)] for a in range(c)]
    c2 = layout.conj_index
    assert_conj_table(layout.conj_table, c2, lambda a: a & c2)
    assert len(layout.conj_table.cells) == c * c
    # every conjunction of two classes is a class: no (a, b, d) is skipped
    assert (layout.conj_table.checked, layout.conj_table.skipped) == (c ** 3, 0)


def test_single_weak_coupling_matches_pair_gather():
    """The table-gather checker against the pair-gather one it replaced,
    over the class layout at 1-3 atoms: verdict, counts, first witness."""
    verdicts = set()
    for r in single_relations() + _forced_bottom_relations() + three_atom_relations():
        layout = _class_tables(r.lang)
        got = check_relation_postulate(r, WC)
        assert got == pair_gather_weak_coupling(r.matrix(), layout.sets, layout.conj_index,
                                                "single"), r.rows
        verdicts.add(got.holds)
    assert verdicts == {True, False}


def _multi_cases(n):
    u = _universe(n)
    return u, _corpus(u, seed=n)


@pytest.mark.parametrize("n", [16, 17, 137])
def test_multi_checkers_match_references(n):
    u, rels = _multi_cases(n)
    verdicts = {TR: set(), CP: set()}
    for rel in rels:
        for p, reference in ((TR, reference_multi_transitivity), (CP, reference_multi_coupling)):
            got = _check_multi(rel, p)
            assert got.to_dict() == reference(rel, u).to_dict(), p.value
            verdicts[p].add(got.holds)
    assert verdicts == {TR: {True, False}, CP: {True, False}}


def _multi_breaking_flips(rel, u, seed):
    """(postulate, flipped relation, reference report) for transitivity and
    coupling, where the relation holds and a breaking flip is found."""
    t = _tables(u)
    m = rel.table_over(u)
    flip = functools.partial(_flip_multi, rel, u)
    out = []
    cases = (
        (TR, reference_multi_transitivity, lambda: _transitivity_cells(m)),
        (CP, reference_multi_coupling, lambda: _coupling_cells(m, lambda a, b: t.conj_index[a, b])),
    )
    for p, reference, cells in cases:
        if not _check_multi(rel, p).holds:
            continue
        found = _breaking_flip(cells(), flip, lambda r: reference(r, u), seed)
        if found:
            out.append((p, *found))
    return out


@pytest.mark.parametrize("n", [16, 17, 137])
def test_multi_holds_breaks_under_flip(n):
    """Each passing transitivity or coupling verdict on a derived or lifted
    relation turns false under a flip the reference says breaks it, and
    weak coupling on the flipped tables matches its own references."""
    u, rels = _multi_cases(n)
    c2, c3 = _reference_tables(n)
    broken = {TR: 0, CP: 0}
    for i, rel in enumerate(rels):
        for p, flipped, want in _multi_breaking_flips(rel, u, seed=i):
            assert not want.holds
            assert _check_multi(flipped, p).to_dict() == want.to_dict()
            got_wc = _check_multi(flipped, WC)
            assert got_wc.to_dict() == _reference_weak_coupling(flipped, u, c2, c3).to_dict()
            broken[p] += 1
    assert broken[TR] >= 5 and broken[CP] >= 5, broken


def test_multi_checkers_match_references_at_697():
    """A derived relation, and the one-entry flip that clears a comparison
    a chain a -> mid -> b implies."""
    u = _universe(697)
    model = _models(u.lang, 1, seed=697)[0]
    rel = derive_mb_from_operator(ChoiceOperator.from_model(model, u.max_input_size))
    m = rel.table_over(u)
    rng = random.Random(697)
    a, mid, b = next(
        (a, mid, b)
        for a, mid, b in (rng.sample(range(697), 3) for _ in range(10000))
        if m[a, mid] and m[mid, b] and m[a, b]
    )
    verdicts = []
    for r in (rel, _flip_multi(rel, u, a, b)):
        for p, reference in ((TR, reference_multi_transitivity), (CP, reference_multi_coupling)):
            got = _check_multi(r, p)
            assert got.to_dict() == reference(r, u).to_dict(), p.value
            verdicts.append(got.holds)
    assert verdicts[0] and not verdicts[2]


def reference_multi_minimality(rel, u):
    """c + n instances: one per class, one per set.  The witness is empty
    when the singletons fix no consistent closed theory, else the first
    set whose standing disagrees with sharing a class with it."""
    t = _tables(u)
    sets = t.sets
    c = u.lang.full_mask + 1
    n = len(sets)
    to_all = [all(row) for row in rel.table_over(u).tolist()]
    theory = {x for x in range(c) if to_all[t.index[(x,)]]}
    # the classes K entails are those holding in every model of K
    if not any(theory == {x for x in range(c) if k & ~x == 0} for k in range(1, c)):
        w = RelationWitness(
            (), "universally acceptable singletons do not determine a consistent closed theory"
        )
        return RelationReport(MN, "multi", False, c + n, 0, w)
    for s, stands in zip(sets, to_all):
        if stands != any(x in theory for x in s.mask_tuple):
            w = RelationWitness(
                (s,),
                "set ranks below everything exactly when it shares a class with the prior theory; this one does not",
            )
            return RelationReport(MN, "multi", False, c + n, 0, w)
    return RelationReport(MN, "multi", True, c + n)


def reference_multi_maximality(rel, u):
    sets = _tables(u).sets
    ge = rel.table_over(u).tolist()
    nonempty = [a for a, s in enumerate(sets) if s.mask_tuple]
    for b in nonempty:
        if sets[b].mask_tuple != (0,) and all(ge[a][b] for a in nonempty):
            w = RelationWitness(
                (sets[b],), "a set other than the contradiction singleton sits at the very top"
            )
            return RelationReport(MX, "multi", False, len(sets), 0, w)
    return RelationReport(MX, "multi", True, len(sets))


def reference_multi_completeness(rel, u):
    sets = _tables(u).sets
    ge = rel.table_over(u).tolist()
    for a, row in enumerate(ge):
        for b, holds in enumerate(row):
            if not holds and not ge[b][a]:
                w = RelationWitness((sets[a], sets[b]), "incomparable pair")
                return RelationReport(CM, "multi", False, len(sets) ** 2, 0, w)
    return RelationReport(CM, "multi", True, len(sets) ** 2)


def reference_multi_determination(rel, u):
    sets = _tables(u).sets
    ge = rel.table_over(u).tolist()
    e = next(i for i, s in enumerate(sets) if not s.mask_tuple)
    for a, s in enumerate(sets):
        if s.mask_tuple and not (ge[a][e] and not ge[e][a]):
            w = RelationWitness(
                (s,), "nonempty set not strictly easier to accept than the empty set"
            )
            return RelationReport(DT, "multi", False, len(sets), 0, w)
    return RelationReport(DT, "multi", True, len(sets))


SET_REFERENCES = {
    MN: reference_multi_minimality,
    MX: reference_multi_maximality,
    CM: reference_multi_completeness,
    DT: reference_multi_determination,
}


def _set_breaking_cells(m, u, p):
    """Cells whose flip breaks p on a table where p holds: a cell of a row
    that stands to every set, or the one missing cell of a row (minimality);
    the one missing cell of a column over the nonempty rows, at a nonempty
    set but the contradiction's singleton (maximality); a one-way or
    reflexive comparison (completeness); a nonempty set's comparison with
    the empty set, either way (determination)."""
    t = _tables(u)
    n = len(t.sets)
    nonempty = t.sizes > 0
    if p == MN:
        cells = m.all(axis=1)[:, None] | (((~m).sum(axis=1) == 1)[:, None] & ~m)
    elif p == MX:
        miss = ~m & nonempty[:, None]
        top = nonempty & (miss.sum(axis=0) == 1) & (np.arange(n) != t.index.get((0,), -1))
        cells = miss & top[None, :]
    elif p == CM:
        cells = (m & ~m.T) | (np.eye(n, dtype=bool) & m)
    else:
        e = t.empty_index
        cells = np.zeros((n, n), dtype=bool)
        cells[:, e] = nonempty & m[:, e]
        cells[e, :] = nonempty & ~m[e, :]
    return [(int(a), int(b)) for a, b in np.argwhere(cells)]


@pytest.mark.parametrize("n", [16, 17, 137])
def test_multi_set_checkers_match_references(n):
    u, rels = _multi_cases(n)
    verdicts = {p: set() for p in SET_REFERENCES}
    for rel in rels:
        for p, reference in SET_REFERENCES.items():
            got = _check_multi(rel, p)
            assert got.to_dict() == reference(rel, u).to_dict(), p.value
            verdicts[p].add(got.holds)
    assert all(v == {True, False} for v in verdicts.values()), verdicts


@pytest.mark.parametrize("n", [16, 17, 137])
def test_multi_set_holds_breaks_under_flip(n):
    """Each passing minimality, maximality, completeness or determination
    verdict turns false under a one-entry flip the reference says breaks
    it; every candidate cell breaks, so one is found whenever there is one."""
    u, rels = _multi_cases(n)
    broken = {p: 0 for p in SET_REFERENCES}
    for i, rel in enumerate(rels):
        m = rel.table_over(u)
        flip = functools.partial(_flip_multi, rel, u)
        for p, reference in SET_REFERENCES.items():
            if not _check_multi(rel, p).holds:
                continue
            cells = _set_breaking_cells(m, u, p)
            found = _breaking_flip(cells, flip, lambda r: reference(r, u), seed=i)
            assert (found is not None) == bool(cells), (p.value, i)
            if found:
                flipped, want = found
                assert _check_multi(flipped, p).to_dict() == want.to_dict()
                broken[p] += 1
    assert min(broken.values()) >= 3, broken


def test_multi_set_checkers_match_references_at_697():
    """A derived relation, and for each postulate that holds on it a
    one-entry flip that breaks it."""
    u = _universe(697)
    model = _models(u.lang, 1, seed=697)[0]
    rel = derive_mb_from_operator(ChoiceOperator.from_model(model, u.max_input_size))
    m = rel.table_over(u)
    verdicts = {}
    for p, reference in SET_REFERENCES.items():
        got = _check_multi(rel, p)
        assert got.to_dict() == reference(rel, u).to_dict(), p.value
        verdicts[p] = got.holds
        if not got.holds:
            continue
        flip = functools.partial(_flip_multi, rel, u)
        found = _breaking_flip(_set_breaking_cells(m, u, p), flip, lambda r: reference(r, u), 697, tries=3)
        assert found is not None, p.value
        flipped, want = found
        assert _check_multi(flipped, p).to_dict() == want.to_dict()
    assert verdicts == {MN: True, MX: False, CM: True, DT: True}


@functools.lru_cache(maxsize=None)
def _member_adjunctions(u):
    """(set, adjunction, singleton) indices of every set and member of
    the universe in scan order, the adjunction built with pairwise_conj."""
    t = _tables(u)
    out = []
    for i, a in enumerate(t.sets):
        for c in a:
            single = InputSet.of(u.lang, c)
            out.append((i, t.index[pairwise_conj(a, single).mask_tuple], t.index[single.mask_tuple]))
    return out


def reference_member_equivalence(rel):
    """Every (set, singleton of a member) pair, in scan order, where the
    adjunction test and the member test disagree."""
    u = rel.universe
    sets = _tables(u).sets
    m = rel.table_over(u)
    eq = (m & m.T).tolist()
    return [(sets[i], sets[s]) for i, j, s in _member_adjunctions(u) if eq[i][j] != eq[s][i]]


@pytest.mark.parametrize("n", [16, 17, 137])
def test_member_equivalence_reference_verdicts(n):
    """Random tables at five densities and two lifts.  With singletons
    only (n=17) every adjunction is the set itself, so the check always
    holds; at n=16 and 137 it fails too."""
    u = _universe(n)
    rng = np.random.default_rng(n)
    rels = [lift(random_quasi_linear(n + s, u.lang), u.max_input_size) for s in range(2)]
    for density in (0.3, 0.6, 0.9, 0.97, 0.99):
        rels += [MultiBelievabilityRelation.from_table(u, rng.random((n, n)) < density)
                 for _ in range(5)]
    verdicts = {not reference_member_equivalence(rel) for rel in rels}
    assert verdicts == ({True} if n == 17 else {True, False})


# Every relation postulate report on the corpus below, and every round-trip
# and translation report at n=137, goes into it, so a change to any
# verdict, count, witness or artifact fails here.
RELATION_REPORT_DIGEST = "2eb9c93a36b5d5bc78284ac971a37bcbaca54014a3b697f575e70a0978302d42"


def test_relation_report_digest_pinned():
    h = hashlib.sha256()

    def add(report):
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode())

    for n in (16, 17, 137):
        u, rels = _multi_cases(n)
        for rel in rels:
            for p in RelationPostulateId:
                add(check_relation_postulate(rel, p))
    rng = random.Random(14)
    for atoms in (1, 2):
        lang = LanguageSpec(atoms)
        c = lang.full_mask + 1
        for seed in range(12):
            r = random_quasi_linear(seed, lang)
            for rel in (r, _flip_single(r, rng.randrange(c), rng.randrange(c))):
                for p in QUASI_LINEAR_POSTULATES:
                    add(check_relation_postulate(rel, p))
    u = _universe(137)
    ops = [ChoiceOperator.from_model(m, u.max_input_size) for m in _models(u.lang, 8, seed=14)]
    ops += [random_operator(s, u) for s in range(2)]
    for op in ops:
        add(verify_roundtrip_relation(op))
        add(verify_roundtrip_relation(op, standard=True))
    for seed in range(8):
        r = random_quasi_linear(seed, u.lang)
        add(verify_translation(r))
        add(verify_translation(lift(r, 2)))
        add(verify_translation(_flip_single(r, rng.randrange(16), rng.randrange(16))))
    for op in ops[:4]:
        add(verify_translation(derive_mb_from_operator(op)))
    assert h.hexdigest() == RELATION_REPORT_DIGEST
