"""Believability orderings and their set-level counterparts.

A single-sentence relation ranks sentence classes by how willing the
agent is to accept them; the set-level relation compares finite input
sets ("it is at least as easy to accept some member of A as some member
of B").  A set-level relation is one n*n table over one bounded
universe: a table given directly (from_table, which also holds the
ordering derived from a choice operator's outcome table and every
relation read from a file) or the best-member lift of a single-sentence
relation, tabled over the universe it is asked for.  Postulate suites
for both levels, the lift/projection translations and relation-driven
revision live here; the lemmas that the representation proofs use
(member reduction, representation elements, coupling collapse) are
checked from their definitions by the test battery.

Each relation postulate has one checker, which reads a table over a
layout: a universe's input sets with their pairwise conjunctions, or a
language's classes with a & b (operators._class_tables, the one class
layout, which the single-sentence operator battery runs on too).  Each
level has one table from its postulates to their checkers
(_LEVEL_CHECKERS), and transitivity, coupling, weak coupling and
completeness, which both levels state alike, sit in both tables.  One
function (_check) turns a checker's verdict into the report and its
witness, and one (_first_failing) finds the first postulate of a list
that a relation fails, for is_quasi_linear and the round trips.

The translations and the artifact writer are table operations: a single
relation's rows unpack to a c*c bool matrix, the lift's table over a
universe is two member folds of it (_Tables.over_members), a projection
reads the singleton rows and columns of a set-level table, and an
artifact or its JSON text walks a table's rows against encodings, or
their JSON strings, kept once per language or universe.  None of them
makes a point query per pair.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional, Union

import numpy as np

from . import graphs
from .logic import (
    BeliefSet,
    InputSet,
    LanguageError,
    LanguageSpec,
    SentenceClass,
)
from .models import GenerationError, _load_json
from .operators import (
    ChoiceOperator,
    OutsideUniverseError,
    UniverseSpec,
    _class_tables,
    _ClassTables,
    _first_true,
    _Tables,
    _tables,
)


class RelationOperationError(ValueError):
    """A relation operation hit a precondition failure at runtime."""


class RelationFormatError(ValueError):
    """Malformed relation file; message carries the offending location."""


class RelationPostulateId(str, Enum):
    TRANSITIVITY = "transitivity"
    WEAK_COUPLING = "weak_coupling"
    COUPLING = "coupling"
    COUNTER_DOMINANCE = "counter_dominance"
    MINIMALITY = "minimality"
    MAXIMALITY = "maximality"
    COMPLETENESS = "completeness"
    DETERMINATION = "determination"
    UNION = "union"


QUASI_LINEAR_POSTULATES = (
    RelationPostulateId.TRANSITIVITY,
    RelationPostulateId.WEAK_COUPLING,
    RelationPostulateId.COUPLING,
    RelationPostulateId.COUNTER_DOMINANCE,
    RelationPostulateId.MINIMALITY,
    RelationPostulateId.MAXIMALITY,
    RelationPostulateId.COMPLETENESS,
)

STANDARD_POSTULATES = tuple(RelationPostulateId)


@dataclass(frozen=True)
class RelationWitness:
    items: tuple[Union[SentenceClass, InputSet], ...]
    note: str

    def to_dict(self) -> dict:
        return {"items": [x.encode() for x in self.items], "note": self.note}


@dataclass(frozen=True)
class RelationReport:
    postulate: RelationPostulateId
    variant: str  # "single" | "multi"
    holds: bool
    checked: int
    skipped: int = 0
    witness: Optional[RelationWitness] = None

    def to_dict(self) -> dict:
        return {
            "postulate": self.postulate.value,
            "variant": self.variant,
            "holds": self.holds,
            "checked": self.checked,
            "skipped": self.skipped,
            "witness": self.witness.to_dict() if self.witness else None,
        }


# ---------------------------------------------------------------------------
# Single-sentence relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BelievabilityRelation:
    """Total boolean matrix over sentence classes, one row bitmask per class.

    Bit j of rows[i] set means: the class with mask i is at least as easy
    to accept as the class with mask j.
    """

    lang: LanguageSpec
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        self.lang.require_exhaustive()
        c = self.lang.full_mask + 1
        if len(self.rows) != c:
            raise ValueError(f"expected {c} rows, got {len(self.rows)}")
        limit = 1 << c
        for i, r in enumerate(self.rows):
            if not 0 <= r < limit:
                raise ValueError(f"row {i} out of range")

    @property
    def class_count(self) -> int:
        return self.lang.full_mask + 1

    def holds(self, a: SentenceClass, b: SentenceClass) -> bool:
        self.lang.require_own(a, "a relation")
        self.lang.require_own(b, "a relation")
        return bool((self.rows[a.mask] >> b.mask) & 1)

    def equiv(self, a: SentenceClass, b: SentenceClass) -> bool:
        return self.holds(a, b) and self.holds(b, a)

    def matrix(self) -> np.ndarray:
        """c*c bools, bit j of rows[i] at [i, j]: the rows' little-endian
        bytes, unpacked in little bit order."""
        c = self.class_count
        width = (c + 7) // 8
        raw = b"".join(r.to_bytes(width, "little") for r in self.rows)
        packed = np.frombuffer(raw, dtype=np.uint8).reshape(c, width)
        return np.unpackbits(packed, axis=1, count=c, bitorder="little").view(bool)

    @classmethod
    def from_matrix(cls, lang: LanguageSpec, m: np.ndarray) -> "BelievabilityRelation":
        """The inverse of matrix(); m must be c*c, nonzero entries hold."""
        c = lang.full_mask + 1
        m = np.asarray(m, dtype=bool)
        if m.shape != (c, c):
            raise ValueError(f"expected a {c}x{c} matrix, got {m.shape}")
        packed = np.packbits(m, axis=1, bitorder="little")
        return cls(lang, tuple(int.from_bytes(row.tobytes(), "little") for row in packed))

    @classmethod
    def from_layers(cls, lang: LanguageSpec, layers: list[list[int]]) -> "BelievabilityRelation":
        """Total preorder: class in an earlier layer is easier to accept."""
        c = lang.full_mask + 1
        rank = {}
        for i, layer in enumerate(layers):
            for m in layer:
                rank[m] = i
        total = sum(len(layer) for layer in layers)
        if total != c or sorted(rank) != list(range(c)):
            raise ValueError("layers must partition the class universe")
        rows = tuple(
            sum(1 << j for j in range(c) if rank[i] <= rank[j]) for i in range(c)
        )
        return cls(lang, rows)

    def layers(self) -> list[list[int]]:
        """Recover ordered layers when the relation is a total preorder."""
        c = self.class_count
        score = [bin(self.rows[i]).count("1") for i in range(c)]
        order = sorted(range(c), key=lambda i: -score[i])
        out: list[list[int]] = []
        for i in order:
            if out and score[out[-1][0]] == score[i]:
                out[-1].append(i)
            else:
                out.append([i])
        return out


# ---------------------------------------------------------------------------
# Set-level relations
# ---------------------------------------------------------------------------

class MultiBelievabilityRelation:
    """Set-level comparison: one n*n bool table over one bounded universe.

    Built by from_table or lift.  holds and table_over answer for that
    universe only: an input outside it, or over another language, raises
    OutsideUniverseError, and a table over another universe ValueError.
    """

    def __init__(self, u: UniverseSpec, table: np.ndarray):
        self.lang = u.lang
        self.universe = u
        self._table = table
        self._rows: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def holds(self, a: InputSet, b: InputSet) -> bool:
        t = _tables(self.universe)
        return bool(self._table[t.lookup(a), t.lookup(b)])

    def strictly(self, a: InputSet, b: InputSet) -> bool:
        return self.holds(a, b) and not self.holds(b, a)

    def equiv(self, a: InputSet, b: InputSet) -> bool:
        return self.holds(a, b) and self.holds(b, a)

    def table_over(self, u: UniverseSpec) -> np.ndarray:
        if u != self.universe:
            raise ValueError(
                f"a relation tabled over {self.universe} has no table over {u}"
            )
        return self._table

    def _revision_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Relation-driven revision of every input of the universe at once.

        Returns strict, mask and closed, one entry per input A: A ranks
        strictly above the empty set; the meet of the classes x whose
        adjunction A conj {x} keeps A's rank; and whether the chosen
        classes are exactly those entailed by that meet.  A conj {x} lies
        in the universe, at conj_index[a, singleton_index[x]], so the
        choice is one n*c gather from eq = m & m.T.  With max_input_size 0
        the only input is the empty set, which is never strict, so its
        row is never read.  Computed once and kept on the relation.
        """
        if self._rows is None:
            u = self.universe
            t = _tables(u)
            m = self.table_over(u)
            e = t.empty_index
            full = u.lang.full_mask
            x = np.arange(full + 1)
            eq = m & m.T
            adjoined = t.conj_index[:, t.singleton_index]
            chosen = eq[np.arange(len(t.sets))[:, None], adjoined]
            mask = np.bitwise_and.reduce(np.where(chosen, x, full), axis=1)
            closed = (((mask[:, None] & ~x & full) == 0) == chosen).all(axis=1)
            self._rows = (m[:, e] & ~m[e, :], mask, closed)
        return self._rows

    @classmethod
    def from_table(cls, u: UniverseSpec, matrix: np.ndarray) -> "MultiBelievabilityRelation":
        n = u.size
        if matrix.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got {matrix.shape}")
        return cls(u, matrix.astype(bool))


def _lift_table(base: BelievabilityRelation, u: UniverseSpec) -> np.ndarray:
    """The lift's n*n table over u, in two member folds
    (_Tables.over_members).

    dom[b, x]: class x is at least as acceptable as every member of B,
    the AND fold of base.matrix()'s columns over B's members; then
    m[a, b] is the OR fold of dom's columns over A's members.  So the
    empty B is dominated by every class, and the empty A, which has no
    member, ranks at least as high as the empty B only.  Cost:
    max_input_size n*c and n*n byte gathers, no n*n*k*k temporary;
    about 0.05 ms at n=137 and 0.25 ms at n=697 on one 2 GHz virtual CPU.
    """
    t = _tables(u)
    dom = t.over_members(base.matrix().T, every=True)
    m = t.over_members(dom.T)
    m[:, t.empty_index] = True
    return m


def lift(base: BelievabilityRelation, max_input_size: int) -> MultiBelievabilityRelation:
    """Set comparison through best members, tabled over the universe of
    base's language up to max_input_size.

    A is at least as acceptable as B iff B is empty or some member of A
    is at least as acceptable as every member of B; in particular the
    empty set sits above nonempty sets only.  The table is _lift_table's,
    so a universe above UNIVERSE_CAP raises LanguageError here.
    """
    u = UniverseSpec(base.lang, max_input_size)
    return MultiBelievabilityRelation.from_table(u, _lift_table(base, u))


def project(mb: MultiBelievabilityRelation) -> BelievabilityRelation:
    """Restriction to singleton comparisons.

    Reads the c*c singleton rows and columns of the relation's table in
    one c*c gather: 0.02-0.03 ms at n=137.  These are the relation's own
    set-level answers; a lift is not short-cut to its base, so
    project(lift(r, k)) == r is a check of the lift's table.  A universe
    without singletons raises OutsideUniverseError, as a point query on
    {class 0} would.
    """
    u = mb.universe
    sing = _tables(u).singleton_index
    if sing[0] < 0:
        raise OutsideUniverseError(InputSet.of(u.lang, SentenceClass(u.lang, 0)), u)
    return BelievabilityRelation.from_matrix(u.lang, mb.table_over(u)[np.ix_(sing, sing)])


def derive_mb_from_operator(op: ChoiceOperator) -> MultiBelievabilityRelation:
    """Read a set-level ordering off an operator's table.

    A counts as at least as acceptable as B when either B's outcome
    rejects all of B, or A's outcome accepts part of A and a chain of
    inputs, each meeting the next one's outcome, links A's outcome to
    B's.  Chains are resolved by reachability over the outcome-equality
    quotient, computed once.  The quotient's closure is spread to the
    n*n table by a column gather and then a row gather, which at n=137
    costs about a fifth of one 2-D fancy index; in that order the table
    comes out C-ordered, where rows first and then columns gives a
    Fortran-ordered one.
    """
    k = op._kernel()
    reach = k.reach | np.eye(len(k.uniq), dtype=bool)
    m = (~k.diag)[None, :] | (k.diag[:, None] & reach[:, k.inv][k.inv])
    return MultiBelievabilityRelation.from_table(op.universe, m)


# ---------------------------------------------------------------------------
# Relation-driven revision
# ---------------------------------------------------------------------------

def revise_via_mb(
    mb: MultiBelievabilityRelation, k: BeliefSet, a: InputSet
) -> BeliefSet:
    """Revision determined by a set-level ordering.

    When the input is strictly easier to accept than the empty set, the
    outcome's theory collects every class whose adjunction leaves the
    input's rank unchanged; otherwise the prior state is kept.  The
    collected theory must be deductively closed, else
    RelationOperationError.

    The answer is one row of the relation's revision table
    (MultiBelievabilityRelation._revision_rows), computed for every input
    on the first call and kept on the relation; an input outside the
    universe, or over another language, raises OutsideUniverseError.
    """
    i = _tables(mb.universe).lookup(a)
    strict, mask, closed = mb._revision_rows()
    if not strict[i]:
        return k
    if not closed[i]:
        raise RelationOperationError("result not closed")
    return BeliefSet(k.lang, int(mask[i]))


# ---------------------------------------------------------------------------
# Postulate checks
# ---------------------------------------------------------------------------

def _first(viol: np.ndarray) -> Optional[tuple[int, ...]]:
    """The indices of viol's first True entry in C order, or None."""
    return _first_true(viol) if viol.any() else None


# Each checker maps a layout t and an n*n table m over it to a verdict:
# (checked, skipped, items, note), where items are the t.sets indices of
# the first violation's witness, None when the postulate holds.  The
# layout is _tables(u) for a set-level relation and _class_tables(lang)
# for a single-sentence one; t.conj_index holds each conjunction's index
# (-1 outside the universe) and t.conj_table the cells coupling and weak
# coupling read (_ConjTable), as flat indices into m's equal-rank table.
# Transitivity, coupling, weak coupling and completeness are stated alike
# at both levels, so one checker serves both; the coupling notes name the
# level's conjunction and are bound in its table.

def _transitivity(t, m: np.ndarray):
    items = _first(graphs.bool_product(m, m) & ~m)
    if items is not None:
        a, b = items
        items = (a, int(np.flatnonzero(m[a] & m[:, b])[0]), b)
    return len(m) ** 3, 0, items, "chain holds but the endpoints do not compare"


def _completeness(t, m: np.ndarray):
    return len(m) ** 2, 0, _first(~m & ~m.T), "incomparable pair"


def _coupling(t, m: np.ndarray, note: str):
    n = len(m)
    ct = t.conj_table
    # flat holds the equal-rank table's cell (a, x) at a*n + x
    flat = (m & m.T).ravel()
    items = _first(flat[ct.cells] & ~flat[ct.conj])
    if items is not None:
        (i,) = items
        a, b = divmod(int(ct.cells[i]), n)
        items = (a, b, int(ct.conj[i]) - a * n)
    return len(ct.cells), n * n - len(ct.cells), items, note


def _weak_coupling(t, m: np.ndarray, note: str):
    n = len(m)
    ct = t.conj_table
    flat = (m & m.T).ravel()
    bad = flat[ct.iv] & flat[ct.iw] & ~flat[ct.it]
    if not bad.any():
        return ct.checked, ct.skipped, None, note
    # the first failing quadruple has the smallest failing a; the first
    # (b, d) in scan order is read off row a of conj_index, where an
    # outside conjunction of -1 reads a cell the masks discard
    a = int(ct.iv[bad.argmax()]) // n
    row = t.conj_index[a]
    prem = (row >= 0) & flat[a * n + row]
    bs = np.flatnonzero(prem)
    tgt = t.conj_index[row[bs]]
    i, d = _first_true(prem & (tgt >= 0) & ~flat[a * n + tgt])
    return ct.checked, ct.skipped, (a, int(bs[i]), d), note


def _prior_theory(lang: LanguageSpec, universal: np.ndarray) -> tuple[list[int], int, list[int]]:
    """The classes x with universal[x], the mask of the prior state K
    they determine (the models they share), and the classes K entails."""
    full = lang.full_mask
    bottom = np.flatnonzero(universal).tolist()
    k_mask = functools.reduce(int.__and__, bottom, full)
    closed = [x for x in range(full + 1) if k_mask & ~x & full == 0]
    return bottom, k_mask, closed


def _counter_dominance_single(t: _ClassTables, m: np.ndarray):
    # ent[a, b]: class a entails class b
    ent = t.meets(t.masks).T
    return (len(m) ** 2, 0, _first(ent & ~m.T),
            "logically weaker class is not at least as acceptable")


def _minimality_single(t: _ClassTables, m: np.ndarray):
    bottom, k_mask, closed = _prior_theory(t.lang, m.all(axis=1))
    if k_mask == 0:
        return len(m), 0, (), "universally acceptable classes force an inconsistent state"
    items = None
    if closed != bottom:
        # every universally acceptable class is in `closed`: name the
        # smallest class of `closed` that is not one
        items = (next(x for x in closed if x not in bottom),)
    return (len(m), 0, items,
            "universally acceptable classes do not form a deductively closed theory")


def _maximality_single(t: _ClassTables, m: np.ndarray):
    return (len(m), 0, _first(m.all(axis=0) & (t.masks != 0)),
            "a satisfiable class sits at the very top")


def _counter_dominance_multi(t: _Tables, m: np.ndarray):
    return (len(m) ** 2, 0, _first(t.counter_dominance_ante & ~m),
            "every member of the second set entails some member of the first, yet the first does not rank at least as high")


def _minimality_multi(t: _Tables, m: np.ndarray):
    if t.u.max_input_size < 1:
        raise LanguageError("minimality needs singletons in the universe")
    checked = t.u.class_count + len(m)
    univ_row = m.all(axis=1)
    universal = univ_row[t.singleton_index]
    bottom, k_mask, closed = _prior_theory(t.lang, universal)
    if k_mask == 0 or closed != bottom:
        return (checked, 0, (),
                "universally acceptable singletons do not determine a consistent closed theory")
    # the universally acceptable classes are now the prior theory
    return (checked, 0, _first(univ_row != t.over_members(universal)),
            "set ranks below everything exactly when it shares a class with the prior theory; this one does not")


def _maximality_multi(t: _Tables, m: np.ndarray):
    nonempty = t.sizes > 0
    other = np.arange(len(m)) != t.index.get((0,), -1)
    return (len(m), 0, _first(nonempty & m[nonempty].all(axis=0) & other),
            "a set other than the contradiction singleton sits at the very top")


def _determination(t: _Tables, m: np.ndarray):
    e = t.empty_index
    return (len(m), 0, _first((t.sizes > 0) & ~(m[:, e] & ~m[e, :])),
            "nonempty set not strictly easier to accept than the empty set")


def _union(t: _Tables, m: np.ndarray):
    ia, ib, iu, skipped = t.union_triples
    items = _first(~m[ia, iu] & ~m[ib, iu])
    if items is not None:
        (i,) = items
        items = (int(ia[i]), int(ib[i]), int(iu[i]))
    return len(iu), skipped, items, "neither part ranks at least as high as the union"


# each level's postulates and their checkers, by variant
_LEVEL_CHECKERS = {
    "single": {
        RelationPostulateId.TRANSITIVITY: _transitivity,
        RelationPostulateId.WEAK_COUPLING: functools.partial(
            _weak_coupling, note="both single adjunctions keep rank but the joint one drops it"),
        RelationPostulateId.COUPLING: functools.partial(
            _coupling, note="equally acceptable pair whose conjunction drops rank"),
        RelationPostulateId.COUNTER_DOMINANCE: _counter_dominance_single,
        RelationPostulateId.MINIMALITY: _minimality_single,
        RelationPostulateId.MAXIMALITY: _maximality_single,
        RelationPostulateId.COMPLETENESS: _completeness,
    },
    "multi": {
        RelationPostulateId.TRANSITIVITY: _transitivity,
        RelationPostulateId.WEAK_COUPLING: functools.partial(
            _weak_coupling, note="both pairwise adjunctions keep rank but the triple one drops it"),
        RelationPostulateId.COUPLING: functools.partial(
            _coupling, note="equally acceptable pair whose pairwise conjunction drops rank"),
        RelationPostulateId.COUNTER_DOMINANCE: _counter_dominance_multi,
        RelationPostulateId.MINIMALITY: _minimality_multi,
        RelationPostulateId.MAXIMALITY: _maximality_multi,
        RelationPostulateId.COMPLETENESS: _completeness,
        RelationPostulateId.DETERMINATION: _determination,
        RelationPostulateId.UNION: _union,
    },
}


def _check(p: RelationPostulateId, t, m: np.ndarray, variant: str) -> RelationReport:
    """p's report on the n*n table m over the layout t, from the checker
    in the variant's table; the witness names t.sets at its items."""
    checker = _LEVEL_CHECKERS[variant].get(p)
    if checker is None:
        raise ValueError(f"postulate {p.value} has no single-sentence variant")
    checked, skipped, items, note = checker(t, m)
    if items is None:
        return RelationReport(p, variant, True, checked, skipped)
    w = RelationWitness(tuple(t.sets[i] for i in items), note)
    return RelationReport(p, variant, False, checked, skipped, w)


def check_relation_postulate(
    r: Union[BelievabilityRelation, MultiBelievabilityRelation],
    p: RelationPostulateId,
) -> RelationReport:
    """Verdict with witness; set-level checks are bounded by the
    relation's universe.

    Constructed conjunction or union sets falling outside the universe
    are skipped and tallied.
    """
    if isinstance(r, BelievabilityRelation):
        return _check(p, _class_tables(r.lang), r.matrix(), "single")
    u = r.universe
    return _check(p, _tables(u), r.table_over(u), "multi")


def _first_failing(
    r: Union[BelievabilityRelation, MultiBelievabilityRelation], ps
) -> Optional[RelationReport]:
    """The report of the first postulate of ps that r fails, or None when
    r passes them all; the checks after it are not run."""
    for p in ps:
        report = check_relation_postulate(r, p)
        if not report.holds:
            return report
    return None


def is_quasi_linear(r: BelievabilityRelation) -> bool:
    return _first_failing(r, QUASI_LINEAR_POSTULATES) is None


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def random_quasi_linear(seed: int, lang: LanguageSpec) -> BelievabilityRelation:
    """Seeded total preorder passing all seven single-sentence postulates.

    Draw a prior state, pin its theory to the bottom layer and the
    contradiction class strictly to the top, rank the remaining classes
    by noisy scores that respect entailment, then merge layers until the
    conjunction-compatibility postulates hold.  Validated post hoc.

    Supports languages of 1 or 2 atoms; more raise LanguageError before
    any draw.  With 3 atoms every draw puts two classes whose conjunction
    is the contradiction into one layer and the merge gives up.
    """
    lang.require_exhaustive()
    if lang.atom_count > 2:
        raise LanguageError(f"random relations need 1 or 2 atoms, got {lang.atom_count}")
    rng = random.Random(seed)
    full = lang.full_mask
    c = full + 1
    for _ in range(500):
        k_mask = rng.randrange(1, c)
        theory = [m for m in range(c) if k_mask & ~m & full == 0]
        others = [m for m in range(c) if m not in theory and m != 0]
        noise = {m: rng.random() for m in others}
        score = {
            m: max(noise[x] for x in others if m & ~x & full == 0) for m in others
        }
        layers: list[list[int]] = [theory]
        for s in sorted(set(score.values())):
            layers.append(sorted(m for m in others if score[m] == s))
        layers.append([0])
        merged = _merge_for_coupling(layers)
        if merged is None:
            continue
        rel = BelievabilityRelation.from_layers(lang, merged)
        if is_quasi_linear(rel):
            return rel
    raise GenerationError(f"no quasi-linear relation found for seed {seed}")


def _merge_for_coupling(layers: list[list[int]]) -> Optional[list[list[int]]]:
    """Merge adjacent layer spans until same-layer conjunctions stay put.

    Returns None when a conjunction of co-layered classes lands in the
    top (contradiction) layer, which cannot be merged away.
    """
    layers = [list(x) for x in layers]
    while True:
        rank = {}
        for i, layer in enumerate(layers):
            for m in layer:
                rank[m] = i
        bad = None
        for i, layer in enumerate(layers):
            for a, b in itertools.combinations_with_replacement(layer, 2):
                j = rank[a & b]
                if j != i:
                    bad = (min(i, j), max(i, j))
                    break
            if bad:
                break
        if bad is None:
            return layers
        lo, hi = bad
        if hi == len(layers) - 1:
            return None
        fused = [m for layer in layers[lo : hi + 1] for m in layer]
        layers = layers[:lo] + [sorted(fused)] + layers[hi + 1 :]


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def save_relation(
    rel: Union[BelievabilityRelation, MultiBelievabilityRelation], path: str
) -> None:
    """Write the bytes json.dump(relation_to_json(rel), fh, sort_keys=True,
    indent=2) and a newline would, one row of pairs at a time (see
    relation_text)."""
    with open(path, "w") as fh:
        fh.writelines(relation_text(rel, indented=True))
        fh.write("\n")


@functools.lru_cache(maxsize=None)
def _class_codes(lang: LanguageSpec) -> tuple:
    """SentenceClass.encode() of every class mask, as tuples."""
    return tuple(tuple(x.encode()) for x in _class_tables(lang).sets)


@functools.lru_cache(maxsize=None)
def _set_codes(u: UniverseSpec) -> tuple:
    """InputSet.encode() of every set of the universe, in universe order,
    as tuples of the shared class codes."""
    codes = _class_codes(u.lang)
    return tuple(tuple(codes[m] for m in s.mask_tuple) for s in _tables(u).sets)


def _artifact_parts(
    rel: Union[BelievabilityRelation, MultiBelievabilityRelation]
) -> tuple[dict, Union[LanguageSpec, UniverseSpec], np.ndarray]:
    """The artifact's keys other than "pairs", the language or universe
    whose codes label the table's rows and columns, and the table."""
    if isinstance(rel, BelievabilityRelation):
        return {"atoms": rel.lang.atom_count, "kind": "single"}, rel.lang, rel.matrix()
    u = rel.universe
    head = {"atoms": u.lang.atom_count, "kind": "multi",
            "max_input_size": u.max_input_size}
    return head, u, rel.table_over(u)


def _codes(space: Union[LanguageSpec, UniverseSpec]) -> tuple:
    return _class_codes(space) if isinstance(space, LanguageSpec) else _set_codes(space)


@functools.lru_cache(maxsize=None)
def _code_text(space: Union[LanguageSpec, UniverseSpec], indented: bool) -> tuple:
    """The JSON text of every code of the language's classes or the
    universe's sets: compact, or indented as it stands inside a pair of
    an artifact written with indent=2."""
    if indented:
        return tuple(json.dumps(c, indent=2).replace("\n", "\n      ")
                     for c in _codes(space))
    return tuple(json.dumps(c, separators=(",", ":")) for c in _codes(space))


def relation_text(
    rel: Union[BelievabilityRelation, MultiBelievabilityRelation],
    indented: bool = False,
) -> Iterator[str]:
    """The text json.dumps(relation_to_json(rel), sort_keys=True) writes,
    with separators (",", ":"), or with indent=2 when indented, in chunks:
    the head, one chunk per table row that holds a true cell, and the
    tail.

    A row's pairs are one join over the per-code strings of _code_text,
    kept once per language or universe, so no pair tuple is made.
    """
    # the brackets and separators of the nonempty pair list and of a pair
    if indented:
        fmt = {"indent": 2}
        open_list, next_pair, close_list = "[\n    ", ",\n    ", "\n  ]"
        open_pair, next_code, close_pair = "[\n      ", ",\n      ", "\n    ]"
    else:
        fmt = {"separators": (",", ":")}
        open_list = open_pair = "["
        next_pair = next_code = ","
        close_list = close_pair = "]"
    head, space, m = _artifact_parts(rel)
    start, end = json.dumps({**head, "pairs": []}, sort_keys=True, **fmt).rsplit("[]", 1)
    text = _code_text(space, indented)
    yield start
    rows = 0
    for i, row in enumerate(m.tolist()):
        right = list(itertools.compress(text, row))
        if right:
            left = open_pair + text[i] + next_code
            yield ((next_pair if rows else open_list) + left
                   + (close_pair + next_pair + left).join(right) + close_pair)
            rows += 1
    yield (close_list if rows else "[]") + end


def relation_to_json(
    rel: Union[BelievabilityRelation, MultiBelievabilityRelation]
) -> dict:
    """{"atoms", "kind", "pairs"} (and "max_input_size" for "multi").

    The pair list is new on each call and holds the table's true cells
    in row-major order, each a (code, code) tuple.  A code is the
    class's or set's encode() as nested tuples, computed once per
    language or universe and shared by every artifact: tuples, so that no
    caller can change a later artifact, and json.dumps writes them as it
    writes lists.  The pairs are picked in C from the product of the
    codes with themselves by the table's bools, held as one list of n*n
    entries while the walk runs; the product reuses its tuple for every
    false cell, so only the kept pairs are allocated.
    """
    head, space, m = _artifact_parts(rel)
    codes = _codes(space)
    pairs = list(itertools.compress(itertools.product(codes, repeat=2), m.ravel().tolist()))
    return {**head, "pairs": pairs}


def _decode_pairs(pairs, decode: Callable, lang: LanguageSpec) -> tuple[list, np.ndarray]:
    """Both codes of every pair decoded, each distinct code once: the
    distinct values, and a (pairs, 2) array of each pair's positions
    among them.

    Codes are told apart by their repr, which is equal only for equal
    codes among the lists, tuples and strings an artifact holds.  A bad
    code raises at the first pair that holds it, with the message that
    decoding it there gives.
    """
    index: dict[str, int] = {}
    values: list = []
    at: list[int] = []
    for pos, pair in enumerate(pairs):
        for side in (0, 1):
            try:
                key = repr(pair[side])
                if key not in index:
                    index[key] = len(values)
                    values.append(decode(pair[side], lang))
            except (ValueError, TypeError, IndexError) as exc:
                raise RelationFormatError(f"pair {pos}: {exc}") from exc
            at.append(index[key])
    return values, np.array(at, dtype=np.intp).reshape(-1, 2)


def relation_from_json(
    data: dict,
) -> Union[BelievabilityRelation, MultiBelievabilityRelation]:
    try:
        lang = LanguageSpec(int(data["atoms"]))
        kind = data["kind"]
        pairs = data["pairs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise RelationFormatError(f"bad relation data: {exc}") from exc
    if kind == "single":
        classes, at = _decode_pairs(pairs, SentenceClass.decode, lang)
        cells = np.array([c.mask for c in classes], dtype=np.intp)[at]
        m = np.zeros((lang.full_mask + 1,) * 2, dtype=bool)
        m[cells[:, 0], cells[:, 1]] = True
        return BelievabilityRelation.from_matrix(lang, m)
    if kind == "multi":
        size = data.get("max_input_size")
        sets, at = _decode_pairs(pairs, InputSet.decode, lang)
        if size is None:
            size = max((len(s) for s in sets), default=0)
        u = UniverseSpec(lang, int(size))
        index = _tables(u).index
        cells = np.array([index.get(s.mask_tuple, -1) for s in sets], dtype=np.intp)[at]
        outside = (cells < 0).any(axis=1)
        if outside.any():
            raise RelationFormatError(f"pair {int(outside.argmax())}: set outside the universe")
        m = np.zeros((u.size, u.size), dtype=bool)
        m[cells[:, 0], cells[:, 1]] = True
        return MultiBelievabilityRelation.from_table(u, m)
    raise RelationFormatError(f"unknown relation kind {kind!r}")


def load_relation(
    path: str,
) -> Union[BelievabilityRelation, MultiBelievabilityRelation]:
    return _load_json(path, RelationFormatError, relation_from_json)
