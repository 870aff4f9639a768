"""Choice operators over a bounded input universe, plus the postulate
verification engine.

An operator is a total table from input sets (finite sets of sentence
classes, size-capped by a UniverseSpec) to outcome belief sets.  The
checker evaluates each rationality postulate as an explicit quantified
formula over the universe, vectorized with numpy boolean matrices.  The
recurring primitive is "the input set meets the outcome's theory":
A meets X iff some member of A follows from X.

Verdicts are reported per postulate with the first counterexample found
in deterministic scan order; quantifier instances whose constructed sets
(unions) fall outside the bounded universe are skipped and tallied, so a
"holds" verdict is always a claim about the stated bound only.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Optional, Union

import numpy as np

from . import graphs
from .logic import BeliefSet, InputSet, LanguageError, LanguageSpec, SentenceClass
from .models import RelationalModel, _load_json

UNIVERSE_CAP = 2000


class OutsideUniverseError(KeyError):
    def __init__(self, a: InputSet, u: UniverseSpec):
        if a.lang != u.lang:
            what = f"input set over {a.lang.atom_count} atoms"
            where = f" over {u.lang.atom_count} atoms"
        else:
            what, where = f"input set of size {len(a)}", ""
        super().__init__(f"{what} is outside the bounded universe{where}")
        self.input_set = a


class OperatorFormatError(ValueError):
    """Malformed operator file; message carries the offending location."""


def theory_meets(a: InputSet, x: BeliefSet) -> bool:
    """Does the theory of x contain some member of a?"""
    return any(x.mask & ~c.mask == 0 for c in a.classes)


@dataclass(frozen=True)
class UniverseSpec:
    """All input sets over the language's sentence classes up to a size cap."""

    lang: LanguageSpec
    max_input_size: int

    def __post_init__(self) -> None:
        if self.max_input_size < 0:
            raise LanguageError("max_input_size must be >= 0")
        self.lang.require_exhaustive()
        count = self.size
        if count > UNIVERSE_CAP:
            raise LanguageError(
                f"universe cap exceeded: {count} input sets > {UNIVERSE_CAP}"
            )

    @property
    def class_count(self) -> int:
        return self.lang.full_mask + 1

    @property
    def size(self) -> int:
        c = self.class_count
        return sum(math.comb(c, k) for k in range(min(self.max_input_size, c) + 1))


class _Tables:
    """Per-universe index structures, shared by every operator on it."""

    def __init__(self, u: UniverseSpec):
        self.u = u
        self.lang = lang = u.lang
        self.classes = _class_tables(lang)
        c = u.class_count
        classes = self.classes.sets
        sets: list[InputSet] = []
        for k in range(min(u.max_input_size, c) + 1):
            for combo in itertools.combinations(range(c), k):
                sets.append(InputSet(lang, frozenset(classes[i] for i in combo)))
        self.sets = sets
        self.index = {s.mask_tuple: i for i, s in enumerate(sets)}
        # members by slot, with the empty slots pointing at an extra class c
        self.slot = np.full((len(sets), max(1, u.max_input_size)), c, dtype=np.int64)
        for i, s in enumerate(sets):
            self.slot[i, :len(s.classes)] = s.mask_tuple
        self.sizes = (self.slot < c).sum(axis=1)
        self.empty_index = self.index[()]
        # one bit per sentence class: sets looked up by their class bitset
        self._by_bits = {sum(1 << m for m in s.mask_tuple): i for i, s in enumerate(sets)}
        # one object per distinct passing report and equivalence report on
        # this universe: a caller that keeps the reports of many tables
        # keeps each of those once (at most 12 and 81 of them)
        self.shared_reports: dict = {}

    def lookup(self, a: InputSet) -> int:
        """Universe index of a; OutsideUniverseError when a is over
        another language or larger than the size cap."""
        i = self.index.get(a.mask_tuple) if a.lang == self.u.lang else None
        if i is None:
            raise OutsideUniverseError(a, self.u)
        return i

    def over_members(self, per_class: np.ndarray, every: bool = False) -> np.ndarray:
        """out[a]: the OR of per_class[x] over the members x of A_a, for
        each input in scan order, or the AND when every is set.

        per_class holds one row per class, of any shape.  Its rows are
        gathered by `slot` from a copy with an extra row c, all False for
        the OR and all True for the AND, so the empty input gets False or
        True.  Cost: max_input_size row gathers of n rows; no n*k*row
        broadcast is built.  Every some-member or every-member table of
        the package is one or two of these folds.
        """
        c = len(per_class)
        rows = (np.ones if every else np.zeros)((c + 1,) + per_class.shape[1:], dtype=bool)
        rows[:c] = per_class
        out = rows[self.slot[:, 0]]
        for s in range(1, self.slot.shape[1]):
            if every:
                out &= rows[self.slot[:, s]]
            else:
                out |= rows[self.slot[:, s]]
        return out

    def meets(self, masks: np.ndarray) -> np.ndarray:
        """hit[a, j]: some member of A_a follows from the belief set whose
        models are masks[j].

        The OR fold (over_members) of the class layout's entailment table
        (`_ClassTables.meets`), whose cell [x, j] says that class x
        follows from belief set j.  Cost: c*m mask tests plus
        max_input_size n*m byte gathers; at n=697 on one 2 GHz virtual
        CPU, about 0.04 ms for the n*g table over an operator's g <= 16
        distinct outcomes (the kernel's M) and 0.06 ms for the n*12 table
        of a 12-outcome model.  The empty input meets nothing.
        """
        return self.over_members(self.classes.meets(masks))

    @functools.cached_property
    def singleton_index(self) -> np.ndarray:
        """Universe index of {class} for each class mask, -1 when absent."""
        c = self.u.class_count
        out = np.full(c, -1, dtype=np.int32)
        for m in range(c):
            out[m] = self.index.get((m,), -1)
        return out

    @functools.cached_property
    def belief_sets(self) -> list[BeliefSet]:
        """One BeliefSet per mask, shared by every random table on this
        universe: a table holds references, not its own objects."""
        lang = self.u.lang
        return [BeliefSet(lang, m) for m in range(lang.full_mask + 1)]

    @functools.cached_property
    def subsets(self) -> np.ndarray:
        """sub[a, p]: universe index of the subset of A_a made of the
        members at the slots set in bitmask p, -1 where p names an empty
        slot.

        Every subset of an input is in the universe, so each input's at
        most 2^k subsets are enumerated once, by class bitset: 4993
        subsets at n=697, about 3 ms once per universe on one 2 GHz
        virtual CPU.  In-universe unions, and with them the subset pairs,
        are gathers from this n*2^k table, so no n*n subset or union
        table is built.  The entries are intp, so that the triples and
        pairs gathered from them index arrays without a cast.
        """
        n = len(self.sets)
        out = np.full((n, 1 << int(self.sizes.max())), -1, dtype=np.intp)
        by_bits = self._by_bits
        for a, s in enumerate(self.sets):
            bits = [0]
            for m in s.mask_tuple:
                bits += [b | 1 << m for b in bits]
            out[a, : len(bits)] = [by_bits[b] for b in bits]
        return out

    @functools.cached_property
    def subset_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """sub and sup, one entry per pair with A_sub a subset of A_sup,
        sorted by (sub, sup), which is the scan order of an n*n table, for
        cautiousness: 4993 pairs at n=697.

        They are the `union_triples` entries whose union is their second
        part.  A proper superset comes later in scan order, so every
        subset pair has sub <= sup and is one of those entries, and the
        triples' order is already (sub, sup).
        """
        ia, ib, iu, _ = self.union_triples
        keep = iu == ib
        return ia[keep], ib[keep]

    @functools.cached_property
    def union_triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """In-universe pairwise unions, for dichotomy and the relation union
        check.

        Returns ia, ib and u, one entry per pair a <= b whose union lies
        in the universe (A_ia | A_ib = A_u), in scan order (a, then b),
        and the count of pairs a <= b whose union lies outside.  A pair's
        union is A_u exactly when both parts are subsets of A_u whose slot
        masks p, q have p | q = all of A_u's slots, so the triples are
        gathered from `subsets` over every slot-mask pair and sorted.  At
        n=697 that is 8473 triples and 234780 outside pairs out of 243253,
        about 1.3 ms once `subsets` is built on one 2 GHz virtual CPU, and
        about 200 KB kept.
        """
        sub = self.subsets
        n, width = sub.shape
        p, q = (x.ravel() for x in np.indices((width, width)))
        whole = (1 << self.sizes) - 1
        iu, pair = np.nonzero((p | q)[None, :] == whole[:, None])
        ia, ib = sub[iu, p[pair]], sub[iu, q[pair]]
        keep = ia <= ib
        ia, ib, iu = ia[keep], ib[keep], iu[keep]
        order = np.lexsort((ib, ia))
        return ia[order], ib[order], iu[order], n * (n + 1) // 2 - len(iu)

    @functools.cached_property
    def conj_index(self) -> np.ndarray:
        """Universe index of each pairwise conjunction, -1 when outside.

        The conjunction of A and B is the set {x & y : x in A, y in B}.
        Its class bitset is built as the OR, over the members x of A, of
        the bitset of {x & y : y in B}; those c*n bitsets are computed
        once, then each result is looked up by its bitset.  Cost: at most
        max_input_size*n*n Python-int ORs and n*n dict lookups; about
        0.2 s at n=697 on one 2 GHz virtual CPU.

        Conjunction is associative, so a triple conjunction is a gather
        through this table: A conj B conj D sits at
        conj_index[conj_index[a, b], d] wherever conj_index[a, b] >= 0.
        """
        n = len(self.sets)
        by_bits = self._by_bits
        # sum of distinct powers of two == their OR
        with_class = [
            [sum({1 << (x & y) for y in s.mask_tuple}) for s in self.sets]
            for x in range(self.u.class_count)
        ]
        out = np.full((n, n), -1, dtype=np.int32)
        for a, s in enumerate(self.sets):
            row = [0] * n
            for x in s.mask_tuple:
                row = [r | w for r, w in zip(row, with_class[x])]
            out[a] = [by_bits.get(r, -1) for r in row]
        return out

    @functools.cached_property
    def conj_table(self) -> "_ConjTable":
        """`_conj_table` of conj_index, built once per universe: on one
        2 GHz virtual CPU, 8826 coupling cells and 8893 weak-coupling
        quadruples (0.35 MB) in about 4 ms at n=137; 66049 cells and
        133057 quadruples (4.2 MB) in about 26 ms at n=257; 124788 cells
        and 206714 quadruples (7 MB) in about 105 ms at n=697, with a
        tracemalloc peak of 12 MB."""
        return _conj_table(self.conj_index)

    @functools.cached_property
    def counter_dominance_ante(self) -> np.ndarray:
        """ante[a, b]: every member of A_b entails some member of A_a.

        meets over every class mask says which classes entail some member
        of each input; ante is the AND fold (over_members) of its
        transpose over A_b's members.  Kept as n*n bools, 19 KB at n=137
        and 486 KB at n=697.
        """
        reach = self.meets(np.arange(self.u.class_count)).T
        return np.ascontiguousarray(self.over_members(reach, every=True).T)


class _ClassTables:
    """The sentence classes of a language laid out as _Tables lays out a
    universe's input sets: item x is class x.  One layout serves both
    levels' shared checks: the relation postulates the two levels state
    alike (`believability._LEVEL_CHECKERS`), and the operator postulates of
    a single-sentence table (`synthesis.check_sentential_postulates`),
    which run the set-level checkers on an `_OpKernel` over it.

    meets(masks)[x, j] says that class x follows from the belief set
    whose models are masks[j]: the per-class entailment table, which
    `_Tables.meets` folds over each input's members.  The conjunction of
    x and y is x & y, which is always a class, so nothing falls outside.
    conj_table is _conj_table of that index, built when a relation check
    first reads it, never for an operator check: at 3 atoms (c=256),
    65536 coupling cells and 133057 weak-coupling quadruples (4.2 MB) in
    about 29 ms on one 2 GHz virtual CPU.
    """

    def __init__(self, lang: LanguageSpec):
        lang.require_exhaustive()
        self.lang = lang
        self.masks = np.arange(lang.full_mask + 1)
        self.sets = tuple(SentenceClass(lang, x) for x in range(len(self.masks)))

    def meets(self, masks: np.ndarray) -> np.ndarray:
        return (masks[None, :] & ~self.masks[:, None]) == 0

    @functools.cached_property
    def conj_index(self) -> np.ndarray:
        return self.masks[:, None] & self.masks

    @functools.cached_property
    def conj_table(self) -> "_ConjTable":
        return _conj_table(self.conj_index)


@functools.lru_cache(maxsize=None)
def _class_tables(lang: LanguageSpec) -> _ClassTables:
    return _ClassTables(lang)


class _ConjTable(NamedTuple):
    """The conjunction table of a layout (a universe's input sets, or a
    language's classes): every cell that coupling and weak coupling read,
    as a flat index x*n + y into an n*n table, so that each check is one
    gather over a relation's equal-rank table.

    cells and conj hold a*n + b and a*n + c2[a, b] for each cell (a, b)
    of the conjunction index c2 that lies in the universe, in scan order.
    iv, iw and it hold a*n + v, a*n + w and a*n + t for each distinct
    quadruple (a, v = A conj B, w = A conj D, t = A conj B conj D) with
    all three conjunctions in the universe, sorted by (a, v, w, t).
    checked and skipped count the weak-coupling instances (a, b, d) whose
    conjunctions lie in the universe and those that do not, out of n^3.
    """

    cells: np.ndarray
    conj: np.ndarray
    iv: np.ndarray
    iw: np.ndarray
    it: np.ndarray
    checked: int
    skipped: int


def _conj_table(c2: np.ndarray) -> _ConjTable:
    """The _ConjTable of the n*n conjunction index c2 (-1 outside the
    universe).

    (A conj B) conj D depends on B only through v = c2[a, b], so the
    quadruples come from one row of d per distinct pair (a, v): w is
    c2[a, d] and t is c2[v, d].  Conjunction is commutative and
    associative, so the instance is symmetric in B and D and only v <= w
    is kept (v = w included).  A quadruple with t = v or t = w cannot
    fail and is dropped; t = a is kept, since eq[a, a] is not given for
    an arbitrary table.  A cell (a, b) checks every d whose two
    conjunctions lie in the universe, a count that depends only on its
    pair, so checked is the sum over pairs of multiplicity times that
    count.  The pair rows are walked in blocks of about 256k entries.
    """
    n = len(c2)
    cells = np.flatnonzero(c2 >= 0)
    conj = cells - cells % n + c2.ravel()[cells]
    pairs, mult = np.unique(conj, return_counts=True)
    pa, pv = np.divmod(pairs, n)
    evaluable = np.empty(len(pairs), dtype=np.int64)
    keys = []
    for blk in _row_blocks(len(pairs), n):
        w, t = c2[pa[blk]], c2[pv[blk]]
        ok = (w >= 0) & (t >= 0)
        evaluable[blk] = ok.sum(axis=1)
        v = pv[blk, None]
        r, d = np.nonzero(ok & (v <= w) & (t != v) & (t != w))
        k = np.sort((pairs[blk][r] * n + w[r, d]) * n + t[r, d])
        keys.append(k[np.diff(k, prepend=-1) != 0])
    keys = np.concatenate(keys)
    iv = keys // (n * n)
    row = iv - iv % n
    checked = int(mult @ evaluable)
    return _ConjTable(cells, conj, iv, row + keys // n % n, row + keys % n,
                      checked, n ** 3 - checked)


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Slices of about 256k entries over a rows*width array, so that the
    temporaries of one block stay at a few MB."""
    step = max(1, (1 << 18) // width)
    return [slice(i, i + step) for i in range(0, rows, step)]


@functools.lru_cache(maxsize=None)
def _tables(u: UniverseSpec) -> _Tables:
    return _Tables(u)


def enumerate_universe(u: UniverseSpec) -> list[InputSet]:
    """Deterministic order: size ascending, then member masks lexicographic."""
    return list(_tables(u).sets)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ChoiceOperator:
    """Total outcome table over a universe; outputs aligned with its order."""

    universe: UniverseSpec
    K: BeliefSet
    outputs: tuple[BeliefSet, ...]
    # holds the kernel and its memoised reports; init=False keeps
    # dataclasses.replace from handing them to an operator with other outputs
    _stash: list = field(default_factory=list, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.K.is_consistent:
            raise ValueError("K must be consistent")
        t = _tables(self.universe)
        if len(self.outputs) != len(t.sets):
            raise ValueError(
                f"table must cover all {len(t.sets)} universe inputs, got {len(self.outputs)}"
            )

    @property
    def lang(self) -> LanguageSpec:
        return self.universe.lang

    def outcome(self, a: InputSet) -> BeliefSet:
        return self.outputs[_tables(self.universe).lookup(a)]

    @property
    def table(self) -> dict[InputSet, BeliefSet]:
        return dict(zip(_tables(self.universe).sets, self.outputs))

    @classmethod
    def from_function(
        cls, u: UniverseSpec, k: BeliefSet, fn: Callable[[InputSet], BeliefSet]
    ) -> "ChoiceOperator":
        return cls(u, k, tuple(fn(a) for a in _tables(u).sets))

    @classmethod
    def from_model(cls, model: RelationalModel, max_input_size: int) -> "ChoiceOperator":
        """The operator a valid model induces on the universe of inputs up
        to max_input_size.

        Each entry is the model's revision of that input: the most
        preferred outcome whose theory meets it, K when none does or the
        input is empty (see `_model_rows`).  The entries are the model's
        own objects, as `choice_revise_via_model` returns them.  About
        0.2 ms for a 12-outcome model at n=697 on one 2 GHz virtual CPU,
        against about 6.4 ms for one `choice_revise_via_model` call per
        input.
        """
        model.require_valid()
        u = UniverseSpec(model.lang, max_input_size)
        rows = _model_rows(model, u).tolist()
        choices = model.outcomes + (model.K,)
        return cls(u, model.K, tuple(map(choices.__getitem__, rows)))

    def __reduce__(self):
        # pickle and copy only the table: the kernel in _stash holds the
        # universe's tables, and a copy rebuilds it when first checked
        return type(self), (self.universe, self.K, self.outputs)

    def _kernel(self) -> "_OpKernel":
        if not self._stash:
            self._stash.append(_OpKernel(_tables(self.universe), self.outputs, self.K))
        return self._stash[0]

    def to_json(self) -> dict:
        t = _tables(self.universe)
        return {
            "atoms": self.lang.atom_count,
            "max_input_size": self.universe.max_input_size,
            "K": self.K.encode(),
            "entries": [
                {"input": a.encode(), "output": o.encode()}
                for a, o in zip(t.sets, self.outputs)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChoiceOperator":
        try:
            lang = LanguageSpec(int(data["atoms"]))
            u = UniverseSpec(lang, int(data["max_input_size"]))
            k = BeliefSet.decode(data["K"], lang)
            entries = data["entries"]
        except (KeyError, TypeError, ValueError) as exc:
            raise OperatorFormatError(f"bad operator data: {exc}") from exc
        t = _tables(u)
        got: dict[tuple[int, ...], BeliefSet] = {}
        for pos, e in enumerate(entries):
            try:
                a = InputSet.decode(e["input"], lang)
                o = BeliefSet.decode(e["output"], lang)
            except (KeyError, TypeError, ValueError) as exc:
                raise OperatorFormatError(f"entry {pos}: {exc}") from exc
            key = a.mask_tuple
            if key not in t.index:
                raise OperatorFormatError(f"entry {pos}: input outside the universe")
            if key in got:
                raise OperatorFormatError(f"entry {pos}: duplicate input")
            got[key] = o
        missing = [s for s in t.sets if s.mask_tuple not in got]
        if missing:
            raise OperatorFormatError(
                f"table not total: {len(missing)} universe inputs missing "
                f"(first: {missing[0].encode()})"
            )
        if not k.is_consistent:
            raise OperatorFormatError("K must be consistent")
        return cls(u, k, tuple(got[s.mask_tuple] for s in t.sets))


def _model_rows(model: RelationalModel, u: UniverseSpec) -> np.ndarray:
    """For each input of u, in scan order, the position of its revision
    by the valid model in model.outcomes, or len(model.outcomes) for K.

    The revision is the first outcome whose theory meets the input: the
    first True of the input's row in `_Tables.meets` over the outcomes'
    masks, or K when the row has none (the empty input's never has).
    One n*m gather and one argmax per row, where m is the model's size:
    about 0.09 ms for 12 outcomes at n=697 on one 2 GHz virtual CPU.
    """
    hit = _tables(u).meets(np.array([o.mask for o in model.outcomes], dtype=np.int64))
    return np.where(hit.any(axis=1), hit.argmax(axis=1), len(model.outcomes))


def random_operator(seed: int, u: UniverseSpec) -> ChoiceOperator:
    """Seeded table with outcomes uniform over all belief sets; K consistent.

    The draw is the stream of `rng.randrange(1, full + 1)` for K, then one
    `rng.randrange(0, full + 1)` per input in scan order, with
    rng = random.Random(seed).  The outputs are read from batches of
    32-bit Mersenne Twister words, and that is exact: randrange(0, m) with
    m = full + 1 = 2^(2^atoms) is CPython's `_randbelow_with_getrandbits`,
    which takes one word per try (m has at most 17 bits under MAX_ATOMS),
    shifts it right by 32 - m.bit_length() and tries again while the
    value is >= m.  getrandbits(32 * w) packs w words little-endian in
    the order the generator makes them, so shifting every word of a batch
    and keeping the values <= full, in order, gives the same outputs.
    Half the words pass; a batch of 3 words per missing output plus 32
    rarely needs a second.  Words drawn past the last output are never
    used, since the generator is local to the call.  The outputs are the
    universe's shared `_Tables.belief_sets` objects.
    """
    return _draw_operator(random.Random(seed), u)


def _draw_operator(rng: random.Random, u: UniverseSpec) -> ChoiceOperator:
    """`random_operator`'s draw from a given generator."""
    full = u.lang.full_mask
    t = _tables(u)
    n = len(t.sets)
    k = t.belief_sets[rng.randrange(1, full + 1)]
    shift = 32 - (full + 1).bit_length()
    masks: list[int] = []
    while len(masks) < n:
        w = 3 * (n - len(masks)) + 32
        words = np.frombuffer(rng.getrandbits(32 * w).to_bytes(4 * w, "little"), "<u4") >> shift
        masks += words[words <= full].tolist()
    return ChoiceOperator(u, k, tuple(map(t.belief_sets.__getitem__, masks[:n])))


def save_operator(op: ChoiceOperator, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(op.to_json(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_operator(path: str) -> ChoiceOperator:
    return _load_json(path, OperatorFormatError, ChoiceOperator.from_json)


class _OpKernel:
    """Numpy views of one outcome table over a layout: its outcome masks,
    its meets table and the postulate reports already computed for it.

    The layout t is a universe's `_Tables`, for a ChoiceOperator, or a
    language's `_ClassTables`, for a single-sentence table; outputs[a] is
    the outcome of item a (A_a) and K the prior state.  The checkers in
    `_CHECKERS` read the kernel only, so one checker serves both levels;
    those that read subsets, unions, sizes or the empty input need a
    universe.

    uniq holds the g distinct outcome masks and inv[a] the group of A_a's
    outcome in them.  M[a, j] says that some member of A_a follows from
    outcome uniq[j]: `t.meets` over the distinct outcomes, an n*g table
    (g <= 16 at n=697).  A_a meets the outcome of A_b exactly when
    M[a, inv[b]], so the postulates about meeting read M and no n*n table
    is kept; diag[a] says that A_a meets its own outcome.  ge[i, j], the
    outcome quotient, says that some input with outcome i meets outcome j:
    the OR of M's rows over group i, one `graphs.bool_product` of the g*n
    group indicator (group[inv[a], a]) with M.  Reciprocity reads it.
    reach is its closure, `graphs.reachability(ge)`, built when first read:
    strong reciprocity reads the quotient's components off it, model
    synthesis its chain order and relation derivation its chains.  A
    failing strong-reciprocity check also reads the input graph's
    components off the quotient and walks it by bitset rows that are
    built from M only for the inputs a walk expands (`_InputRows`), so no
    kernel array is n*n.
    """

    def __init__(self, t: Union[_Tables, _ClassTables], outputs: tuple[BeliefSet, ...],
                 K: BeliefSet):
        self.t, self.outputs, self.K = t, outputs, K
        self.out = np.array([o.mask for o in outputs], dtype=np.int64)
        self.uniq, self.inv = np.unique(self.out, return_inverse=True)
        self.M = t.meets(self.uniq)
        rows = np.arange(len(self.out))
        self.diag = self.M[rows, self.inv]
        group = np.zeros((len(self.uniq), len(self.out)), dtype=bool)
        group[self.inv, rows] = True
        self.ge = graphs.bool_product(group, self.M)
        kmask = np.int64(K.mask)
        self.eq_k = self.out == kmask
        self.meets_k = t.meets(np.array([kmask]))[:, 0]
        self.reports: dict[PostulateId, PostulateReport] = {}

    @functools.cached_property
    def reach(self) -> np.ndarray:
        return graphs.reachability(self.ge)


# ---------------------------------------------------------------------------
# Postulates
# ---------------------------------------------------------------------------

class PostulateId(str, Enum):
    CLOSURE = "closure"
    RELATIVE_SUCCESS = "relative_success"
    REGULARITY = "regularity"
    CONFIRMATION = "confirmation"
    RECIPROCITY = "reciprocity"
    SUCCESS = "success"
    VACUITY = "vacuity"
    CONSISTENCY = "consistency"
    SYNTAX_IRRELEVANCE = "syntax_irrelevance"
    CAUTIOUSNESS = "cautiousness"
    DICHOTOMY = "dichotomy"
    STRONG_RECIPROCITY = "strong_reciprocity"


BASIC_POSTULATES = (
    PostulateId.CLOSURE,
    PostulateId.RELATIVE_SUCCESS,
    PostulateId.REGULARITY,
    PostulateId.CONFIRMATION,
    PostulateId.RECIPROCITY,
)

SUPPLEMENTARY_POSTULATES = (
    PostulateId.SUCCESS,
    PostulateId.VACUITY,
    PostulateId.CONSISTENCY,
)


@dataclass(frozen=True, slots=True)
class Witness:
    inputs: tuple[InputSet, ...]
    outcomes: tuple[BeliefSet, ...]
    note: str

    def to_dict(self) -> dict:
        return {
            "inputs": [a.encode() for a in self.inputs],
            "outcomes": [o.encode() for o in self.outcomes],
            "note": self.note,
        }


@dataclass(frozen=True, slots=True)
class PostulateReport:
    postulate: PostulateId
    holds: bool
    checked: int
    skipped: int = 0
    witness: Optional[Witness] = None

    def to_dict(self) -> dict:
        return {
            "postulate": self.postulate.value,
            "holds": self.holds,
            "checked": self.checked,
            "skipped": self.skipped,
            "witness": self.witness.to_dict() if self.witness else None,
        }


def _first_true(viol: np.ndarray) -> tuple[int, ...]:
    """Index of the first True entry in C (scan) order; viol must have one."""
    return tuple(int(i) for i in np.unravel_index(viol.argmax(), viol.shape))


def _report(k: _OpKernel, p: PostulateId, checked: int, items: tuple[int, ...] = (),
            note: str = "", skipped: int = 0) -> PostulateReport:
    """p's report: it holds when no witness items are given, else the
    witness names the items and their outcomes."""
    if not items:
        return PostulateReport(p, True, checked, skipped)
    w = Witness(tuple(k.t.sets[i] for i in items), tuple(k.outputs[i] for i in items), note)
    return PostulateReport(p, False, checked, skipped, w)


def _first_item(k: _OpKernel, p: PostulateId, viol: np.ndarray, note: str) -> PostulateReport:
    """The report of a postulate about each item alone, violated at the
    items where viol is set: the first of them is the witness."""
    return _report(k, p, len(viol), _first_true(viol) if viol.any() else (), note)


def _check_closure(k: _OpKernel) -> PostulateReport:
    # outcomes are belief sets by construction (model sets are closed);
    # verify language agreement as the honest structural remnant; count
    # tests identity before ==, and tables share a few language objects
    langs = list(map(attrgetter("lang"), k.outputs))
    foreign = langs.count(k.t.lang) != len(langs)
    viol = np.array([x != k.t.lang for x in langs]) if foreign else np.zeros(len(langs), bool)
    return _first_item(k, PostulateId.CLOSURE, viol, "outcome over a different language")


def _check_relative_success(k: _OpKernel) -> PostulateReport:
    return _first_item(k, PostulateId.RELATIVE_SUCCESS, ~(k.eq_k | k.diag),
                       "outcome differs from K yet contains no member of the input")


def _check_regularity(k: _OpKernel) -> PostulateReport:
    n = len(k.out)
    bad = ~k.diag & k.M.any(axis=1)
    if not bad.any():
        return _report(k, PostulateId.REGULARITY, n * n)
    (a,) = _first_true(bad)
    (b,) = _first_true(k.M[a, k.inv])
    return _report(k, PostulateId.REGULARITY, n * n, (a, b),
                   "first set meets the second's outcome but not its own")


def _check_confirmation(k: _OpKernel) -> PostulateReport:
    return _first_item(k, PostulateId.CONFIRMATION, k.meets_k & ~k.eq_k,
                       "input meets K's theory but the outcome is not K")


def _check_reciprocity(k: _OpKernel) -> PostulateReport:
    n = len(k.out)
    # A_a has a partner in another group j iff A_a meets outcome j and
    # some input of group j meets A_a's outcome, that is ge[j, inv[a]]
    met_by = k.ge.T & ~np.eye(len(k.uniq), dtype=bool)
    bad = (k.M & met_by[k.inv]).any(axis=1)
    if not bad.any():
        return _report(k, PostulateId.RECIPROCITY, n * n)
    (a,) = _first_true(bad)
    (b,) = _first_true(k.M[a, k.inv] & k.M[:, k.inv[a]] & (k.inv != k.inv[a]))
    return _report(k, PostulateId.RECIPROCITY, n * n, (a, b),
                   "each set meets the other's outcome yet outcomes differ")


def _check_success(k: _OpKernel) -> PostulateReport:
    return _first_item(k, PostulateId.SUCCESS, (k.t.sizes > 0) & ~k.diag,
                       "nonempty input missing from its outcome")


def _check_vacuity(k: _OpKernel) -> PostulateReport:
    e = k.t.empty_index
    bad = (e,) if k.outputs[e] != k.K else ()
    return _report(k, PostulateId.VACUITY, 1, bad, "empty input must return K")


def _check_consistency(k: _OpKernel) -> PostulateReport:
    viol = k.out == 0
    bottom = k.t.index.get((0,))
    if bottom is not None:
        viol[bottom] = False
    return _first_item(
        k, PostulateId.CONSISTENCY, viol,
        "inconsistent outcome for an input not equivalent to the contradiction singleton",
    )


def _check_syntax_irrelevance(k: _OpKernel) -> PostulateReport:
    # inputs are sentence classes: equivalent sets are the same set, so the
    # table cannot distinguish them
    return _report(k, PostulateId.SYNTAX_IRRELEVANCE, len(k.out))


def _check_cautiousness(k: _OpKernel) -> PostulateReport:
    # only subset pairs can violate it; they are sorted in scan order
    sub, sup = k.t.subset_pairs
    viol = k.M[sub, k.inv[sup]] & (k.out[sub] != k.out[sup])
    n = len(k.out)
    if not viol.any():
        return _report(k, PostulateId.CAUTIOUSNESS, n * n)
    (first,) = _first_true(viol)
    return _report(k, PostulateId.CAUTIOUSNESS, n * n, (int(sub[first]), int(sup[first])),
                   "subset meets the superset's outcome yet outcomes differ")


def _check_dichotomy(k: _OpKernel) -> PostulateReport:
    ia, ib, iu, skipped = k.t.union_triples
    outu = k.out[iu]
    viol = (outu != k.out[ia]) & (outu != k.out[ib])
    if not viol.any():
        return _report(k, PostulateId.DICHOTOMY, len(iu), skipped=skipped)
    (first,) = _first_true(viol)
    return _report(k, PostulateId.DICHOTOMY, len(iu),
                   (int(ia[first]), int(ib[first]), int(iu[first])),
                   "outcome of the union matches neither part's outcome", skipped)


def _check_strong_reciprocity(k: _OpKernel) -> PostulateReport:
    n = len(k.out)
    # A loop of mutually meeting inputs with unequal outcomes exists iff
    # the outcome quotient has a component of two or more groups.  An edge
    # i -> j there means some input with outcome i meets the outcome of,
    # so reaches, every input with outcome j; a quotient cycle through
    # distinct groups therefore closes a loop of inputs, and any input loop
    # projects onto a closed walk through its groups.  Groups i and j share
    # a component iff each reaches the other in the quotient's closure, so
    # a group is in a mixed component iff its row of that mutual relation
    # has a second entry, and argmax labels it by the component's smallest
    # group.  The quotient has at most 2^(2^atoms) nodes.
    mutual = k.reach & k.reach.T
    mixed = mutual.sum(axis=1) > 1
    if not mixed.any():
        return _report(k, PostulateId.STRONG_RECIPROCITY, n * n)
    # The witness is the loop through the first mixed component of the
    # input graph (A_a -> A_b iff M[a, inv[b]]) in Tarjan's output order,
    # not any loop the quotient shows.  The quotient gives the input
    # components: A_a is on a cycle iff M[a, j] for a group j in the
    # quotient component Q of inv[a], the inputs on a cycle in one Q form
    # one input component, and it is mixed iff Q has two or more groups.
    # The rest are single nodes, so one depth-first search finds the
    # component's output position and discovery order.  With one mixed
    # component, x is the first input on a cycle that the search discovers
    # and y the first one after it in another group, so the search stops
    # at y; with more, it stops when the first one's first member finishes.
    qid = np.where(mixed, mutual.argmax(axis=1), -1)
    mine = qid[k.inv]
    on_cycle = (k.M & (qid == mine[:, None])).any(axis=1)
    comp_of = np.where(on_cycle & (mine >= 0), mine, -1).tolist()
    rows = _InputRows(k)
    members = graphs.first_component(rows, comp_of)
    x = next(members)
    y = next(v for v in members if k.inv[v] != k.inv[x])
    # the BFS path there, then the BFS path back
    cycle = graphs.shortest_path(rows, x, y)[:-1] + graphs.shortest_path(rows, y, x)[:-1]
    return _report(k, PostulateId.STRONG_RECIPROCITY, n * n, tuple(cycle),
                   "loop of mutually meeting inputs with unequal outcomes")


class _InputRows(dict):
    """Bitset rows of the input graph, A_a -> A_b iff M[a, inv[b]], each
    built when a walk first reads it.

    The successors of A_a are whole groups, the j with M[a, j], so row a
    is the OR of those groups' bitsets; groups are disjoint, so that OR is
    also a sum.  Only the rows of the inputs a walk expands are built:
    about 20 of 257 on a random operator at n=257, where the depth-first
    search stops at the witness.
    """

    def __init__(self, k: "_OpKernel"):
        self.M = k.M
        self.groups = graphs.bitset_rows(k.inv == np.arange(len(k.uniq))[:, None])

    def __missing__(self, a: int) -> int:
        row = self[a] = sum(itertools.compress(self.groups, self.M[a].tolist()))
        return row


_CHECKERS = {
    PostulateId.CLOSURE: _check_closure,
    PostulateId.RELATIVE_SUCCESS: _check_relative_success,
    PostulateId.REGULARITY: _check_regularity,
    PostulateId.CONFIRMATION: _check_confirmation,
    PostulateId.RECIPROCITY: _check_reciprocity,
    PostulateId.SUCCESS: _check_success,
    PostulateId.VACUITY: _check_vacuity,
    PostulateId.CONSISTENCY: _check_consistency,
    PostulateId.SYNTAX_IRRELEVANCE: _check_syntax_irrelevance,
    PostulateId.CAUTIOUSNESS: _check_cautiousness,
    PostulateId.DICHOTOMY: _check_dichotomy,
    PostulateId.STRONG_RECIPROCITY: _check_strong_reciprocity,
}


def check_postulate(op: ChoiceOperator, p: PostulateId) -> PostulateReport:
    """Check one postulate over the whole universe.

    Each operator checks each postulate once: the report is memoised on
    the operator's kernel, and later calls (check_equivalences, the gates
    in synthesis) return that same frozen report object.  A report that
    holds is one object for every table on the universe.
    """
    k = op._kernel()
    report = k.reports.get(p)
    if report is None:
        report = _CHECKERS[p](k)
        if report.holds:
            report = k.t.shared_reports.setdefault(report, report)
        k.reports[p] = report
    return report


def check_postulates(
    op: ChoiceOperator, ps: Optional[Iterable[PostulateId]] = None
) -> dict[PostulateId, PostulateReport]:
    ps = tuple(ps) if ps is not None else tuple(PostulateId)
    return {p: check_postulate(op, p) for p in ps}


def passes(op: ChoiceOperator, ps: Iterable[PostulateId]) -> bool:
    return all(check_postulate(op, p).holds for p in ps)


def witness_violates(op: ChoiceOperator, p: PostulateId, w: Witness) -> bool:
    """Re-evaluate a reported witness against the defining formula."""
    k = op.K
    if p == PostulateId.CLOSURE:
        (a,) = w.inputs
        return op.outcome(a).lang != op.lang
    if p == PostulateId.RELATIVE_SUCCESS:
        (a,) = w.inputs
        out = op.outcome(a)
        return out != k and not theory_meets(a, out)
    if p == PostulateId.REGULARITY:
        a, b = w.inputs
        return theory_meets(a, op.outcome(b)) and not theory_meets(a, op.outcome(a))
    if p == PostulateId.CONFIRMATION:
        (a,) = w.inputs
        return theory_meets(a, k) and op.outcome(a) != k
    if p == PostulateId.RECIPROCITY:
        a, b = w.inputs
        return (
            theory_meets(a, op.outcome(b))
            and theory_meets(b, op.outcome(a))
            and op.outcome(a) != op.outcome(b)
        )
    if p == PostulateId.SUCCESS:
        (a,) = w.inputs
        return len(a) > 0 and not theory_meets(a, op.outcome(a))
    if p == PostulateId.VACUITY:
        (a,) = w.inputs
        return len(a) == 0 and op.outcome(a) != k
    if p == PostulateId.CONSISTENCY:
        (a,) = w.inputs
        return a.mask_tuple != (0,) and not op.outcome(a).is_consistent
    if p == PostulateId.CAUTIOUSNESS:
        a, b = w.inputs
        return (
            a.issubset(b)
            and theory_meets(a, op.outcome(b))
            and op.outcome(a) != op.outcome(b)
        )
    if p == PostulateId.DICHOTOMY:
        a, b, u = w.inputs
        if a.union(b) != u:
            return False
        return op.outcome(u) != op.outcome(a) and op.outcome(u) != op.outcome(b)
    if p == PostulateId.STRONG_RECIPROCITY:
        cycle = w.inputs
        if len(cycle) < 2:
            return False
        edges_ok = all(
            theory_meets(cycle[i], op.outcome(cycle[(i + 1) % len(cycle)]))
            for i in range(len(cycle))
        )
        outs = {op.outcome(a) for a in cycle}
        return edges_ok and len(outs) > 1
    return False


# ---------------------------------------------------------------------------
# Derived-property equivalences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class EquivalenceItem:
    name: str
    applicable: bool
    holds: Optional[bool]
    detail: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "holds": self.holds,
            "detail": self.detail,
        }


@dataclass(frozen=True, slots=True)
class EquivalenceReport:
    items: tuple[EquivalenceItem, ...]

    @property
    def all_confirmed(self) -> bool:
        return all(it.holds for it in self.items if it.applicable)

    def to_dict(self) -> dict:
        return {"items": [it.to_dict() for it in self.items], "all_confirmed": self.all_confirmed}


def check_equivalences(op: ChoiceOperator) -> EquivalenceReport:
    """Conditional equivalences between the core and derived postulates.

    Each item is checked only when its antecedent postulates hold on this
    operator; inapplicable items carry holds=None.  Equal reports on one
    universe are one object.
    """
    r = check_postulates(op)
    items = []

    ante = r[PostulateId.RELATIVE_SUCCESS].holds and r[PostulateId.REGULARITY].holds
    items.append(
        EquivalenceItem(
            "reciprocity_iff_cautiousness",
            ante,
            (r[PostulateId.RECIPROCITY].holds == r[PostulateId.CAUTIOUSNESS].holds)
            if ante
            else None,
            "given relative_success and regularity",
        )
    )

    ante = r[PostulateId.REGULARITY].holds
    items.append(
        EquivalenceItem(
            "reciprocity_iff_strong_reciprocity",
            ante,
            (r[PostulateId.RECIPROCITY].holds == r[PostulateId.STRONG_RECIPROCITY].holds)
            if ante
            else None,
            "given regularity",
        )
    )

    ante = all(r[p].holds for p in BASIC_POSTULATES)
    items.append(
        EquivalenceItem(
            "syntax_irrelevance_derived",
            ante,
            r[PostulateId.SYNTAX_IRRELEVANCE].holds if ante else None,
            "given the five core postulates",
        )
    )
    d = r[PostulateId.DICHOTOMY]
    items.append(
        EquivalenceItem(
            "dichotomy_derived",
            ante,
            d.holds if ante else None,
            f"given the five core postulates ({d.skipped} union instances outside the universe skipped)",
        )
    )
    report = EquivalenceReport(tuple(items))
    return _tables(op.universe).shared_reports.setdefault(report, report)
