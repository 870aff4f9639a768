"""Finite propositional core: sentence classes, belief sets, input sets.

Everything downstream works over a language with a small fixed number of
atoms (p0, p1, ...).  A valuation is an int in [0, 2**atom_count) whose
bit i is the truth value of atom i.  A sentence denotes the set of
valuations satisfying it, packed into an int bitmask (bit v set iff
valuation v is a model).  Two sentences are interchangeable for every
operation in this package exactly when they have the same mask, so the
mask is the one form a sentence takes here: its sentence class.  Source
text goes straight to that mask: one regex splits the text into one
token list, one precedence-climbing core parses it, and a grammar whose
constructors are int operations builds the mask, with no syntax tree
and no per-valuation evaluation.

Belief sets are deductively closed theories, represented by their set of
models (same bitmask packing).  The empty mask is the inconsistent
theory (every sentence follows), the full mask is the trivial theory
(only tautologies follow).  Entailment, conjunction and theory queries
are all O(1) bit operations.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

# Hard caps. Valuation masks stay machine-word sized below these, and the
# exhaustive sweeps (all classes, all belief sets) stay enumerable.
MAX_ATOMS = 4
MAX_EXHAUSTIVE_ATOMS = 3


class LanguageError(ValueError):
    """Language or cap violation (too many atoms, exhaustive sweep too big)."""


class ParseError(ValueError):
    """Syntax error; carries the 0-based offset where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class LanguageSpec:
    """A propositional language with atoms p0 .. p(atom_count-1)."""

    atom_count: int

    def __post_init__(self) -> None:
        if not 1 <= self.atom_count <= MAX_ATOMS:
            raise LanguageError(
                f"atom_count must be in 1..{MAX_ATOMS}, got {self.atom_count}"
            )

    @property
    def valuation_count(self) -> int:
        return 1 << self.atom_count

    @property
    def full_mask(self) -> int:
        return (1 << self.valuation_count) - 1

    def valuations(self) -> range:
        return range(self.valuation_count)

    def require_exhaustive(self) -> None:
        """Guard for operations that enumerate all 2**2**atom_count classes."""
        if self.atom_count > MAX_EXHAUSTIVE_ATOMS:
            raise LanguageError(
                f"exhaustive enumeration needs atom_count <= {MAX_EXHAUSTIVE_ATOMS}, "
                f"got {self.atom_count}"
            )

    def require_own(self, c: "SentenceClass", where: str) -> None:
        """Refuse a class over another language: its mask names another
        class of this one, so a table over this language would answer
        for that class.  Languages differ only in their atom count, which
        is compared directly: dataclass equality costs five times as
        much."""
        if c.lang.atom_count != self.atom_count:
            raise LanguageError(
                f"class over {c.lang.atom_count} atoms in {where} over "
                f"{self.atom_count} atoms"
            )


def valuation_to_bits(valuation: int, lang: LanguageSpec) -> str:
    """Encode a valuation as a bitstring; char i is the truth value of atom i."""
    return "".join("1" if valuation >> i & 1 else "0" for i in range(lang.atom_count))


def bits_to_valuation(bits: str, lang: LanguageSpec) -> int:
    if len(bits) != lang.atom_count or any(c not in "01" for c in bits):
        raise LanguageError(f"bad valuation string {bits!r} for {lang.atom_count} atoms")
    return sum(1 << i for i, c in enumerate(bits) if c == "1")


# ---------------------------------------------------------------------------
# Sentence syntax
# ---------------------------------------------------------------------------

class _Grammar:
    """One syntax over the shared connectives.

    A grammar names its negation character, its four constructors of the
    parsed children, its leaf table, a leaf rule and a leaf renderer.
    The leaf table gives, per atom count, the value of each leaf token of
    that language.  The leaf rule gets a token the table lacks, with the
    grammar, the token list, the text and the language, and returns a
    value, or None when the token starts no leaf.  Everything else, from
    precedence to error messages, is `_expression` and `format`.  Two
    grammars exist: `_MASK`, whose constructors are int operations, so
    a sentence parses straight to its class mask and nothing renders;
    and the descriptor grammar (descriptors.py), whose constructors are
    node classes, which `format` dispatches on.
    """

    def __init__(self, negation, not_, and_, or_, implies, leaves, leaf, leaf_text):
        self.negation, self.not_ = negation, not_
        self.leaves, self.leaf, self.leaf_text = leaves, leaf, leaf_text
        # binary token: (its level, loosest first, the level of its right
        # operand, constructor); -> is right-associative, so its right
        # operand may hold another ->
        self.binary = {"->": (1, 1, implies), "|": (2, 3, or_), "&": (3, 4, and_)}
        # the renderer's levels are the parser's; unary negation binds tightest
        self._ranks = {ctor: (level, f" {tok} ") for tok, (level, _, ctor) in self.binary.items()}
        self._ranks[not_] = (4, negation)

    def format(self, node) -> str:
        """Render with minimal parentheses; parses back to the same tree."""
        return self._render(node, 0)

    def _render(self, node, parent: int) -> str:
        rank = self._ranks.get(type(node))
        if rank is None:
            return self.leaf_text(node)
        prec, symbol = rank
        if prec == 4:
            return symbol + self._render(node.child, 4)
        if prec == 1:
            # right-associative: only the right child may carry another bare ->
            body = self._render(node.left, 2) + symbol + self._render(node.right, 1)
        else:
            body = self._render(node.left, prec) + symbol + self._render(node.right, prec + 1)
        return "(" + body + ")" if prec < parent else body


# Whitespace (exactly what str.isspace accepts) separates tokens.  An atom
# token takes ASCII digits only: str.isdigit also takes superscript and
# Arabic-Indic digits.
_TOKEN = re.compile(r"->|p[0-9]*|\S")


def _tokens(text: str) -> list[str]:
    """The tokens of `text`, last first, over a "" end-of-input sentinel.

    A parser takes the next token with `pop()` and peeks at `toks[-1]`.
    """
    toks = _TOKEN.findall(text)
    toks.append("")
    toks.reverse()
    return toks


def _error(message: str, text: str, left: int) -> ParseError:
    """The error at the token that was on top when `left` tokens, the
    sentinel included, were left: its offset in `text`, or len(text) at
    the sentinel."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    starts.append(len(text))
    return ParseError(message, starts[-left])


def _expect(toks: list[str], text: str, tok: str, message: str) -> None:
    if toks[-1] != tok:
        raise _error(message, text, len(toks))
    toks.pop()


def _finish(toks: list[str], text: str) -> None:
    if toks[-1]:
        raise _error(f"unexpected {toks[-1][0]!r}", text, len(toks))


def _expression(toks: list[str], text: str, lang: LanguageSpec, g: _Grammar, level: int = 1):
    """Precedence climbing: one operand, then every binary operator that
    binds at `level` or tighter, each right operand one recursive call."""
    tok = toks.pop()
    node = g.leaves[lang.atom_count].get(tok)
    if node is None:
        if tok == "(":
            node = _expression(toks, text, lang, g)
            _expect(toks, text, ")", "expected ')'")
        elif tok == g.negation:
            node = g.not_(_expression(toks, text, lang, g, 4))
        else:
            node = g.leaf(g, tok, toks, text, lang)
            if node is None:
                message = f"unexpected {tok[0]!r}" if tok else "unexpected end of input"
                raise _error(message, text, len(toks) + 1)
    binary = g.binary
    while True:
        op = binary.get(toks[-1])
        if op is None or op[0] < level:
            return node
        toks.pop()
        node = op[2](node, _expression(toks, text, lang, g, op[1]))


def _sentence(toks: list[str], text: str, lang: LanguageSpec) -> "SentenceClass":
    """The class of the sentence on top of `toks`, parsed straight to its mask."""
    return SentenceClass(lang, _expression(toks, text, lang, _MASK) & lang.full_mask)


def _atom_leaf(g: _Grammar, tok: str, toks: list[str], text: str, lang: LanguageSpec):
    """An atom token the leaf table lacks: p01 is p1; a bare p, or an index
    out of range, is an error."""
    if tok[:1] != "p":
        return None
    if tok == "p":
        raise _error("expected atom index after 'p'", text, len(toks) + 1)
    index = int(tok[1:])
    if index >= lang.atom_count:
        raise _error(
            f"atom index {index} out of range for {lang.atom_count} atoms", text, len(toks) + 1
        )
    return g.leaves[lang.atom_count][f"p{index}"]


# atom i's models among all 2**MAX_ATOMS valuations; a smaller language's
# mask is the low full_mask bits of it.  Python ints are unbounded, so ~
# stays exact until `_sentence` cuts the result to full_mask.
_ATOM_MASKS = tuple(
    sum(1 << v for v in range(1 << MAX_ATOMS) if v >> i & 1) for i in range(MAX_ATOMS)
)
# per atom count k, the masks of the leaves T, F and p0 .. p(k-1)
_MASK = _Grammar("~", operator.invert, operator.and_, operator.or_, lambda a, b: ~a | b,
                 tuple({"T": -1, "F": 0, **{f"p{i}": _ATOM_MASKS[i] for i in range(k)}}
                       for k in range(MAX_ATOMS + 1)),
                 _atom_leaf, None)


# ---------------------------------------------------------------------------
# Sentence classes and belief sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class SentenceClass:
    """A formula up to logical equivalence: its set of models, as a bitmask.

    Ordering (and every tie-break in this package) is by (lang, mask),
    which matches ordering by the canonical encoding.
    """

    lang: LanguageSpec
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= self.lang.full_mask:
            raise LanguageError(f"class mask {self.mask} out of range")

    @property
    def is_contradiction(self) -> bool:
        return self.mask == 0

    @property
    def is_tautology(self) -> bool:
        return self.mask == self.lang.full_mask

    def models(self) -> tuple[int, ...]:
        return tuple(v for v in self.lang.valuations() if self.mask >> v & 1)

    def entails(self, other: "SentenceClass") -> bool:
        self.lang.require_own(other, "an entailment")
        return self.mask & ~other.mask == 0

    def conj(self, other: "SentenceClass") -> "SentenceClass":
        self.lang.require_own(other, "a conjunction")
        return SentenceClass(self.lang, self.mask & other.mask)

    def neg(self) -> "SentenceClass":
        return SentenceClass(self.lang, ~self.mask & self.lang.full_mask)

    def encode(self) -> list[str]:
        """Canonical form: sorted valuation bitstrings."""
        return sorted(valuation_to_bits(v, self.lang) for v in self.models())

    @classmethod
    def decode(cls, bits: Iterable[str], lang: LanguageSpec) -> "SentenceClass":
        mask = 0
        for b in bits:
            mask |= 1 << bits_to_valuation(b, lang)
        return cls(lang, mask)


def class_of(text: str, lang: LanguageSpec) -> SentenceClass:
    """The sentence class of source text, parsed straight to its mask."""
    toks = _tokens(text)
    c = _sentence(toks, text, lang)
    _finish(toks, text)
    return c


@dataclass(frozen=True, order=True)
class BeliefSet:
    """A deductively closed theory, identified by its set of models.

    mask == 0 is the inconsistent theory, mask == full the trivial one.
    A sentence is in the theory iff every model of the set satisfies it.
    """

    lang: LanguageSpec
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= self.lang.full_mask:
            raise LanguageError(f"belief set mask {self.mask} out of range")

    @property
    def is_consistent(self) -> bool:
        return self.mask != 0

    def believes(self, c: SentenceClass) -> bool:
        self.lang.require_own(c, "a belief set")
        return self.mask & ~c.mask == 0

    def models(self) -> tuple[int, ...]:
        return tuple(v for v in self.lang.valuations() if self.mask >> v & 1)

    def encode(self) -> list[str]:
        return sorted(valuation_to_bits(v, self.lang) for v in self.models())

    @classmethod
    def decode(cls, bits: Iterable[str], lang: LanguageSpec) -> "BeliefSet":
        mask = 0
        for b in bits:
            mask |= 1 << bits_to_valuation(b, lang)
        return cls(lang, mask)

    @classmethod
    def trivial(cls, lang: LanguageSpec) -> "BeliefSet":
        return cls(lang, lang.full_mask)

    @classmethod
    def inconsistent(cls, lang: LanguageSpec) -> "BeliefSet":
        return cls(lang, 0)

    @classmethod
    def closure_of(cls, classes: Iterable[SentenceClass], lang: LanguageSpec) -> "BeliefSet":
        """Close a set of accepted sentences: intersect their models."""
        mask = lang.full_mask
        for c in classes:
            mask &= c.mask
        return cls(lang, mask)

    def theory_classes(self) -> Iterator[SentenceClass]:
        """All sentence classes this theory entails. Exhaustive-cap guarded."""
        self.lang.require_exhaustive()
        for m in range(self.lang.full_mask + 1):
            if self.mask & ~m == 0:
                yield SentenceClass(self.lang, m)


def entails(x: BeliefSet, c: SentenceClass) -> bool:
    """Theory membership: c follows from x iff every model of x satisfies c."""
    return x.mask & ~c.mask == 0


# ---------------------------------------------------------------------------
# Input sets (finite sets of sentences offered for acceptance)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InputSet:
    """A finite set of sentence classes. The empty set is allowed."""

    lang: LanguageSpec
    classes: frozenset[SentenceClass]

    @classmethod
    def of(cls, lang: LanguageSpec, *items: Union[SentenceClass, str]) -> "InputSet":
        out = set()
        for it in items:
            if not isinstance(it, SentenceClass):
                it = class_of(it, lang)
            else:
                lang.require_own(it, "an input set")
            out.add(it)
        return cls(lang, frozenset(out))

    @classmethod
    def empty(cls, lang: LanguageSpec) -> "InputSet":
        return cls(lang, frozenset())

    def __iter__(self) -> Iterator[SentenceClass]:
        return iter(sorted(self.classes))

    def __len__(self) -> int:
        return len(self.classes)

    def __contains__(self, c: SentenceClass) -> bool:
        return c in self.classes

    @property
    def mask_tuple(self) -> tuple[int, ...]:
        """Sorted member masks; the canonical identity of this set."""
        return tuple(sorted(c.mask for c in self.classes))

    def union(self, other: "InputSet") -> "InputSet":
        return InputSet(self.lang, self.classes | other.classes)

    def issubset(self, other: "InputSet") -> bool:
        return self.classes <= other.classes

    def encode(self) -> list[list[str]]:
        return [c.encode() for c in sorted(self.classes)]

    @classmethod
    def decode(cls, data: Iterable[Iterable[str]], lang: LanguageSpec) -> "InputSet":
        return cls(lang, frozenset(SentenceClass.decode(bits, lang) for bits in data))


def parse_input_set(text: str, lang: LanguageSpec) -> InputSet:
    """Comma-separated formulas -> InputSet. Blank text is the empty set.

    The whole text is split into one token list, and each member is
    parsed from it straight to its class, so a `ParseError` position
    counts from the start of `text`.
    """
    toks = _tokens(text)
    if len(toks) == 1:
        return InputSet.empty(lang)
    classes = {_sentence(toks, text, lang)}
    while toks[-1] == ",":
        toks.pop()
        classes.add(_sentence(toks, text, lang))
    _finish(toks, text)
    return InputSet(lang, frozenset(classes))


# ---------------------------------------------------------------------------
# Exhaustive enumerations (small languages only)
# ---------------------------------------------------------------------------

def enumerate_classes(lang: LanguageSpec) -> list[SentenceClass]:
    """Every sentence class, ascending by mask (contradiction first)."""
    lang.require_exhaustive()
    return [SentenceClass(lang, m) for m in range(lang.full_mask + 1)]


def enumerate_belief_sets(lang: LanguageSpec) -> list[BeliefSet]:
    """Every theory, ascending by mask (inconsistent first, trivial last)."""
    lang.require_exhaustive()
    return [BeliefSet(lang, m) for m in range(lang.full_mask + 1)]
