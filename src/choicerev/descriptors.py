"""Descriptors: conditions on belief sets, built from "believes phi" atoms.

An atomic descriptor B(phi) is satisfied by a belief set X iff phi is in
X's theory.  Molecular descriptors combine atoms with !, &, |, ->.  A
composite descriptor is a set of molecular ones, satisfied when every
member is.  The choice descriptor of a nonempty input set A is the
disjunction of B(phi) over phi in A; a belief set satisfies it exactly
when its theory meets A.

Concrete syntax:  B(p0) & !B(p1 -> p0), members of a composite separated
by commas.  The connectives are the formula grammar's (logic.py), with
! for negation, parsed from the same token list; this module adds only
the B(formula) leaf and the composite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .logic import (
    BeliefSet,
    InputSet,
    LanguageSpec,
    MAX_ATOMS,
    SentenceClass,
    _expect,
    _expression,
    _finish,
    _Grammar,
    _sentence,
    _tokens,
    class_of,
    entails,
    format_formula,
    parse_formula,
)


class DescriptorError(ValueError):
    pass


@dataclass(frozen=True)
class BelAtom:
    cls: SentenceClass


@dataclass(frozen=True)
class DescNot:
    child: "Molecular"


@dataclass(frozen=True)
class DescAnd:
    left: "Molecular"
    right: "Molecular"


@dataclass(frozen=True)
class DescOr:
    left: "Molecular"
    right: "Molecular"


@dataclass(frozen=True)
class DescImplies:
    left: "Molecular"
    right: "Molecular"


Molecular = Union[BelAtom, DescNot, DescAnd, DescOr, DescImplies]
Descriptor = frozenset  # of Molecular


def satisfies(x: BeliefSet, d: Molecular) -> bool:
    """Recursive satisfaction of one molecular descriptor."""
    if isinstance(d, BelAtom):
        return entails(x, d.cls)
    if isinstance(d, DescNot):
        return not satisfies(x, d.child)
    if isinstance(d, DescAnd):
        return satisfies(x, d.left) and satisfies(x, d.right)
    if isinstance(d, DescOr):
        return satisfies(x, d.left) or satisfies(x, d.right)
    if isinstance(d, DescImplies):
        return not satisfies(x, d.left) or satisfies(x, d.right)
    raise TypeError(f"not a descriptor: {d!r}")


def satisfies_composite(x: BeliefSet, descriptor: Descriptor) -> bool:
    return all(satisfies(x, d) for d in descriptor)


def choice_descriptor(a: InputSet) -> Molecular:
    """B(phi0) | B(phi1) | ... over the members of a, in canonical order.

    Satisfied by X iff X's theory intersects a.  Undefined for empty a.
    """
    members = sorted(a.classes)
    if not members:
        raise DescriptorError("choice descriptor undefined for the empty input set")
    node: Molecular = BelAtom(members[0])
    for c in members[1:]:
        node = DescOr(node, BelAtom(c))
    return node


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

def _bel_leaf(g: _Grammar, tok: str, toks: list[str], text: str,
              lang: LanguageSpec) -> Union[BelAtom, None]:
    if tok != "B":
        return None
    _expect(toks, text, "(", "expected '(' after 'B'")
    c = _sentence(toks, text, lang)
    _expect(toks, text, ")", "expected ')' closing 'B('")
    return BelAtom(c)


def _bel_text(node: BelAtom) -> str:
    # a canonical formula for the class: disjunction of minterms
    return f"B({_class_text(node.cls)})"


_DESCRIPTOR = _Grammar("!", DescNot, DescAnd, DescOr, DescImplies,
                       ({},) * (MAX_ATOMS + 1), _bel_leaf, _bel_text)


def parse_descriptor(text: str, lang: LanguageSpec) -> Descriptor:
    """Parse a composite descriptor (comma-separated molecular members)."""
    toks = _tokens(text)
    members = [_expression(toks, text, lang, _DESCRIPTOR)]
    while toks[-1] == ",":
        toks.pop()
        members.append(_expression(toks, text, lang, _DESCRIPTOR))
    _finish(toks, text)
    return frozenset(members)


def parse_molecular(text: str, lang: LanguageSpec) -> Molecular:
    d = parse_descriptor(text, lang)
    if len(d) != 1:
        raise DescriptorError("expected a single molecular descriptor")
    return next(iter(d))


def format_molecular(d: Molecular) -> str:
    return _DESCRIPTOR.format(d)


def format_descriptor(descriptor: Descriptor) -> str:
    return ", ".join(sorted(format_molecular(m) for m in descriptor))


def _class_text(c: SentenceClass) -> str:
    """A formula whose class is c: disjunction of model minterms."""
    if c.is_contradiction:
        return "F"
    if c.is_tautology:
        return "T"
    terms = []
    for v in c.models():
        lits = []
        for i in range(c.lang.atom_count):
            lits.append(f"p{i}" if v >> i & 1 else f"~p{i}")
        terms.append(" & ".join(lits) if len(lits) == 1 else "(" + " & ".join(lits) + ")")
    return " | ".join(terms)


def formula_for_class(c: SentenceClass) -> str:
    """Readable source text denoting exactly this class."""
    text = _class_text(c)
    # sanity: the text must parse back to the same class
    assert class_of(parse_formula(text, c.lang), c.lang) == c
    return text


__all__ = [
    "BelAtom",
    "DescNot",
    "DescAnd",
    "DescOr",
    "DescImplies",
    "Molecular",
    "Descriptor",
    "DescriptorError",
    "satisfies",
    "satisfies_composite",
    "choice_descriptor",
    "parse_descriptor",
    "parse_molecular",
    "format_molecular",
    "format_descriptor",
    "formula_for_class",
    "format_formula",
]
