"""A formula tree: the sentence parser's reference in the tests.

The package parses text straight to a sentence class and keeps no
tree.  The tests build trees from these node types, evaluate them
valuation by valuation, and render them fully parenthesised, so that
`class_of` of a text can be compared with the class of the tree it
should denote.
"""

from dataclasses import dataclass

from choicerev.logic import LanguageSpec, SentenceClass


@dataclass(frozen=True)
class Atom:
    index: int


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Not:
    child: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


class Or(And):
    pass


class Implies(And):
    pass


# binary node type: its connective's text and truth function
_BINARY = {And: (" & ", lambda a, b: a and b), Or: (" | ", lambda a, b: a or b),
           Implies: (" -> ", lambda a, b: not a or b)}


def evaluate(f, v: int) -> bool:
    """The truth value of f under valuation v (bit i: atom i)."""
    if type(f) in _BINARY:
        return _BINARY[type(f)][1](evaluate(f.left, v), evaluate(f.right, v))
    if type(f) is Not:
        return not evaluate(f.child, v)
    return type(f) is Top or type(f) is Atom and bool(v >> f.index & 1)


def render(f) -> str:
    """Source text with every binary node in parentheses."""
    if type(f) in _BINARY:
        return "(" + render(f.left) + _BINARY[type(f)][0] + render(f.right) + ")"
    if type(f) is Not:
        return "~" + render(f.child)
    return f"p{f.index}" if type(f) is Atom else "T" if type(f) is Top else "F"


def tree_class(f, lang: LanguageSpec) -> SentenceClass:
    """The class of f: the valuations of lang under which it is true."""
    return SentenceClass(lang, sum(1 << v for v in lang.valuations() if evaluate(f, v)))
