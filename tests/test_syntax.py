"""One connective grammar: the shared parser and renderer against references.

The references below are the two separate recursive-descent parsers and
the descriptor renderer the package had before sentences and descriptors
shared one grammar core.  That core now parses one token list by
precedence climbing, while the references walk the text character by
character, so the texts include Unicode whitespace, multi-digit atoms
and glued tokens.  The sentence reference builds a tree of the test-side
node types (reference_tree.py).  Text parsed straight to a sentence
class must give the class of that tree, evaluated valuation by
valuation, or raise the reference's error with the same message and
position.  Every descriptor parse must give the reference's tree or
error, and every descriptor render must give the reference's text.
"""

import pytest
from hypothesis import given, settings, strategies as st

from choicerev.descriptors import (
    BelAtom,
    DescAnd,
    DescImplies,
    DescNot,
    DescOr,
    DescriptorError,
    _class_text,
    format_descriptor,
    format_molecular,
    parse_descriptor,
    parse_molecular,
)
from choicerev.logic import (
    LanguageSpec,
    ParseError,
    SentenceClass,
    class_of,
    parse_input_set,
)
from reference_tree import And, Atom, Bottom, Implies, Not, Or, Top, tree_class


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

class _RefParser:
    """Recursive descent over: `->` (loosest, right-assoc), `|`, `&`, `~` (tightest)."""

    def __init__(self, text, lang):
        self.text = text
        self.lang = lang
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        node = self.parse_implies()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return node

    def parse_implies(self):
        left = self.parse_or()
        self.skip_ws()
        if self.text.startswith("->", self.pos):
            self.pos += 2
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self):
        node = self.parse_and()
        while self.peek() == "|":
            self.pos += 1
            node = Or(node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_unary()
        while self.peek() == "&":
            self.pos += 1
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self):
        ch = self.peek()
        if ch == "~":
            self.pos += 1
            return Not(self.parse_unary())
        if ch == "(":
            self.pos += 1
            node = self.parse_implies()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return node
        if ch == "T":
            self.pos += 1
            return Top()
        if ch == "F":
            self.pos += 1
            return Bottom()
        if ch == "p":
            start = self.pos
            self.pos += 1
            digits = ""
            while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
                digits += self.text[self.pos]
                self.pos += 1
            if not digits:
                raise ParseError("expected atom index after 'p'", start)
            index = int(digits)
            if index >= self.lang.atom_count:
                raise ParseError(
                    f"atom index {index} out of range for {self.lang.atom_count} atoms",
                    start,
                )
            return Atom(index)
        if ch == "":
            raise ParseError("unexpected end of input", self.pos)
        raise ParseError(f"unexpected {ch!r}", self.pos)


class _RefDescParser:
    def __init__(self, text, lang):
        self.text = text
        self.lang = lang
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_composite(self):
        members = [self.parse_implies()]
        while self.peek() == ",":
            self.pos += 1
            members.append(self.parse_implies())
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return frozenset(members)

    def parse_implies(self):
        left = self.parse_or()
        self.skip_ws()
        if self.text.startswith("->", self.pos):
            self.pos += 2
            return DescImplies(left, self.parse_implies())
        return left

    def parse_or(self):
        node = self.parse_and()
        while self.peek() == "|":
            self.pos += 1
            node = DescOr(node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_unary()
        while self.peek() == "&":
            self.pos += 1
            node = DescAnd(node, self.parse_unary())
        return node

    def parse_unary(self):
        ch = self.peek()
        if ch == "!":
            self.pos += 1
            return DescNot(self.parse_unary())
        if ch == "(":
            self.pos += 1
            node = self.parse_implies()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return node
        if ch == "B":
            self.pos += 1
            if self.peek() != "(":
                raise ParseError("expected '(' after 'B'", self.pos)
            self.pos += 1
            sub = _RefParser(self.text, self.lang)
            sub.pos = self.pos
            formula = sub.parse_implies()
            self.pos = sub.pos
            if self.peek() != ")":
                raise ParseError("expected ')' closing 'B('", self.pos)
            self.pos += 1
            return BelAtom(tree_class(formula, self.lang))
        if ch == "":
            raise ParseError("unexpected end of input", self.pos)
        raise ParseError(f"unexpected {ch!r}", self.pos)


def _ref_parse_descriptor(text, lang):
    return _RefDescParser(text, lang).parse_composite()


def _ref_class_of(text, lang):
    return tree_class(_RefParser(text, lang).parse(), lang)


def _ref_parse_input_set(text, lang):
    """Split on commas and parse each member alone, its error positions
    moved by the member's offset.  A member that ends too early ends at
    the comma that follows it, so its end of input reads as that comma."""
    if not text.strip():
        return frozenset()
    classes, offset = set(), 0
    parts = text.split(",")
    for i, part in enumerate(parts):
        try:
            classes.add(_ref_class_of(part, lang))
        except ParseError as exc:
            message = str(exc).rsplit(" (at position ", 1)[0]
            if message == "unexpected end of input" and i + 1 < len(parts):
                message = "unexpected ','"
            raise ParseError(message, offset + exc.position) from None
        offset += len(part) + 1
    return frozenset(classes)


def _ref_parse_molecular(text, lang):
    d = _ref_parse_descriptor(text, lang)
    if len(d) != 1:
        raise DescriptorError("expected a single molecular descriptor")
    return next(iter(d))


_REF_PREC = {DescImplies: 1, DescOr: 2, DescAnd: 3, DescNot: 4}


def _ref_format_molecular(d):
    def render(node, parent_prec, right_of_implies):
        if isinstance(node, BelAtom):
            return f"B({_class_text(node.cls)})"
        if isinstance(node, DescNot):
            return "!" + render(node.child, _REF_PREC[DescNot], False)
        prec = _REF_PREC[type(node)]
        if isinstance(node, DescImplies):
            body = render(node.left, prec + 1, False) + " -> " + render(node.right, prec, True)
        elif isinstance(node, DescOr):
            body = render(node.left, prec, False) + " | " + render(node.right, prec + 1, False)
        else:
            body = render(node.left, prec, False) + " & " + render(node.right, prec + 1, False)
        if prec < parent_prec or (prec == parent_prec and not right_of_implies and isinstance(node, DescImplies)):
            return "(" + body + ")"
        return body

    return render(d, 0, False)


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

def _outcome(parse, text, lang):
    """The parse, or the error's type, message and position."""
    try:
        return parse(text, lang)
    except (ParseError, DescriptorError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# the grammar's alphabet, Unicode whitespace (tab, a separator control,
# no-break and em spaces) and one foreign character
_ALPHABET = "p0123456789~!&|->()TFB, \t\x1c\xa0\u2003x"
# whole tokens, so that most strings get past the first few characters,
# plus multi-digit atoms and glued or split tokens
_TOKENS = ("p0", "p1", "p2", "p", "~", "!", "&", "|", "->", "-", ">", "(", ")",
           "T", "F", "B(", "B", ",", " ", "x", "\t", "\x1c", "\xa0", "\u2003",
           "p01", "p10", "p0p1", "TF", "- >")



@st.composite
def sentences(draw):
    """Mostly well-formed text: a random formula or composite descriptor,
    spaced and bracketed at random, then sometimes one character dropped
    or one inserted."""

    def expr(depth, leaf, negation):
        choice = draw(st.integers(0, 4)) if depth else 0
        if choice == 0:
            return leaf()
        if choice == 1:
            return negation + expr(depth - 1, leaf, negation)
        if choice == 2:
            return "(" + expr(depth - 1, leaf, negation) + ")"
        op = draw(st.sampled_from(("&", "|", "->")))
        space = draw(st.sampled_from(("", " ")))
        return expr(depth - 1, leaf, negation) + space + op + space + expr(depth - 1, leaf, negation)

    def formula_leaf():
        return draw(st.sampled_from(("p0", "p1", "p2", "T", "F")))

    def bel_leaf():
        return "B(" + expr(2, formula_leaf, "~") + ")"

    if draw(st.booleans()):
        text = expr(4, formula_leaf, "~")
    else:
        text = ", ".join(expr(3, bel_leaf, "!") for _ in range(draw(st.integers(1, 3))))
    edit = draw(st.integers(0, 2))
    if edit:
        i = draw(st.integers(0, len(text) - 1))
        if edit == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + draw(st.sampled_from(_ALPHABET)) + text[i:]
    return text


texts = st.one_of(
    st.text(alphabet=_ALPHABET, max_size=30),
    st.lists(st.sampled_from(_TOKENS), max_size=25).map("".join),
    sentences(),
)
langs = st.integers(1, 3).map(LanguageSpec)

_PAIRS = (
    (parse_descriptor, _ref_parse_descriptor),
    (parse_molecular, _ref_parse_molecular),
)


@settings(max_examples=1500, deadline=None)
@given(texts, langs)
def test_parsers_match_references(text, lang):
    for parse, reference in _PAIRS:
        assert _outcome(parse, text, lang) == _outcome(reference, text, lang), parse.__name__


@settings(max_examples=1000, deadline=None)
@given(texts, langs)
def test_text_classes_match_evaluated_trees(text, lang):
    """The mask grammar against the reference tree, evaluated valuation
    by valuation."""
    assert _outcome(class_of, text, lang) == _outcome(_ref_class_of, text, lang)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(texts, st.lists(texts, min_size=2, max_size=3).map(",".join)), langs)
def test_input_sets_match_member_references(text, lang):
    """One token list over the whole input against one reference parse per member."""
    got = _outcome(parse_input_set, text, lang)
    if not isinstance(got, tuple):
        got = got.classes
    assert got == _outcome(_ref_parse_input_set, text, lang)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_pool_classes_match_model_masks(workloads, seed):
    """Every revise_serve request text gives the member masks the
    benchmark computes with its own evaluator."""
    w = workloads.ReviseServe(seed)
    w.setup()
    for atoms, pool in w.pool.items():
        lang = LanguageSpec(atoms)
        for text, masks in pool:
            assert {c.mask for c in parse_input_set(text, lang).classes} == masks, text


def parse_formula(text, lang):
    """One sentence's text to its class: `class_of`, under the name the
    error table's rows carry."""
    return class_of(text, lang)


@pytest.mark.parametrize(
    "parse, text, message, position",
    [
        (parse_formula, "p0 &", "unexpected end of input", 4),
        (parse_formula, "p0 | p1 )", "unexpected ')'", 8),
        (parse_formula, "(p0", "expected ')'", 3),
        (parse_formula, "~ p", "expected atom index after 'p'", 2),
        (parse_formula, "p\u00b2", "expected atom index after 'p'", 0),
        (parse_formula, "p\u0663", "expected atom index after 'p'", 0),
        (parse_formula, "p0 & p7", "atom index 7 out of range for 2 atoms", 5),
        (parse_formula, "!p0", "unexpected '!'", 0),
        (parse_formula, "p0 - p1", "unexpected '-'", 3),
        (parse_formula, "p0p1", "unexpected 'p'", 2),
        (parse_formula, "TF", "unexpected 'F'", 1),
        (parse_formula, "p0 - > p1", "unexpected '-'", 3),
        (parse_descriptor, "~B(p0)", "unexpected '~'", 0),
        (parse_descriptor, "B (p0) & B", "expected '(' after 'B'", 10),
        (parse_descriptor, "B(p0 & !p1)", "unexpected '!'", 7),
        (parse_descriptor, "B(p0 p1)", "expected ')' closing 'B('", 5),
        (parse_descriptor, "B(p0),", "unexpected end of input", 6),
        (parse_descriptor, "B(p0), p0", "unexpected 'p'", 7),
        (parse_descriptor, "B(p0)p1", "unexpected 'p'", 5),
        (parse_input_set, "p0 ,p9", "atom index 9 out of range for 2 atoms", 4),
        (parse_input_set, "p0, p1 &", "unexpected end of input", 8),
        (parse_input_set, " , p0", "unexpected ','", 1),
        (parse_input_set, "p0 &, p1", "unexpected ','", 4),
        (parse_input_set, "p0, p1 p0", "unexpected 'p'", 7),
        (parse_input_set, "p0,\tp1 &\x1c", "unexpected end of input", 9),
        (parse_input_set, "p10", "atom index 10 out of range for 2 atoms", 0),
    ],
)
def test_error_positions(lang2, parse, text, message, position):
    with pytest.raises(ParseError) as exc:
        parse(text, lang2)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_association(lang2):
    """Sentences on classes: a leading zero reads p01 as p1, and -> groups
    to the right, which no other grouping's class matches; descriptors
    on trees."""
    p0, p1 = Atom(0), Atom(1)
    assert class_of("p01 & p1", lang2) == tree_class(And(p1, p1), lang2)
    assert class_of("p01 & p1", lang2) != class_of("p0 & p1", lang2)
    assert class_of("p0 -> p1 -> p0", lang2) == tree_class(Implies(p0, Implies(p1, p0)), lang2)
    assert class_of("p0 -> p1 -> p0", lang2) != tree_class(Implies(Implies(p0, p1), p0), lang2)
    assert class_of("p0 | p1 | p0", lang2) == tree_class(Or(Or(p0, p1), p0), lang2)
    assert class_of("p0 & p1 & p0", lang2) == tree_class(And(And(p0, p1), p0), lang2)
    b0, b1 = (BelAtom(class_of(t, lang2)) for t in ("p0", "p1"))
    assert parse_molecular("B(p0) -> B(p1) -> B(p0)", lang2) == DescImplies(
        b0, DescImplies(b1, b0)
    )
    assert parse_molecular("B(p0) | B(p1) | B(p0)", lang2) == DescOr(DescOr(b0, b1), b0)
    assert parse_molecular("!!B(p0)", lang2) == DescNot(DescNot(b0))


@st.composite
def moleculars(draw, atom_count=2, max_depth=4):
    lang = LanguageSpec(atom_count)

    def build(depth):
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            return BelAtom(SentenceClass(lang, draw(st.integers(0, lang.full_mask))))
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return DescNot(build(depth - 1))
        return [DescAnd, DescOr, DescImplies][kind - 1](build(depth - 1), build(depth - 1))

    return lang, build(max_depth)


@settings(max_examples=500, deadline=None)
@given(moleculars(max_depth=5))
def test_format_molecular_matches_reference(pair):
    lang, d = pair
    text = format_molecular(d)
    assert text == _ref_format_molecular(d)
    assert parse_molecular(text, lang) == d


def test_format_descriptor(lang2):
    d = parse_descriptor("B(p1) -> B(p0), !(B(p0) | B(T))", lang2)
    assert format_descriptor(d) == ", ".join(sorted(_ref_format_molecular(m) for m in d))
