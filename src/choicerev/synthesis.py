"""Representation machinery run as algorithms.

Each construction that justifies an operator characterization is
executed, not just cited: an ordered outcome model is synthesized from
any operator passing the core postulates and must regenerate it exactly;
a set-level believability ordering is derived from the operator's table
and must both satisfy its postulate set and regenerate the operator; the
single/set-level translations must round-trip.  Reports carry
re-checkable witnesses and a content hash of the synthesized artifact.

Single-sentence revision operators live here too, with the classic
three-cycle counterexample showing the loop-form of reciprocity is
strictly stronger than the two-point form.  Their postulates are the
set-level ones, run by the set-level checkers over the language's
classes (check_sentential_postulates).
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from . import graphs
from .believability import (
    QUASI_LINEAR_POSTULATES,
    STANDARD_POSTULATES,
    BelievabilityRelation,
    MultiBelievabilityRelation,
    RelationOperationError,
    RelationPostulateId,
    check_relation_postulate,
    derive_mb_from_operator,
    is_quasi_linear,
    lift,
    project,
    relation_text,
    relation_to_json,
)
from .logic import (
    BeliefSet,
    LanguageError,
    LanguageSpec,
    SentenceClass,
)
from .models import RelationalModel, check_extended_conditions
from .operators import (
    _CHECKERS,
    BASIC_POSTULATES,
    SUPPLEMENTARY_POSTULATES,
    ChoiceOperator,
    PostulateId,
    UniverseSpec,
    _class_tables,
    _first_true,
    _model_rows,
    _OpKernel,
    _tables,
    check_postulates,
)

class SynthesisError(ValueError):
    def __init__(self, message: str, reports: Optional[dict] = None):
        super().__init__(message)
        self.reports = reports or {}


# ---------------------------------------------------------------------------
# Model synthesis
# ---------------------------------------------------------------------------

def synthesize_model(op: ChoiceOperator) -> RelationalModel:
    """Build an ordered outcome model whose first satisfier rule
    regenerates the operator.

    Outcomes are the distinct table values; one outcome precedes another
    when a chain of inputs, each meeting the next one's outcome, links
    them.  The chain preorder is made total by a stable topological sort
    with ties broken by canonical belief-set encoding.
    """
    reports = check_postulates(op, BASIC_POSTULATES)
    for p in BASIC_POSTULATES:
        if not reports[p].holds:
            raise SynthesisError(f"postulate violation: {p.value}", reports)
    k = op._kernel()
    g = len(k.uniq)
    chain = k.reach
    if not chain.diagonal().all():
        raise SynthesisError("chain relation not reflexive on some outcome")
    anti = chain & chain.T & ~np.eye(g, dtype=bool)
    if anti.any():
        raise SynthesisError(
            "antisymmetry violation: distinct outcomes reach each other"
        )
    lang = op.lang
    sets_of = [BeliefSet(lang, int(m)) for m in k.uniq]
    order = graphs.stable_topological_order(
        g, chain, lambda i: tuple(sets_of[i].encode())
    )
    assert order is not None
    outcomes = tuple(sets_of[i] for i in order)
    model = RelationalModel(lang, op.K, outcomes)
    model.require_valid()
    return model


# ---------------------------------------------------------------------------
# Round-trip verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundTripReport:
    """A round trip's verdict, and the artifact it synthesized, if any.

    The report keeps the object the artifact comes from, not the artifact:
    the synthesized RelationalModel (theorems 1 and 2), the relation the
    verifier derived itself and hands to no one (theorems 4 and 5), or
    the single-sentence relation of a translation.  Each is frozen or
    private, so the artifact cannot change after the report is made.

    No artifact is built while the verifier runs.  artifact builds a new
    dict on each read: model.to_json() or relation_to_json(), about
    1.5 ms for a relation derived at n=137 and 45 ms at n=697.
    artifact_hash is the sha256 of that dict's JSON text with sorted keys
    and separators (",", ":"), computed on the first read and kept: the
    text is streamed row by row from the table (relation_text), with no
    dict built, about 1.5 ms at n=137 and 40 ms at n=697.  Later reads
    cost nothing.

    Two reports are equal when their to_dict() values are, which
    includes the artifact hash: the verdicts, witnesses, universes and
    artifact bytes agree.
    """

    theorem: int
    passed: bool
    detail: str
    witness: Optional[dict] = None
    _source: Union[RelationalModel, BelievabilityRelation, MultiBelievabilityRelation,
                   None] = field(default=None, repr=False, compare=False)
    universe: Optional[dict] = None

    @property
    def artifact(self) -> Optional[dict]:
        if isinstance(self._source, RelationalModel):
            return self._source.to_json()
        return relation_to_json(self._source) if self._source is not None else None

    @functools.cached_property
    def artifact_hash(self) -> Optional[str]:
        if self._source is None:
            return None
        h = hashlib.sha256()
        if isinstance(self._source, RelationalModel):
            h.update(json.dumps(self._source.to_json(), sort_keys=True,
                                separators=(",", ":")).encode())
        else:
            for chunk in relation_text(self._source):
                h.update(chunk.encode())
        return h.hexdigest()

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "passed": self.passed,
            "detail": self.detail,
            "witness": self.witness,
            "artifact_hash": self.artifact_hash,
            "universe": self.universe,
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, RoundTripReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def _universe_header(u: UniverseSpec) -> dict:
    return {
        "atoms": u.lang.atom_count,
        "max_input_size": u.max_input_size,
        "input_sets": u.size,
    }


def _gate_failure(
    op: ChoiceOperator, gate, theorem: int, header: dict
) -> Optional[RoundTripReport]:
    """The failing report for the first postulate of gate that op breaks,
    or None when op passes them all."""
    reports = check_postulates(op, gate)
    for p in gate:
        if not reports[p].holds:
            w = reports[p].witness
            return RoundTripReport(
                theorem,
                False,
                f"operator fails {p.value}",
                witness={"kind": "postulate", "postulate": p.value,
                         "witness": w.to_dict() if w else None},
                universe=header,
            )
    return None


def verify_roundtrip_model(
    op: ChoiceOperator, require_extended: bool = False
) -> RoundTripReport:
    """Synthesize an ordered outcome model and replay it over the universe.

    With require_extended, the operator must also pass success, vacuity
    and consistency, and the synthesized model must then contain the
    inconsistent outcome and settle every satisfiable class before it.
    """
    theorem = 2 if require_extended else 1
    header = _universe_header(op.universe)
    gate = list(BASIC_POSTULATES)
    if require_extended:
        gate += list(SUPPLEMENTARY_POSTULATES)
    failed = _gate_failure(op, gate, theorem, header)
    if failed is not None:
        return failed
    try:
        model = synthesize_model(op)
    except SynthesisError as exc:
        return RoundTripReport(
            theorem,
            False,
            str(exc),
            witness={"kind": "synthesis_error", "message": str(exc)},
            universe=header,
        )
    # replay every input at once through the model's revision table; the
    # first mismatch in scan order is the first one an input-by-input
    # choice_revise_via_model replay would meet
    rows = _model_rows(model, op.universe)
    choices = model.outcomes + (model.K,)
    masks = np.array([o.mask for o in choices], dtype=np.int64)
    bad = masks[rows] != op._kernel().out
    if bad.any():
        (i,) = _first_true(bad)
        return RoundTripReport(
            theorem,
            False,
            "regenerated outcome differs",
            witness={
                "kind": "mismatch",
                "input": _tables(op.universe).sets[i].encode(),
                "expected": op.outputs[i].encode(),
                "regenerated": choices[rows[i]].encode(),
            },
            _source=model,
            universe=header,
        )
    if require_extended:
        flags = check_extended_conditions(model)
        if not (flags.has_X3 and flags.has_leq3):
            return RoundTripReport(
                theorem,
                False,
                "synthesized model lacks an extended condition",
                witness={
                    "kind": "flags",
                    "has_X3": flags.has_X3,
                    "has_leq3": flags.has_leq3,
                },
                _source=model,
                universe=header,
            )
    suffix = " with extended conditions" if require_extended else ""
    return RoundTripReport(
        theorem,
        True,
        f"synthesized model regenerates the operator on all "
        f"{header['input_sets']} inputs{suffix}",
        _source=model,
        universe=header,
    )


_CORE_RELATION_SET = (
    RelationPostulateId.TRANSITIVITY,
    RelationPostulateId.WEAK_COUPLING,
    RelationPostulateId.COUNTER_DOMINANCE,
    RelationPostulateId.MINIMALITY,
    RelationPostulateId.UNION,
)

_STANDARD_OPERATOR_GATE = (
    PostulateId.CLOSURE,
    PostulateId.SUCCESS,
    PostulateId.VACUITY,
    PostulateId.CONFIRMATION,
    PostulateId.RECIPROCITY,
    PostulateId.CONSISTENCY,
)


def _replay_relation(
    op: ChoiceOperator, mb: MultiBelievabilityRelation
) -> Optional[dict]:
    """Mismatch witness for the first input whose relation-driven revision
    differs from the operator's outcome, or None when all agree.

    mb must be bounded, on op's universe.  Every input is revised at once
    from mb's revision table: the regenerated mask is the row's meet
    where the input ranks strictly above the empty set, else K's.  The
    first bad row in scan order decides: a row whose revision is not
    closed raises RelationOperationError, as revise_via_mb does on that
    input; a row whose result differs gives the witness.
    """
    strict, mask, closed = mb._revision_rows()
    got = np.where(strict, mask, op.K.mask)
    not_closed = strict & ~closed
    bad = not_closed | (got != op._kernel().out)
    if not bad.any():
        return None
    (i,) = _first_true(bad)
    if not_closed[i]:
        raise RelationOperationError("result not closed")
    return {
        "kind": "mismatch",
        "input": _tables(op.universe).sets[i].encode(),
        "expected": op.outputs[i].encode(),
        "regenerated": BeliefSet(op.lang, int(got[i])).encode(),
    }


def verify_roundtrip_relation(op: ChoiceOperator, standard: bool = False) -> RoundTripReport:
    """Derive a set-level ordering from the operator and replay it.

    The derived relation must satisfy the five representation postulates
    (all nine with standard=True), and revision driven by it must rebuild
    the operator's table exactly.  The replay revises every input at once
    from the relation's revision table (see _replay_relation); the first
    bad row in scan order decides between a mismatch witness and the
    RelationOperationError raised for a revision that is not closed.

    Theorem 5 (standard=True) needs max_input_size >= 2.  With singleton
    inputs only, no input links some pairs of outcomes, so the derived
    relation leaves two singletons incomparable and fails completeness;
    this happens for about 40% of has_X3/has_leq3 models over two atoms,
    and the same models pass at max_input_size 2.  Theorem 4 does not ask
    for completeness; it passes on those models at max_input_size 1.
    """
    theorem = 5 if standard else 4
    header = _universe_header(op.universe)
    gate = _STANDARD_OPERATOR_GATE if standard else BASIC_POSTULATES
    failed = _gate_failure(op, gate, theorem, header)
    if failed is not None:
        return failed
    mb = derive_mb_from_operator(op)
    wanted = STANDARD_POSTULATES if standard else _CORE_RELATION_SET
    for p in wanted:
        rep = check_relation_postulate(mb, p)
        if not rep.holds:
            return RoundTripReport(
                theorem,
                False,
                f"derived relation fails {p.value}",
                witness={
                    "kind": "relation_postulate",
                    "postulate": p.value,
                    "witness": rep.witness.to_dict() if rep.witness else None,
                },
                _source=mb,
                universe=header,
            )
    mismatch = _replay_relation(op, mb)
    if mismatch is not None:
        return RoundTripReport(
            theorem,
            False,
            "regenerated outcome differs",
            witness=mismatch,
            _source=mb,
            universe=header,
        )
    label = "all nine" if standard else "the five"
    return RoundTripReport(
        theorem,
        True,
        f"derived relation satisfies {label} postulates and regenerates "
        f"the operator on all {header['input_sets']} inputs",
        _source=mb,
        universe=header,
    )


def verify_translation(
    r: Union[BelievabilityRelation, MultiBelievabilityRelation],
    max_input_size: int = 2,
) -> RoundTripReport:
    """Round-trip the single/set-level translations.

    Single relations must be quasi-linear; their lift must be standard on
    the universe up to max_input_size and project back identically.
    Set-level relations must be standard on their own universe, which
    max_input_size does not change; their projection must be quasi-linear
    and lift back to the identical table.
    """
    if isinstance(r, BelievabilityRelation):
        u = UniverseSpec(r.lang, max_input_size)
        header = _universe_header(u)
        for p in QUASI_LINEAR_POSTULATES:
            rep = check_relation_postulate(r, p)
            if not rep.holds:
                return RoundTripReport(
                    3,
                    False,
                    f"relation fails {p.value}",
                    witness={
                        "kind": "relation_postulate",
                        "postulate": p.value,
                        "witness": rep.witness.to_dict() if rep.witness else None,
                    },
                    universe=header,
                )
        lifted = lift(r, max_input_size)
        # the first postulate the lift fails; the checks after it are not run
        bad = next((p.value for p in STANDARD_POSTULATES
                    if not check_relation_postulate(lifted, p).holds), None)
        if bad is not None:
            return RoundTripReport(
                3,
                False,
                f"lifted relation fails {bad}",
                witness={"kind": "relation_postulate", "postulate": bad},
                universe=header,
            )
        back = project(lifted)
        if back != r:
            return RoundTripReport(
                3,
                False,
                "projection of the lift differs from the original",
                witness={"kind": "mismatch"},
                universe=header,
            )

        return RoundTripReport(
            3,
            True,
            "lift is standard on the bounded universe and projects back identically",
            _source=r,
            universe=header,
        )

    u = r.universe
    header = _universe_header(u)
    bad = next((p.value for p in STANDARD_POSTULATES
                if not check_relation_postulate(r, p).holds), None)
    if bad is not None:
        return RoundTripReport(
            3,
            False,
            f"relation fails {bad}",
            witness={"kind": "relation_postulate", "postulate": bad},
            universe=header,
        )
    base = project(r)
    if not is_quasi_linear(base):
        return RoundTripReport(
            3,
            False,
            "projection is not quasi-linear",
            witness={"kind": "relation_postulate"},
            universe=header,
        )
    differs = lift(base, u.max_input_size).table_over(u) != r.table_over(u)
    if differs.any():
        t = _tables(u)
        a, b = _first_true(differs)
        return RoundTripReport(
            3,
            False,
            "lift of the projection differs from the original",
            witness={
                "kind": "mismatch",
                "left": t.sets[a].encode(),
                "right": t.sets[b].encode(),
            },
            universe=header,
        )

    return RoundTripReport(
        3,
        True,
        "projection is quasi-linear and lifts back identically",
        _source=base,
        universe=header,
    )


# ---------------------------------------------------------------------------
# Single-sentence operators
# ---------------------------------------------------------------------------

class SententialPostulateId(str, Enum):
    CLOSURE = "closure"
    RELATIVE_SUCCESS = "relative_success"
    CONFIRMATION = "confirmation"
    REGULARITY = "regularity"
    RECIPROCITY = "reciprocity"
    EXTENSIONALITY = "extensionality"
    STRONG_RECIPROCITY = "strong_reciprocity"


SENTENTIAL_CORE = (
    SententialPostulateId.CLOSURE,
    SententialPostulateId.RELATIVE_SUCCESS,
    SententialPostulateId.CONFIRMATION,
    SententialPostulateId.REGULARITY,
    SententialPostulateId.RECIPROCITY,
)


@dataclass(frozen=True)
class SententialWitness:
    items: tuple[SentenceClass, ...]
    outcomes: tuple[BeliefSet, ...]
    note: str

    def to_dict(self) -> dict:
        return {
            "items": [c.encode() for c in self.items],
            "outcomes": [o.encode() for o in self.outcomes],
            "note": self.note,
        }


@dataclass(frozen=True)
class SententialReport:
    postulate: SententialPostulateId
    holds: bool
    checked: int
    witness: Optional[SententialWitness] = None

    def to_dict(self) -> dict:
        return {
            "postulate": self.postulate.value,
            "holds": self.holds,
            "checked": self.checked,
            "witness": self.witness.to_dict() if self.witness else None,
        }


@dataclass(frozen=True)
class SententialOperator:
    """Total map from single sentence classes to outcome belief sets."""

    K: BeliefSet
    outputs: tuple[BeliefSet, ...]

    def __post_init__(self) -> None:
        if not self.K.is_consistent:
            raise ValueError("K must be consistent")
        self.lang.require_exhaustive()
        c = self.K.lang.full_mask + 1
        if len(self.outputs) != c:
            raise ValueError(f"table must cover all {c} classes, got {len(self.outputs)}")

    @property
    def lang(self) -> LanguageSpec:
        return self.K.lang

    def outcome(self, c: SentenceClass) -> BeliefSet:
        self.lang.require_own(c, "an operator")
        return self.outputs[c.mask]

    @classmethod
    def from_function(
        cls, lang: LanguageSpec, k: BeliefSet, fn: Callable[[SentenceClass], BeliefSet]
    ) -> "SententialOperator":
        return cls(k, tuple(map(fn, _class_tables(lang).sets)))


def footnote7_operator(lang: Optional[LanguageSpec] = None) -> SententialOperator:
    """Three-clause operator over three designated atom conjunctions.

    Inputs squeezed between a two-atom conjunction and one of its atoms
    are sent to that conjunction's closure; everything else to its own
    closure.  The prior state believes only tautologies.  This table
    passes the five core single-sentence postulates yet admits a loop of
    three inputs with pairwise-meeting outcomes that are not equal.
    """
    lang = lang or LanguageSpec(3)
    if lang.atom_count < 3:
        raise LanguageError("language too small: need at least 3 atoms")

    def atom_mask(i: int) -> int:
        return sum(1 << v for v in lang.valuations() if (v >> i) & 1)

    p = [atom_mask(i) for i in range(3)]
    pairs = [
        (p[0] & p[1], p[0]),
        (p[1] & p[2], p[1]),
        (p[0] & p[2], p[2]),
    ]

    def table(c: SentenceClass) -> BeliefSet:
        m = c.mask
        for conj, single in pairs:
            if conj & ~m == 0 and m & ~single == 0:
                return BeliefSet(lang, conj)
        return BeliefSet(lang, m)

    return SententialOperator.from_function(
        lang, BeliefSet.trivial(lang), table
    )


# each single-sentence postulate and the set-level checker that states it
# over the class layout, with the single-sentence witness note
_SENTENTIAL_CHECKS = {
    SententialPostulateId.CLOSURE: (PostulateId.CLOSURE, "outcome over a different language"),
    SententialPostulateId.RELATIVE_SUCCESS: (
        PostulateId.RELATIVE_SUCCESS, "outcome differs from the prior state yet drops the input"),
    SententialPostulateId.CONFIRMATION: (
        PostulateId.CONFIRMATION, "already believed input must leave the state unchanged"),
    SententialPostulateId.REGULARITY: (
        PostulateId.REGULARITY, "input accepted in another's outcome but not in its own"),
    SententialPostulateId.RECIPROCITY: (
        PostulateId.RECIPROCITY, "mutually accepted pair with different outcomes"),
    # classes quotient syntax, so equivalent inputs share a table row
    SententialPostulateId.EXTENSIONALITY: (PostulateId.SYNTAX_IRRELEVANCE, ""),
    SententialPostulateId.STRONG_RECIPROCITY: (
        PostulateId.STRONG_RECIPROCITY, "loop of successively accepted inputs with unequal outcomes"),
}


def check_sentential_postulates(
    op: SententialOperator,
) -> dict[SententialPostulateId, SententialReport]:
    """Verdicts for the five core postulates, extensionality, and the
    loop form of reciprocity (all outcomes equal within each strongly
    connected component of the membership graph).

    The postulates are stated alike for single sentences and for input
    sets, so each report comes from the set-level checker (operators'
    `_CHECKERS`) run on an `_OpKernel` over the language's class layout
    (`_class_tables`): item x is class x, and class x meets an outcome
    when the outcome contains it.  Extensionality is syntax irrelevance.
    Only the witness notes are this level's own.
    """
    k = _OpKernel(_class_tables(op.lang), op.outputs, op.K)
    reports = {}
    for sp, (p, note) in _SENTENTIAL_CHECKS.items():
        r = _CHECKERS[p](k)
        w = r.witness and SententialWitness(r.witness.inputs, r.witness.outcomes, note)
        reports[sp] = SententialReport(sp, r.holds, r.checked, w)
    return reports
