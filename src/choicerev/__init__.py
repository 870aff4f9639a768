"""Belief change by accepting part of a finite input set.

The package models an agent whose state is a deductively closed belief
set over a small propositional language.  Revision takes a finite set of
sentences and, when possible, accepts at least one of them.  Three
interchangeable formulations are implemented and checked against each
other: ordered outcome models queried by descriptor satisfaction,
set-level believability orderings, and raw operator tables verified
postulate by postulate.
"""

__version__ = "0.1.0"

from .logic import (
    BeliefSet,
    InputSet,
    LanguageError,
    LanguageSpec,
    ParseError,
    SentenceClass,
    class_of,
    parse_formula,
    parse_input_set,
)
from .descriptors import (
    BelAtom,
    Descriptor,
    DescriptorError,
    choice_descriptor,
    parse_descriptor,
    satisfies,
)
from .models import (
    ModelFlags,
    ModelFormatError,
    ModelInvalidError,
    RelationalModel,
    check_extended_conditions,
    choice_revise_via_model,
    descriptor_revise,
    generate_model,
    load_model,
    save_model,
    validate_model,
)
from .operators import (
    BASIC_POSTULATES,
    SUPPLEMENTARY_POSTULATES,
    ChoiceOperator,
    OperatorFormatError,
    OutsideUniverseError,
    PostulateId,
    PostulateReport,
    UniverseSpec,
    check_equivalences,
    check_postulate,
    check_postulates,
    enumerate_universe,
    load_operator,
    random_operator,
    save_operator,
)
from .believability import (
    BelievabilityRelation,
    MultiBelievabilityRelation,
    RelationFormatError,
    RelationOperationError,
    RelationPostulateId,
    check_relation_postulate,
    derive_mb_from_operator,
    is_quasi_linear,
    lift,
    load_relation,
    project,
    random_quasi_linear,
    revise_via_mb,
    save_relation,
)
from .synthesis import (
    RoundTripReport,
    SententialOperator,
    SententialPostulateId,
    SynthesisError,
    check_sentential_postulates,
    footnote7_operator,
    synthesize_model,
    verify_roundtrip_model,
    verify_roundtrip_relation,
    verify_translation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
