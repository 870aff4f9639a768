"""Relational outcome models: an ordered repertoire of candidate belief sets.

A model is the agent's current belief set K plus a list of outcome belief
sets; the list position encodes a total preference order with position 0
the most preferred.  Revision by a descriptor walks the list and returns
the first outcome satisfying it, falling back to K when nothing does.
Revision by an input set A routes through the choice descriptor of A, so
it returns the most preferred outcome whose theory meets A.

Two extra structural flags matter for the stronger operator properties:
has_X3 (the inconsistent belief set is an available outcome) and
has_leq3 (every consistent sentence has a satisfying outcome strictly
preferred to the inconsistent one).
"""

from __future__ import annotations

import gc
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, TypeVar, Union

from .descriptors import (
    Descriptor,
    Molecular,
    choice_descriptor,
    satisfies,
    satisfies_composite,
)
from .logic import BeliefSet, InputSet, LanguageError, LanguageSpec

_T = TypeVar("_T")


class ModelInvalidError(ValueError):
    def __init__(self, report: "ValidationReport"):
        failed = ", ".join(name for name, c in report.conditions.items() if not c.passed)
        super().__init__(f"model fails validation: {failed}")
        self.report = report


class ModelFormatError(ValueError):
    """Malformed model file; message carries the offending location."""


class GenerationError(ValueError):
    """Requested flag/size combination cannot be realized."""


@dataclass(frozen=True)
class ConditionResult:
    passed: bool
    witness: Optional[str] = None


@dataclass(frozen=True)
class ValidationReport:
    conditions: dict[str, ConditionResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions.values())

    def to_dict(self) -> dict:
        return {
            name: {"passed": c.passed, "witness": c.witness}
            for name, c in sorted(self.conditions.items())
        }


@dataclass(frozen=True)
class ModelFlags:
    has_X3: bool = False
    has_leq3: bool = False


@dataclass(frozen=True)
class RelationalModel:
    """K plus totally ordered outcomes; outcomes[0] is the most preferred."""

    lang: LanguageSpec
    K: BeliefSet
    outcomes: tuple[BeliefSet, ...]
    _valid: list = field(default_factory=list, init=False, compare=False, repr=False)

    def require_valid(self) -> None:
        # cached: validation result cannot change on a frozen model
        if not self._valid:
            report = validate_model(self)
            self._valid.append(report.passed)
            if not report.passed:
                raise ModelInvalidError(report)
        elif not self._valid[0]:
            raise ModelInvalidError(validate_model(self))

    def to_json(self) -> dict:
        return {
            "atoms": self.lang.atom_count,
            "outcomes": [o.encode() for o in self.outcomes],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RelationalModel":
        try:
            lang = LanguageSpec(int(data["atoms"]))
            raw = data["outcomes"]
            if not isinstance(raw, list) or not raw:
                raise ModelFormatError("'outcomes' must be a nonempty list")
            outcomes = tuple(BeliefSet.decode(bits, lang) for bits in raw)
        except ModelFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"bad model data: {exc}") from exc
        return cls(lang, outcomes[0], outcomes)


def validate_model(m: RelationalModel) -> ValidationReport:
    """Structural conditions; every failure carries a witness string."""
    conditions: dict[str, ConditionResult] = {}

    bad = [o for o in m.outcomes if o.lang != m.lang]
    conditions["X1"] = ConditionResult(
        not bad, None if not bad else f"outcome over wrong language: {bad[0]}"
    )

    present = m.K in m.outcomes
    conditions["X2"] = ConditionResult(
        present, None if present else f"K={m.K.encode()} not among outcomes"
    )

    minimal = bool(m.outcomes) and m.outcomes[0] == m.K
    conditions["leq1"] = ConditionResult(
        minimal,
        None
        if minimal
        else f"K={m.K.encode()} not at position 0 (found {m.outcomes[0].encode() if m.outcomes else 'nothing'})",
    )

    seen: dict[BeliefSet, int] = {}
    dup = None
    for i, o in enumerate(m.outcomes):
        if o in seen:
            dup = f"outcome {o.encode()} at positions {seen[o]} and {i}"
            break
        seen[o] = i
    conditions["leq2"] = ConditionResult(dup is None, dup)

    conditions["K_consistent"] = ConditionResult(
        m.K.is_consistent, None if m.K.is_consistent else "K is the inconsistent theory"
    )
    return ValidationReport(conditions)


def descriptor_revise(m: RelationalModel, phi: Union[Descriptor, Molecular]) -> BeliefSet:
    """First outcome in preference order satisfying phi; K if none does."""
    m.require_valid()
    if isinstance(phi, frozenset):
        test = lambda x: satisfies_composite(x, phi)
    else:
        test = lambda x: satisfies(x, phi)
    for outcome in m.outcomes:
        if test(outcome):
            return outcome
    return m.K


def choice_revise_via_model(m: RelationalModel, a: InputSet) -> BeliefSet:
    """Most preferred outcome whose theory meets a; K when a is empty or
    no outcome meets it.

    The paper's construction, one query at a time: revision by a's choice
    descriptor B(phi1) | ... | B(phin), interpreted against each outcome
    in preference order.  This is the per-query API, about 9 us per input
    for a 12-outcome two-atom model on one 2 GHz virtual CPU.  Whole
    tables come from `ChoiceOperator.from_model`, which reads every
    input's revision off one gather and is checked against this function.
    An input over another language is refused: its members' masks name
    other classes of the model's language.
    """
    m.require_valid()
    if a.lang.atom_count != m.lang.atom_count:
        raise LanguageError(
            f"input set over {a.lang.atom_count} atoms in a revision over "
            f"{m.lang.atom_count} atoms"
        )
    if len(a) == 0:
        return m.K
    return descriptor_revise(m, choice_descriptor(a))


def check_extended_conditions(m: RelationalModel) -> ModelFlags:
    """Compute has_X3 / has_leq3 for a valid model."""
    m.require_valid()
    m.lang.require_exhaustive()
    bottom_pos = None
    for i, o in enumerate(m.outcomes):
        if not o.is_consistent:
            bottom_pos = i
            break
    has_x3 = bottom_pos is not None
    limit = bottom_pos if bottom_pos is not None else len(m.outcomes)

    def settled_early(class_mask: int) -> bool:
        for i, o in enumerate(m.outcomes):
            if o.mask & ~class_mask == 0:
                return i < limit
        return False

    has_leq3 = all(
        settled_early(mask) for mask in range(1, m.lang.full_mask + 1)
    )
    return ModelFlags(has_X3=has_x3, has_leq3=has_leq3)


def _singleton_sets(lang: LanguageSpec) -> list[BeliefSet]:
    return [BeliefSet(lang, 1 << v) for v in lang.valuations()]


def generate_model(
    seed: int, lang: LanguageSpec, size: int, flags: ModelFlags = ModelFlags()
) -> RelationalModel:
    """Seeded pseudo-random valid model realizing the requested flags exactly.

    Flags are exact: has_X3=False guarantees the inconsistent outcome is
    absent, has_leq3=False guarantees some consistent sentence is not
    settled before it.  Raises GenerationError when no model of the
    requested size can have those flags.
    """
    if size < 1:
        raise GenerationError("size must be >= 1")
    lang.require_exhaustive()
    rng = random.Random(seed)
    total = lang.full_mask + 1  # number of distinct belief sets
    bottom = BeliefSet.inconsistent(lang)
    singles = _singleton_sets(lang)

    max_size = total if flags.has_X3 else total - 1
    if size > max_size:
        raise GenerationError(f"size {size} exceeds the {max_size} available outcomes")

    consistent = [BeliefSet(lang, m) for m in range(1, total)]
    k_candidates = consistent[:]
    rng.shuffle(k_candidates)

    for k in k_candidates:
        required = {k}
        if flags.has_X3:
            required.add(bottom)
        if flags.has_leq3:
            required.update(singles)
        if len(required) > size:
            continue
        pool = [b for b in consistent if b not in required]
        if not flags.has_leq3:
            # keep at least one singleton omissible (or the bottom placeable
            # ahead of one); without the bottom outcome the only way to break
            # the condition is omitting a singleton entirely
            victims = [s for s in singles if s != k]
            if not flags.has_X3:
                victim = rng.choice(victims)
                pool = [b for b in pool if b != victim]
        if size - len(required) > len(pool):
            continue
        extras = rng.sample(pool, size - len(required))
        rest = [b for b in (set(required) | set(extras)) if b != k]
        rest.sort()  # deterministic base order before the shuffle
        rng.shuffle(rest)
        if flags.has_leq3 and flags.has_X3:
            rest = [b for b in rest if b != bottom] + [bottom]
        if not flags.has_leq3 and flags.has_X3:
            missing = [s for s in singles if s != k and s not in rest]
            if not missing:
                # all singletons present: the bottom must precede one of them
                rest = [bottom] + [b for b in rest if b != bottom]
        model = RelationalModel(lang, k, (k, *rest))
        if not validate_model(model).passed:
            continue
        if check_extended_conditions(model) != flags:
            continue
        return model
    raise GenerationError(
        f"no valid model of size {size} with flags {flags} at atom_count={lang.atom_count}"
    )


def save_model(m: RelationalModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(m.to_json(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_json(path: str, error: type[ValueError], parse: Callable[[dict], _T]) -> _T:
    """parse of the JSON object in the file at path.  Invalid JSON, another
    kind of value or an error raised by parse becomes error, prefixed by
    path.

    The collector is paused while json.load and parse run, and enabled
    after them, on success or error, only if it was before: they allocate
    one container per pair or row and none of them is garbage, so
    collector passes there are pure waste.  On a relation derived at
    n=697 (428418 pairs), pausing it through parse as well as json.load
    took load_relation from 3.9-5.0 s to 2.7-3.8 s of process time, one
    process per load on a 2-vCPU virtual machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON at line {exc.lineno}") from exc
        if not isinstance(data, dict):
            raise error(f"{path}: expected a JSON object")
        try:
            return parse(data)
        except error as exc:
            raise error(f"{path}: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def load_model(path: str) -> RelationalModel:
    model = _load_json(path, ModelFormatError, RelationalModel.from_json)
    model.require_valid()
    return model
