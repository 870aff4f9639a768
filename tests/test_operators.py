"""Operator tables, the postulate battery, witnesses, probes, JSON."""

import json
import random

import numpy as np
import pytest
from test_graphs import _simple_cycles_bounded
from test_kernel import _reference_meets, _reference_strong_reciprocity

from choicerev.logic import (
    And,
    Atom,
    BeliefSet,
    Bottom,
    Implies,
    InputSet,
    LanguageError,
    LanguageSpec,
    Not,
    Or,
    Top,
    enumerate_belief_sets,
    format_formula,
    parse_input_set,
)
from choicerev.believability import lift, random_quasi_linear
from choicerev.models import generate_model, ModelFlags
from choicerev.operators import (
    BASIC_POSTULATES,
    SUPPLEMENTARY_POSTULATES,
    ChoiceOperator,
    OperatorFormatError,
    OutsideUniverseError,
    PostulateId,
    UniverseSpec,
    Witness,
    check_equivalences,
    check_postulate,
    check_postulates,
    enumerate_universe,
    load_operator,
    passes,
    random_operator,
    save_operator,
    theory_meets,
    witness_violates,
)


# frozen universe sizes: empty set + singletons + unordered pairs ...
def test_universe_sizes_frozen(lang1, lang2):
    assert UniverseSpec(lang1, 2).size == 11
    assert UniverseSpec(lang1, 4).size == 16
    assert UniverseSpec(lang2, 2).size == 137
    assert len(enumerate_universe(UniverseSpec(lang2, 2))) == 137


def test_universe_enumeration_properties(u1):
    sets = enumerate_universe(u1)
    assert len(set(s.mask_tuple for s in sets)) == len(sets)
    assert all(len(s) <= 2 for s in sets)
    # ordering: by size, then by mask tuple
    sizes = [len(s) for s in sets]
    assert sizes == sorted(sizes)


def test_universe_cap():
    with pytest.raises(LanguageError):
        UniverseSpec(LanguageSpec(3), 2)
    with pytest.raises(LanguageError):
        UniverseSpec(LanguageSpec(1), -1)


# Restriction to a smaller size cap.  Scan order is size-ascending, so
# the universe at k is a prefix of the one at k+1 and a table over it is
# the top-left block, or the prefix, of the larger table.
@pytest.fixture(scope="module")
def restriction_models(lang2):
    return [
        generate_model(seed, lang2, 8, ModelFlags(x3, leq3))
        for seed in range(12)
        for x3 in (False, True)
        for leq3 in (False, True)
    ]


def test_universes_are_prefixes(lang2):
    sets = [enumerate_universe(UniverseSpec(lang2, k)) for k in (1, 2, 3)]
    for small, large in zip(sets, sets[1:]):
        assert large[: len(small)] == small


def test_lift_and_model_tables_restrict_to_prefixes(lang2, restriction_models):
    sizes = {k: UniverseSpec(lang2, k).size for k in (1, 2)}
    for seed in range(12):
        base = random_quasi_linear(seed, lang2)
        full = lift(base, 3).table_over(UniverseSpec(lang2, 3))
        for k, n in sizes.items():
            small = lift(base, k)
            assert np.array_equal(small.table_over(small.universe), full[:n, :n])
    for m in restriction_models:
        full = ChoiceOperator.from_model(m, 3).outputs
        for k, n in sizes.items():
            assert ChoiceOperator.from_model(m, k).outputs == full[:n]


def test_holding_reports_hold_on_restrictions(lang2, restriction_models):
    """Every postulate is a statement over all inputs of the universe, so
    one that holds at n=697 holds on the first 17 and 137 inputs."""
    u3 = UniverseSpec(lang2, 3)
    ops = [ChoiceOperator.from_model(m, 3) for m in restriction_models]
    ops += [random_operator(seed, u3) for seed in range(6)]
    held = 0
    for op in ops:
        ps = [p for p, r in check_postulates(op).items() if r.holds]
        for k in (1, 2):
            u = UniverseSpec(lang2, k)
            small = ChoiceOperator(u, op.K, op.outputs[: u.size])
            assert all(check_postulate(small, p).holds for p in ps), (k, ps)
            held += len(ps)
    assert held > len(ops) * len(BASIC_POSTULATES)


def test_theory_meets_brute_force(lang2):
    a = parse_input_set("p0, p1 & ~p0", lang2)
    for x in enumerate_belief_sets(lang2):
        expected = any(
            all(c.mask >> v & 1 for v in x.models()) for c in a.classes
        )
        assert theory_meets(a, x) == expected
    assert not theory_meets(InputSet.empty(lang2), BeliefSet.trivial(lang2))


@pytest.fixture(scope="module")
def induced_op():
    lang = LanguageSpec(2)
    m = generate_model(5, lang, 6, ModelFlags(has_X3=True, has_leq3=True))
    return ChoiceOperator.from_model(m, max_input_size=2)


def test_from_model_basics(induced_op, lang2):
    assert induced_op.outcome(InputSet.empty(lang2)) == induced_op.K
    # totality over the universe
    assert len(induced_op.outputs) == 137
    assert len(induced_op.table) == 137


def test_induced_passes_basic(induced_op):
    for p in BASIC_POSTULATES:
        report = check_postulate(induced_op, p)
        assert report.holds, f"{p.value}: {report.witness}"


def test_induced_with_flags_passes_supplementary(induced_op):
    for p in SUPPLEMENTARY_POSTULATES:
        assert check_postulate(induced_op, p).holds, p.value


def test_outside_universe(induced_op, lang2):
    big = parse_input_set("p0, p1, p0 & p1", lang2)
    with pytest.raises(OutsideUniverseError):
        induced_op.outcome(big)


def test_constant_k_operator(u2, lang2):
    k = BeliefSet.decode(["11"], lang2)
    op = ChoiceOperator.from_function(u2, k, lambda a: k)
    held = {
        p
        for p in PostulateId
        if check_postulate(op, p).holds
    }
    assert PostulateId.SUCCESS not in held
    assert held == set(PostulateId) - {PostulateId.SUCCESS}


def test_inconsistent_k_rejected(u2, lang2):
    k = BeliefSet.inconsistent(lang2)
    with pytest.raises(ValueError):
        ChoiceOperator.from_function(u2, k, lambda a: BeliefSet.trivial(lang2))


def test_specific_failures_with_witnesses(u2, lang2):
    k = BeliefSet.decode(["11"], lang2)
    bottom = BeliefSet.inconsistent(lang2)

    # every input collapses to the inconsistent theory
    op = ChoiceOperator.from_function(
        u2, k, lambda a: bottom if len(a) else k
    )
    r = check_postulate(op, PostulateId.CONSISTENCY)
    assert not r.holds
    assert witness_violates(op, PostulateId.CONSISTENCY, r.witness)
    # relative success holds: the inconsistent theory contains every member
    assert check_postulate(op, PostulateId.RELATIVE_SUCCESS).holds

    # outcome ignores the input and asserts p0
    stubborn = BeliefSet.decode(["10", "11"], lang2)
    op2 = ChoiceOperator.from_function(u2, k, lambda a: stubborn)
    r2 = check_postulate(op2, PostulateId.RELATIVE_SUCCESS)
    assert not r2.holds
    assert witness_violates(op2, PostulateId.RELATIVE_SUCCESS, r2.witness)
    r3 = check_postulate(op2, PostulateId.VACUITY)
    assert not r3.holds
    assert witness_violates(op2, PostulateId.VACUITY, r3.witness)
    r4 = check_postulate(op2, PostulateId.CONFIRMATION)
    assert not r4.holds
    assert witness_violates(op2, PostulateId.CONFIRMATION, r4.witness)


def test_closure_witness_rechecks(lang1):
    """A one-atom table with one outcome over two atoms fails closure, and
    its witness re-checks against that table but not against a clean one."""
    u = UniverseSpec(lang1, 1)
    k = BeliefSet.trivial(lang1)
    clean = ChoiceOperator.from_function(u, k, lambda a: k)
    foreign = BeliefSet.trivial(LanguageSpec(2))
    op = ChoiceOperator(u, k, (k, foreign) + clean.outputs[2:])
    r = check_postulate(op, PostulateId.CLOSURE)
    assert not r.holds
    assert r.witness.outcomes == (foreign,)
    assert witness_violates(op, PostulateId.CLOSURE, r.witness)
    assert not witness_violates(clean, PostulateId.CLOSURE, r.witness)


def test_random_operator_deterministic(u1):
    assert random_operator(9, u1) == random_operator(9, u1)
    assert random_operator(9, u1) != random_operator(10, u1)


def test_random_failures_witnessed(u1):
    """Random tables fail postulates; every reported witness re-validates."""
    found_any = False
    for seed in range(40):
        op = random_operator(seed, u1)
        for p, report in check_postulates(op).items():
            if report.holds:
                continue
            found_any = True
            assert report.witness is not None, p.value
            assert witness_violates(op, p, report.witness), p.value
    assert found_any


def test_reciprocity_fails_on_some_random_op(u1):
    assert any(
        not check_postulate(random_operator(seed, u1), PostulateId.RECIPROCITY).holds
        for seed in range(100)
    )


def _strong_reciprocity_bounded_loops(op, max_len=3):
    """Independent slow check: scan all simple loops up to max_len.

    Returns a violating loop witness or None.  A loop found here always
    implies an SCC violation.
    """
    k = op._kernel()
    for cycle in _simple_cycles_bounded(_reference_meets(op), max_len):
        outs = {int(k.out[i]) for i in cycle}
        if len(outs) > 1:
            return Witness(
                tuple(k.t.sets[i] for i in cycle),
                tuple(op.outputs[i] for i in cycle),
                f"violating loop of length {len(cycle)}",
            )
    return None


def test_scc_vs_bounded_loops(u1):
    """The loop scan is sound for the SCC criterion, both known directions.

    A violating bounded loop implies the SCC check fails; an SCC failure
    at this tiny scale always shows a short loop too (pair or triangle
    inside one component), so the two agree exhaustively here.
    """
    for seed in range(60):
        op = random_operator(seed, u1)
        scc_holds = check_postulate(op, PostulateId.STRONG_RECIPROCITY).holds
        loop = _strong_reciprocity_bounded_loops(op, max_len=11)
        if loop is not None:
            assert not scc_holds
            assert witness_violates(op, PostulateId.STRONG_RECIPROCITY, loop)
        if not scc_holds:
            assert loop is not None


def test_equivalences_on_induced(induced_op):
    report = check_equivalences(induced_op)
    assert report.all_confirmed
    names = [it.name for it in report.items]
    assert names == [
        "reciprocity_iff_cautiousness",
        "reciprocity_iff_strong_reciprocity",
        "syntax_irrelevance_derived",
        "dichotomy_derived",
    ]
    assert all(it.applicable for it in report.items)


def test_equivalences_inapplicable(u1, lang1):
    # regularity fails on most random tables; items gated on it go silent
    for seed in range(50):
        op = random_operator(seed, u1)
        if check_postulate(op, PostulateId.REGULARITY).holds:
            continue
        report = check_equivalences(op)
        gated = {it.name: it for it in report.items}
        assert not gated["reciprocity_iff_strong_reciprocity"].applicable
        assert gated["reciprocity_iff_strong_reciprocity"].holds is None
        return
    pytest.fail("no regularity-violating random operator found")


def _random_formula(rng, lang, depth):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.8:
            return Atom(rng.randrange(lang.atom_count))
        return Top() if roll < 0.9 else Bottom()
    kind = rng.randrange(4)
    if kind == 0:
        return Not(_random_formula(rng, lang, depth - 1))
    left = _random_formula(rng, lang, depth - 1)
    right = _random_formula(rng, lang, depth - 1)
    return [And, Or, Implies][kind - 1](left, right)


def syntax_differences(adapter, samples, lang, seed, max_input_size=2):
    """Pairs of AST-distinct but logically identical formula sets on which
    adapter (formula set -> belief set) answers differently, each as the
    two sets' sorted formula texts.  A variant wraps its formula, so it
    is deeper, and the deepest formula's variant is never in the set."""
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        size = rng.randrange(1, max_input_size + 1)
        left = frozenset(_random_formula(rng, lang, 2) for _ in range(size))
        right = frozenset(rng.choice([Not(Not(f)), And(f, Top()), Or(Bottom(), f)])
                          for f in left)
        if adapter(left) != adapter(right):
            out.append(tuple(tuple(sorted(map(format_formula, s))) for s in (left, right)))
    return out


def test_syntax_probe_clean(induced_op):
    lang = induced_op.lang
    seen = []

    def adapter(formulas):
        seen.append(formulas)
        return induced_op.outcome(InputSet.of(lang, *formulas))

    assert syntax_differences(adapter, 60, lang, seed=1) == []
    assert len(seen) == 2 * 60


def test_syntax_probe_detects_text_keyed_adapter(induced_op):
    lang = induced_op.lang
    k = induced_op.K
    other = BeliefSet.decode(["00"], lang)

    def broken(formulas):
        # depends on the formulas' printed text, not their meaning
        return k if any("~" in format_formula(f) for f in formulas) else other

    differences = syntax_differences(broken, 80, lang, seed=2)
    assert differences
    left, right = differences[0]
    assert left != right


def test_operator_json_roundtrip(tmp_path, induced_op):
    p = tmp_path / "op.json"
    save_operator(induced_op, str(p))
    again = load_operator(str(p))
    assert again == induced_op
    assert again.K == induced_op.K
    # same bytes on re-save
    q = tmp_path / "op2.json"
    save_operator(again, str(q))
    assert p.read_text() == q.read_text()


def test_operator_json_errors(tmp_path, lang1, u1):
    op = random_operator(0, u1)
    data = op.to_json()
    p = tmp_path / "bad.json"

    chopped = dict(data, entries=data["entries"][:-1])
    p.write_text(json.dumps(chopped))
    with pytest.raises(OperatorFormatError, match="not total"):
        load_operator(str(p))

    dup = dict(data, entries=data["entries"] + [data["entries"][0]])
    p.write_text(json.dumps(dup))
    with pytest.raises(OperatorFormatError, match="duplicate"):
        load_operator(str(p))

    outside = dict(
        data,
        entries=data["entries"]
        + [{"input": [["0"], ["1"], ["0", "1"]], "output": ["0"]}],
    )
    p.write_text(json.dumps(outside))
    with pytest.raises(OperatorFormatError, match="outside the universe"):
        load_operator(str(p))

    bad_k = dict(data, K=[])
    p.write_text(json.dumps(bad_k))
    with pytest.raises(OperatorFormatError, match="K must be consistent"):
        load_operator(str(p))

    p.write_text('{"atoms": 1,')
    with pytest.raises(OperatorFormatError, match="line"):
        load_operator(str(p))


def test_check_postulates_covers_all(induced_op):
    reports = check_postulates(induced_op)
    assert set(reports) == set(PostulateId)
    assert passes(induced_op, BASIC_POSTULATES)



def test_strong_reciprocity_witness_matches_reference_scc():
    """Witnesses at benchmark scale are byte-identical to the reference's:
    edge-by-edge Tarjan and BFS on the broadcast n*n meets matrix.

    Random and model-induced operators at n=137, one random at n=697.
    """
    u137 = UniverseSpec(LanguageSpec(2), 2)
    u697 = UniverseSpec(LanguageSpec(2), 3)
    assert (u137.size, u697.size) == (137, 697)
    ops = [random_operator(seed, u137) for seed in range(4)]
    for seed, size, flags in (
        (1, 5, ModelFlags()),
        (2, 6, ModelFlags(has_X3=True, has_leq3=True)),
        (3, 9, ModelFlags(has_X3=True)),
    ):
        m = generate_model(seed, u137.lang, size, flags)
        ops.append(ChoiceOperator.from_model(m, max_input_size=2))
    ops.append(random_operator(0, u697))

    reports = [check_postulate(op, PostulateId.STRONG_RECIPROCITY) for op in ops]
    expected = [_reference_strong_reciprocity(op) for op in ops]
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in expected]
    # the model-induced operators pass, the random ones fail with a witness
    assert [r.holds for r in reports] == [False] * 4 + [True] * 3 + [False]
    for op, r in zip(ops, reports):
        if not r.holds:
            assert witness_violates(op, PostulateId.STRONG_RECIPROCITY, r.witness)


def _reference_outcome_quotient(op):
    """The quotient as one scatter over the edges of the n*n meets matrix."""
    out = np.array([o.mask for o in op.outputs], dtype=np.int64)
    uniq, inv = np.unique(out, return_inverse=True)
    ge = np.zeros((len(uniq), len(uniq)), dtype=bool)
    a, b = np.nonzero(_reference_meets(op))
    ge[inv[a], inv[b]] = True
    return uniq, inv, ge


def test_outcome_quotient_matches_group_loop():
    """The per-group quotient equals the scatter over the meets edges and
    the per-group-pair block scan.

    n=137 random and model-induced operators, a random n=257 operator
    (about 150 groups) and a random n=697 operator.
    """
    u137 = UniverseSpec(LanguageSpec(2), 2)
    ops = [random_operator(seed, u137) for seed in range(2)]
    for seed, size in ((1, 5), (2, 9)):
        m = generate_model(seed, u137.lang, size, ModelFlags())
        ops.append(ChoiceOperator.from_model(m, max_input_size=2))
    u257 = UniverseSpec(LanguageSpec(3), 1)
    u697 = UniverseSpec(LanguageSpec(2), 3)
    assert (u257.size, u697.size) == (257, 697)
    ops += [random_operator(0, u257), random_operator(0, u697)]
    for op in ops:
        k = op._kernel()
        uniq, inv, ge = k.uniq, k.inv, k.ge
        assert np.array_equal(uniq, np.unique(k.out))
        assert np.array_equal(uniq[inv], k.out)
        for got, want in zip((uniq, inv, ge), _reference_outcome_quotient(op)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        meets = _reference_meets(op)
        groups = [np.flatnonzero(inv == i) for i in range(len(uniq))]
        want = np.array([
            [meets[np.ix_(gi, gj)].any() for gj in groups] for gi in groups
        ])
        assert np.array_equal(ge, want)
