"""Relation table operations against references written from the definitions.

The lift's table, the projection, the single relation's bit matrix and
the relation artifact are each computed here the slow way, pair by pair
or bit by bit, and compared with the package's table operations.
"""

import json
import random

import numpy as np
import pytest

from choicerev import believability
from choicerev.believability import (
    BelievabilityRelation,
    MultiBelievabilityRelation,
    derive_mb_from_operator,
    lift,
    project,
    random_quasi_linear,
    relation_from_json,
    relation_to_json,
)
from choicerev.logic import InputSet, LanguageSpec, SentenceClass
from choicerev.models import GenerationError, ModelFlags, generate_model
from choicerev.operators import (
    ChoiceOperator,
    OutsideUniverseError,
    UniverseSpec,
    enumerate_universe,
    random_operator,
)
from choicerev.synthesis import verify_roundtrip_relation, verify_translation


def random_rows(rng, lang):
    c = lang.full_mask + 1
    return BelievabilityRelation(lang, tuple(rng.getrandbits(c) for _ in range(c)))


def single_relations(lang, count):
    """Quasi-linear draws (1 and 2 atoms) and arbitrary rows."""
    rng = random.Random(lang.atom_count)
    out = [random_rows(rng, lang) for _ in range(count)]
    if lang.atom_count <= 2:
        out += [random_quasi_linear(seed, lang) for seed in range(count)]
    return out


def lift_reference(base, u):
    """A ranks at least as high as B iff B is empty or some member of A
    ranks at least as high as every member of B, looped pair by pair."""
    ge = [[bool(r >> y & 1) for y in range(base.class_count)] for r in base.rows]
    members = [s.mask_tuple for s in enumerate_universe(u)]
    return np.array([
        [not b or any(all(ge[x][y] for y in b) for x in a) for b in members]
        for a in members
    ])


@pytest.mark.parametrize(
    "atoms,k", [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1), (2, 2), (2, 3)]
)
def test_lift_table_matches_pointwise_rule(atoms, k):
    lang = LanguageSpec(atoms)
    u = UniverseSpec(lang, k)
    for base in single_relations(lang, 1 if u.size > 200 else 4):
        assert np.array_equal(believability._lift_table(base, u), lift_reference(base, u))


def project_reference(mb):
    """The singleton point queries, one per pair of classes."""
    lang = mb.lang
    c = lang.full_mask + 1
    one = [InputSet.of(lang, SentenceClass(lang, x)) for x in range(c)]
    m = np.zeros((c, c), dtype=bool)
    for i in range(c):
        for j in range(c):
            m[i, j] = mb.holds(one[i], one[j])
    return BelievabilityRelation.from_matrix(lang, m)


def model_operator(seed, u):
    lang = u.lang
    flags = ModelFlags(has_X3=True, has_leq3=True)
    top = min(lang.full_mask, 8)
    for s in range(seed, seed + 50):
        try:
            m = generate_model(s, lang, random.Random(s).randint(2, top), flags)
        except GenerationError:
            continue
        return ChoiceOperator.from_model(m, u.max_input_size)
    raise AssertionError("no model drawn")


def relations_to_project():
    lang1, lang2 = LanguageSpec(1), LanguageSpec(2)
    rng = np.random.default_rng(3)
    out = []
    for u in (UniverseSpec(lang1, 4), UniverseSpec(lang2, 1), UniverseSpec(lang2, 2)):
        out.append(derive_mb_from_operator(model_operator(5, u)))
        out.append(derive_mb_from_operator(random_operator(5, u)))
        n = u.size
        out.append(MultiBelievabilityRelation.from_table(u, rng.random((n, n)) < 0.5))
    for lang in (lang1, lang2):
        out += [lift(r) for r in single_relations(lang, 3)]
    return out


def test_project_matches_singleton_queries():
    for mb in relations_to_project():
        assert project(mb) == project_reference(mb)


def test_project_reads_the_lifted_table(monkeypatch):
    """project(lift(r)) is r only because the lift's table says so: a lift
    table with one singleton cell flipped shows up in the projection, and
    the translation round trip reports it."""
    lang = LanguageSpec(2)
    r = random_quasi_linear(4, lang)
    honest = believability._lift_table

    def flipped(base, u):
        # only the singleton universe that project reads is wrong; the
        # max_input_size 2 table that the postulates check stays honest
        m = honest(base, u)
        if u.max_input_size == 1:
            one = believability._tables(u).singleton_index
            m[one[1], one[2]] ^= True
        return m

    monkeypatch.setattr(believability, "_lift_table", flipped)
    assert project(lift(r)) != r
    report = verify_translation(r, 2)
    assert not report.passed
    assert report.detail == "projection of the lift differs from the original"


@pytest.mark.parametrize("atoms", [1, 2])
def test_project_without_singletons_raises(atoms):
    lang = LanguageSpec(atoms)
    u = UniverseSpec(lang, 0)
    with pytest.raises(OutsideUniverseError):
        project(MultiBelievabilityRelation.from_table(u, np.ones((1, 1), dtype=bool)))
    with pytest.raises(OutsideUniverseError):
        project(derive_mb_from_operator(random_operator(1, u)))
    with pytest.raises(OutsideUniverseError):
        project(MultiBelievabilityRelation(lang, lambda a, b: True, u))


def matrix_reference(r):
    c = r.class_count
    return np.array([[bool(r.rows[i] >> j & 1) for j in range(c)] for i in range(c)])


def from_matrix_reference(lang, m):
    c = lang.full_mask + 1
    return tuple(sum(1 << j for j in range(c) if m[i, j]) for i in range(c))


@pytest.mark.parametrize("atoms", [1, 2, 3])
def test_matrix_and_from_matrix_match_bit_loops(atoms):
    lang = LanguageSpec(atoms)
    c = lang.full_mask + 1
    rng = random.Random(atoms)
    for trial in range(20):
        # dense, sparse and edge rows: top and bottom bits of every byte
        if trial == 0:
            rows = tuple([(1 << c) - 1] * c)
        elif trial == 1:
            rows = tuple(1 << (i % c) | 1 << (c - 1 - i) for i in range(c))
        else:
            p = rng.random()
            rows = tuple(
                sum(1 << j for j in range(c) if rng.random() < p) for _ in range(c)
            )
        r = BelievabilityRelation(lang, rows)
        m = r.matrix()
        assert m.dtype == bool and m.shape == (c, c)
        assert np.array_equal(m, matrix_reference(r))
        assert BelievabilityRelation.from_matrix(lang, m).rows == rows
        assert from_matrix_reference(lang, m) == rows
        # any nonzero entry holds, as in the bit loop
        ints = m.astype(np.int64) * rng.randint(1, 9)
        assert BelievabilityRelation.from_matrix(lang, ints).rows == rows


@pytest.mark.parametrize("shape", [(17, 17), (15, 15), (16, 17), (16,), (16, 16, 1)])
def test_from_matrix_checks_shape(shape):
    with pytest.raises(ValueError, match=r"expected a 16x16 matrix"):
        BelievabilityRelation.from_matrix(LanguageSpec(2), np.ones(shape, dtype=bool))


def artifact_reference(rel):
    """The artifact built pair by pair from point queries and encode()."""
    if isinstance(rel, BelievabilityRelation):
        lang = rel.lang
        one = [SentenceClass(lang, x) for x in range(rel.class_count)]
        code = [x.encode() for x in one]
        pairs = [[code[a.mask], code[b.mask]]
                 for a in one for b in one if rel.holds(a, b)]
        return {"atoms": lang.atom_count, "kind": "single", "pairs": pairs}
    u = rel.universe
    sets = enumerate_universe(u)
    code = [s.encode() for s in sets]
    if len(sets) > 200:
        # the n*n point queries would take seconds: read the table
        cells = zip(*np.nonzero(rel.table_over(u)))
    else:
        cells = ((i, j) for i, a in enumerate(sets) for j, b in enumerate(sets)
                 if rel.holds(a, b))
    return {"atoms": u.lang.atom_count, "kind": "multi",
            "max_input_size": u.max_input_size,
            "pairs": [[code[i], code[j]] for i, j in cells]}


def dumps(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def multi_relations():
    rng = np.random.default_rng(11)
    out = []
    for atoms, k in ((1, 4), (2, 1), (2, 2)):  # n = 16, 17, 137
        u = UniverseSpec(LanguageSpec(atoms), k)
        out.append(derive_mb_from_operator(model_operator(9, u)))
        out.append(derive_mb_from_operator(random_operator(9, u)))
        n = u.size
        out.append(MultiBelievabilityRelation.from_table(u, rng.random((n, n)) < 0.3))
        base = random_quasi_linear(9, u.lang)
        out.append(MultiBelievabilityRelation.from_table(u, lift(base).table_over(u)))
    return out


def test_single_artifacts_match_pair_builder():
    for atoms in (1, 2, 3):
        for r in single_relations(LanguageSpec(atoms), 1 if atoms == 3 else 5):
            got = relation_to_json(r)
            assert dumps(got) == dumps(artifact_reference(r))
            assert relation_from_json(got) == r
            assert relation_from_json(json.loads(dumps(got))) == r


def test_multi_artifacts_match_pair_builder():
    for rel in multi_relations():
        u = rel.universe
        got = relation_to_json(rel)
        assert dumps(got) == dumps(artifact_reference(rel))
        again = relation_from_json(json.loads(dumps(got)))
        assert again.universe == u
        assert np.array_equal(again.table_over(u), rel.table_over(u))


def test_multi_artifact_at_697_matches_pair_builder():
    u = UniverseSpec(LanguageSpec(2), 3)
    rel = derive_mb_from_operator(model_operator(13, u))
    got = dumps(relation_to_json(rel))
    want = dumps(artifact_reference(rel))
    assert len(got) > 10**6 and got == want


def test_mutating_an_artifact_leaves_later_ones_alone():
    u = UniverseSpec(LanguageSpec(2), 2)
    op = model_operator(3, u)
    first = verify_roundtrip_relation(op)
    digest, blob = first.artifact_hash, dumps(first.artifact)
    single = random_quasi_linear(3, u.lang)
    single_blob = dumps(relation_to_json(single))
    for art in (first.artifact, relation_to_json(single)):
        # pairs and codes are tuples, and the codes are shared with later
        # artifacts: neither can be changed in place
        with pytest.raises(TypeError):
            art["pairs"][0][0] = "x"
        with pytest.raises(TypeError):
            art["pairs"][0][0][0] = "x"
        art["pairs"][0] = ("x", "y")
        art["pairs"].append(["z"])
        art["pairs"][1:3] = []
        art["atoms"] = 9
    assert first.artifact_hash != digest
    later = verify_roundtrip_relation(op)
    assert later.artifact_hash == digest
    assert dumps(later.artifact) == blob
    assert dumps(relation_to_json(single)) == single_blob
