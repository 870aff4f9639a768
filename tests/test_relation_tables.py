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
from choicerev.logic import InputSet, LanguageError, LanguageSpec, SentenceClass
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
        out += [lift(r, 1) for r in single_relations(lang, 3)]
    return out


def test_project_matches_singleton_queries():
    for mb in relations_to_project():
        assert project(mb) == project_reference(mb)


def test_project_reads_the_lifted_table(monkeypatch):
    """project(lift(r, k)) is r only because the lift's table says so: a
    lift table with one singleton cell flipped shows up in the projection,
    and the translation round trip fails on it."""
    lang = LanguageSpec(2)
    r = random_quasi_linear(4, lang)
    honest = believability._lift_table

    def flipped(base, u):
        m = honest(base, u)
        one = believability._tables(u).singleton_index
        m[one[1], one[2]] ^= True
        return m

    monkeypatch.setattr(believability, "_lift_table", flipped)
    want = r.matrix()
    want[1, 2] ^= True
    assert project(lift(r, 2)) == BelievabilityRelation.from_matrix(lang, want)
    report = verify_translation(r, 2)
    assert not report.passed
    assert report.detail == "lifted relation fails transitivity"


@pytest.mark.parametrize("atoms", [1, 2])
def test_project_without_singletons_raises(atoms):
    lang = LanguageSpec(atoms)
    u = UniverseSpec(lang, 0)
    with pytest.raises(OutsideUniverseError):
        project(MultiBelievabilityRelation.from_table(u, np.ones((1, 1), dtype=bool)))
    with pytest.raises(OutsideUniverseError):
        project(derive_mb_from_operator(random_operator(1, u)))


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
        out.append(lift(base, u.max_input_size))
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
        # read back from the JSON text and from the artifact's own tuples
        for data in (json.loads(dumps(got)), got):
            again = relation_from_json(data)
            assert again.universe == u
            assert np.array_equal(again.table_over(u), rel.table_over(u))


def test_multi_artifact_at_697_matches_pair_builder():
    u = UniverseSpec(LanguageSpec(2), 3)
    rel = derive_mb_from_operator(model_operator(13, u))
    art = relation_to_json(rel)
    got = dumps(art)
    want = dumps(artifact_reference(rel))
    assert len(got) > 10**6 and got == want
    # read back from the artifact itself: json.loads of its 10^6 nested
    # lists takes seconds of collector passes, and the JSON text's lists
    # are read back at n <= 137 above
    again = relation_from_json(art)
    assert again.universe == u
    assert np.array_equal(again.table_over(u), rel.table_over(u))


def saved_reference(rel):
    """The file the pure-Python indented encoder writes for the artifact."""
    return json.dumps(relation_to_json(rel), sort_keys=True, indent=2) + "\n"


def test_saved_relation_matches_indented_dump(tmp_path):
    """save_relation writes json.dump's indent=2 text byte for byte: both
    kinds at n=16, 17 and 137, relations with no true cell, and a
    random table at n=697 (a derived one's reference dump takes seconds)."""
    rels = [r for atoms in (1, 2, 3) for r in single_relations(LanguageSpec(atoms), 1)]
    rels += multi_relations()
    rels.append(BelievabilityRelation(LanguageSpec(2), (0,) * 16))
    for n in (16, 137):
        u = UniverseSpec(LanguageSpec(1 if n == 16 else 2), 4 if n == 16 else 2)
        rels.append(MultiBelievabilityRelation.from_table(u, np.zeros((n, n), dtype=bool)))
    u = UniverseSpec(LanguageSpec(2), 3)
    rels.append(MultiBelievabilityRelation.from_table(
        u, np.random.default_rng(5).random((u.size, u.size)) < 0.05))
    p = tmp_path / "r.json"
    for rel in rels:
        believability.save_relation(rel, str(p))
        assert p.read_bytes() == saved_reference(rel).encode()
    assert {len(relation_to_json(r)["pairs"]) == 0 for r in rels} == {True, False}


def reference_from_json(data):
    """relation_from_json's result or error, decoding both codes of every
    pair as it comes and looking each set up by itself."""
    lang = LanguageSpec(int(data["atoms"]))
    decode = SentenceClass.decode if data["kind"] == "single" else InputSet.decode
    decoded = []
    for pos, pair in enumerate(data["pairs"]):
        try:
            decoded.append((decode(pair[0], lang), decode(pair[1], lang)))
        except (ValueError, TypeError, IndexError) as exc:
            raise believability.RelationFormatError(f"pair {pos}: {exc}") from exc
    if data["kind"] == "single":
        c = lang.full_mask + 1
        m = np.zeros((c, c), dtype=bool)
        for a, b in decoded:
            m[a.mask, b.mask] = True
        return BelievabilityRelation.from_matrix(lang, m)
    size = data.get("max_input_size")
    if size is None:
        size = max((max(len(a), len(b)) for a, b in decoded), default=0)
    u = UniverseSpec(lang, int(size))
    index = {s.mask_tuple: i for i, s in enumerate(enumerate_universe(u))}
    m = np.zeros((u.size, u.size), dtype=bool)
    for pos, (a, b) in enumerate(decoded):
        if a.mask_tuple not in index or b.mask_tuple not in index:
            raise believability.RelationFormatError(f"pair {pos}: set outside the universe")
        m[index[a.mask_tuple], index[b.mask_tuple]] = True
    return MultiBelievabilityRelation.from_table(u, m)


def read_back(read, data):
    try:
        rel = read(data)
    except (believability.RelationFormatError, LanguageError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(rel, BelievabilityRelation):
        return rel.rows
    return rel.universe, rel.table_over(rel.universe).tobytes()


# codes that fail to decode, or decode to sets outside a small universe,
# including ones hashable the same as a good code and ones not hashable
BAD_CODES = [
    None, 1, 1.5, True, "", "0", "01", "x", [], ["0"], ["01", "2"], ["010"],
    [["0", "1"]], [["01"], "x"], [["01", "10"]], [["11"], ["00"]], [[["0"]]],
    [["00"], ["01"], ["10"], ["11"]], {"a": 1},
]


def test_from_json_errors_match_pair_by_pair_decoding():
    """Each distinct code is decoded once, and the result, or the error
    with its pair position, is the pair-by-pair decoder's: bad codes and
    short pairs, at the first pair, a middle one and the last, on top of
    good artifacts of both kinds."""
    rng = random.Random(3)
    arts = []
    for atoms, k in ((1, 2), (2, 1)):
        u = UniverseSpec(LanguageSpec(atoms), k)
        arts.append(relation_to_json(derive_mb_from_operator(random_operator(3, u))))
        arts.append(relation_to_json(random_quasi_linear(3, u.lang)))
    results = set()
    for art in arts:
        art = json.loads(dumps(art))
        last = len(art["pairs"]) - 1
        variants = [art, {k: v for k, v in art.items() if k != "max_input_size"}]
        for bad in BAD_CODES:
            for pos in (0, last // 2, last):
                for broken in ([bad, art["pairs"][pos][1]], [art["pairs"][pos][0], bad], [bad]):
                    data = json.loads(dumps(art))
                    data["pairs"][pos] = broken
                    if rng.random() < 0.5:
                        data.pop("max_input_size", None)
                    variants.append(data)
        for data in variants:
            want = read_back(reference_from_json, data)
            assert read_back(relation_from_json, data) == want
            results.add(type(want).__name__)
    assert results == {"str", "tuple"}


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
    # the report builds its artifact on each read from a relation no caller
    # holds: an edit to one read reaches neither the hash nor a later read
    assert first.artifact_hash == digest
    assert dumps(first.artifact) == blob
    later = verify_roundtrip_relation(op)
    assert later.artifact_hash == digest
    assert dumps(later.artifact) == blob
    assert dumps(relation_to_json(single)) == single_blob
