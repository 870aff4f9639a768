"""Command-line interface: exit codes, output determinism, error reporting."""

import hashlib
import json
import time

import pytest

from choicerev import __version__
from choicerev.cli import main


@pytest.fixture
def model_file(tmp_path):
    p = tmp_path / "m.json"
    assert main(["gen", "model", "--atoms", "2", "--seed", "7", "--size", "5",
                 "--out", str(p)]) == 0
    return str(p)


@pytest.fixture
def operator_file(tmp_path, model_file):
    from choicerev import ChoiceOperator, load_model, save_operator

    p = tmp_path / "op.json"
    op = ChoiceOperator.from_model(load_model(model_file), max_input_size=2)
    save_operator(op, str(p))
    return str(p)


@pytest.fixture
def relation_file(tmp_path):
    p = tmp_path / "rel.json"
    assert main(["gen", "relation", "--atoms", "2", "--seed", "11",
                 "--out", str(p)]) == 0
    return str(p)


def test_version(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_no_command_is_usage_error():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_revise(model_file, capsys):
    code = main(["revise", "--model", model_file, "--input", "p0, ~p1",
                 "--atoms", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome models:" in out
    assert "outcome theory: Cn(" in out


def test_revise_empty_input(model_file, capsys):
    assert main(["revise", "--model", model_file, "--input", "",
                 "--atoms", "2"]) == 0
    assert "outcome" in capsys.readouterr().out


def test_revise_bad_formula(model_file, capsys):
    code = main(["revise", "--model", model_file, "--input", "p0 &&& p1",
                 "--atoms", "2"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # positions count from the start of the whole input, not of the member
    code = main(["revise", "--model", model_file, "--input", "p0, p1 &",
                 "--atoms", "2"])
    assert code == 2
    assert "unexpected end of input (at position 8)" in capsys.readouterr().err


def test_revise_non_ascii_digit_is_usage_error(model_file, capsys):
    # a superscript two is a digit to str.isdigit but not an atom index
    code = main(["revise", "--model", model_file, "--input", "p\u00b2", "--atoms", "2"])
    assert code == 2
    assert "expected atom index after 'p'" in capsys.readouterr().err


def test_check_operator_exit_codes(operator_file, capsys):
    # model-induced operators pass the core but this one fails success
    assert main(["check", "--operator", operator_file,
                 "--postulates", "closure,relative_success,regularity"]) == 0
    capsys.readouterr()
    assert main(["check", "--operator", operator_file]) == 1
    out = capsys.readouterr().out
    assert "relative_success: pass" in out


def test_check_requires_exactly_one_target(operator_file, relation_file, capsys):
    assert main(["check"]) == 2
    assert main(["check", "--operator", operator_file,
                 "--relation", relation_file]) == 2


def test_check_unknown_postulate(operator_file, capsys):
    assert main(["check", "--operator", operator_file,
                 "--postulates", "nosuch"]) == 2
    assert "unknown postulate" in capsys.readouterr().err


def test_check_relation(tmp_path, relation_file, capsys):
    from choicerev.believability import QUASI_LINEAR_POSTULATES, STANDARD_POSTULATES

    assert main(["check", "--relation", relation_file]) == 0
    out = capsys.readouterr().out
    assert "completeness (single): pass" in out
    # set-only postulates are not offered for single relations
    assert "determination" not in out
    # each level's battery is its postulate list, in order
    lifted = tmp_path / "lifted.json"
    assert main(["translate", "--relation", relation_file, "--direction", "lift",
                 "--out", str(lifted)]) == 0
    for path, ids in ((relation_file, QUASI_LINEAR_POSTULATES),
                      (str(lifted), STANDARD_POSTULATES)):
        capsys.readouterr()
        assert main(["check", "--relation", path, "--format", "json"]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [r["postulate"] for r in reports] == [p.value for p in ids]


def test_check_json_deterministic(operator_file, capsys):
    assert main(["check", "--operator", operator_file, "--format", "json"]) == 1
    first = capsys.readouterr().out
    assert main(["check", "--operator", operator_file, "--format", "json"]) == 1
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["header"]["version"] == __version__
    assert not data["all_hold"]


def test_malformed_file_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"atoms": 2, ')
    assert main(["check", "--operator", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON at line" in err
    assert main(["check", "--operator", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("enabled", [True, False])
def test_loaders_restore_collector_state(enabled, tmp_path, model_file,
                                         operator_file, relation_file):
    """Each loader pauses the collector while it reads and parses, and
    leaves it as it found it, after a good file, invalid JSON and a
    non-object file; the messages name the file."""
    import gc

    from choicerev import (ModelFormatError, OperatorFormatError, RelationFormatError,
                           load_model, load_operator, load_relation)

    bad = tmp_path / "bad.json"
    bad.write_text('{"atoms": 2, ')
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]\n")
    loaders = (
        (load_model, ModelFormatError, model_file),
        (load_operator, OperatorFormatError, operator_file),
        (load_relation, RelationFormatError, relation_file),
    )
    was = gc.isenabled()
    try:
        for load, error, good in loaders:
            (gc.enable if enabled else gc.disable)()
            load(good)
            assert gc.isenabled() is enabled
            for path, message in ((bad, "invalid JSON at line 1"),
                                  (listed, "expected a JSON object")):
                with pytest.raises(error) as info:
                    load(str(path))
                assert str(info.value) == f"{path}: {message}"
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_synthesize_pass_and_fail(tmp_path, operator_file, capsys):
    out = tmp_path / "model.json"
    assert main(["synthesize", "--operator", operator_file,
                 "--out", str(out)]) == 0
    assert out.exists()
    capsys.readouterr()

    bad_op = tmp_path / "random.json"
    assert main(["gen", "operator", "--atoms", "1", "--seed", "0",
                 "--out", str(bad_op)]) == 0
    capsys.readouterr()
    code = main(["synthesize", "--operator", str(bad_op),
                 "--out", str(tmp_path / "nope.json")])
    assert code == 1
    assert "synthesis rejected" in capsys.readouterr().out


def test_roundtrip_subcommand(operator_file, capsys):
    assert main(["roundtrip", "--operator", operator_file, "--theorem", "1"]) == 0
    assert "roundtrip 1: pass" in capsys.readouterr().out
    assert main(["roundtrip", "--operator", operator_file, "--theorem", "4"]) == 0
    capsys.readouterr()
    # this operator lacks the supplementary postulates
    assert main(["roundtrip", "--operator", operator_file, "--theorem", "5"]) == 1


def test_translate_lift_project(tmp_path, relation_file, capsys):
    lifted = tmp_path / "lifted.json"
    assert main(["translate", "--relation", relation_file, "--direction",
                 "lift", "--out", str(lifted), "--atoms", "2"]) == 0
    capsys.readouterr()
    assert main(["translate", "--relation", str(lifted), "--direction",
                 "project", "--verify"]) == 0
    assert "translate project: pass" in capsys.readouterr().out


def test_translate_verify(relation_file, capsys):
    assert main(["translate", "--relation", relation_file, "--direction",
                 "lift", "--verify", "--atoms", "2"]) == 0
    assert "translate lift: pass" in capsys.readouterr().out


def test_translate_direction_mismatch(relation_file, capsys):
    assert main(["translate", "--relation", relation_file,
                 "--direction", "project"]) == 2
    assert "project expects" in capsys.readouterr().err


def test_gen_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for p in (a, b):
        assert main(["gen", "operator", "--atoms", "2", "--seed", "3",
                     "--out", str(p)]) == 0
    assert a.read_text() == b.read_text()


def test_gen_model_flags(tmp_path, capsys):
    p = tmp_path / "m.json"
    assert main(["gen", "model", "--atoms", "2", "--seed", "0", "--size", "8",
                 "--flags", "x3,leq3", "--out", str(p)]) == 0
    from choicerev import ModelFlags, check_extended_conditions, load_model

    assert check_extended_conditions(load_model(str(p))) == ModelFlags(True, True)
    capsys.readouterr()
    assert main(["gen", "model", "--atoms", "2", "--flags", "bogus"]) == 2
    assert "unknown flag" in capsys.readouterr().err


def test_gen_infeasible_is_usage_error(capsys):
    assert main(["gen", "model", "--atoms", "1", "--size", "4",
                 "--flags", "leq3"]) == 2


def test_gen_relation_three_atoms_is_refused_at_once(capsys):
    start = time.monotonic()
    assert main(["gen", "relation", "--atoms", "3", "--seed", "7"]) == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err == "error: random relations need 1 or 2 atoms, got 3\n"


def test_demo_footnote7(capsys):
    assert main(["demo", "footnote7"]) == 0
    out = capsys.readouterr().out
    assert "core postulates 1-5: pass" in out
    assert "strong reciprocity: FAIL" in out
    assert "violating loop" in out
    assert "counterexample reproduced" in out


def test_demo_json(capsys):
    assert main(["demo", "footnote7", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["reproduced"] is True
    assert data["strong_reciprocity"] is False
    assert len(data["cycle"]["items"]) >= 3


def test_check_witness_revalidates(tmp_path, capsys):
    bad_op = tmp_path / "random.json"
    assert main(["gen", "operator", "--atoms", "1", "--seed", "5",
                 "--out", str(bad_op)]) == 0
    capsys.readouterr()
    assert main(["check", "--operator", str(bad_op), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)

    from choicerev import PostulateId, load_operator
    from choicerev.logic import InputSet
    from choicerev.operators import Witness, witness_violates
    from choicerev.logic import BeliefSet

    op = load_operator(str(bad_op))
    for entry in data["reports"]:
        if entry["holds"] or entry["witness"] is None:
            continue
        w = Witness(
            tuple(InputSet.decode(i, op.lang) for i in entry["witness"]["inputs"]),
            tuple(BeliefSet.decode(o, op.lang) for o in entry["witness"]["outcomes"]),
            entry["witness"]["note"],
        )
        assert witness_violates(op, PostulateId(entry["postulate"]), w), entry


# sha256 of the JSON output; the header holds the version (0.1.0), so a
# version bump changes both
CHECK_697_SHA256 = "bbac9bcffd9c280057b419cfca8f341aa7c7e88fb46d5958a7f4b168573252a8"
FOOTNOTE7_SHA256 = "a08b9f212f0a23fd0a034f5e7f9dd66dd1350bc20f1880773f36dcc38c048c1f"
# the seed-1 random n=257 operator (3 atoms): about 155 outcome groups, the
# largest quotient a failing strong-reciprocity check reads
CHECK_257_SHA256 = "8a5e3f49a37ef1bf93dbb5a279beafe22b26db963014b59edfe93a480e17e146"


def test_json_output_pinned(tmp_path, capsys):
    """`check` on the seed-1 random n=697 operator and `demo footnote7`
    print the same bytes as before: every verdict, witness and loop."""
    op = tmp_path / "op.json"
    assert main(["gen", "operator", "--atoms", "2", "--max-input-size", "3",
                 "--seed", "1", "--out", str(op)]) == 0
    capsys.readouterr()
    assert main(["check", "--operator", str(op), "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_697_SHA256
    assert main(["demo", "footnote7", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FOOTNOTE7_SHA256


def test_json_output_pinned_at_257(tmp_path, capsys):
    """`check` on the seed-1 random n=257 operator prints the same bytes
    as before: every verdict and the strong-reciprocity loop."""
    op = tmp_path / "op3.json"
    assert main(["gen", "operator", "--atoms", "3", "--max-input-size", "1",
                 "--seed", "1", "--out", str(op)]) == 0
    capsys.readouterr()
    assert main(["check", "--operator", str(op), "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_257_SHA256


# the theorem 4 and 5 reports on the operator of the seed-1 2-atom model
# with both extended conditions (size 8), at max_input_size 2 (n=137);
# each holds the derived relation's artifact_hash
ROUNDTRIP_137_SHA256 = {
    4: "06bbd124b19d020ec87c7726c1f89765233271b06d4a022b7d56f036edfd825f",
    5: "ac6f0fcb7851d1de28cdc679670d65d6abadf90a78d123855e44acc4fca50948",
}


def test_roundtrip_output_pinned_at_137(tmp_path, capsys):
    from choicerev import ChoiceOperator, load_model, save_operator

    m, op = tmp_path / "mf.json", tmp_path / "op137.json"
    assert main(["gen", "model", "--atoms", "2", "--seed", "1", "--size", "8",
                 "--flags", "x3,leq3", "--out", str(m)]) == 0
    save_operator(ChoiceOperator.from_model(load_model(str(m)), 2), str(op))
    capsys.readouterr()
    for theorem, want in ROUNDTRIP_137_SHA256.items():
        assert main(["roundtrip", "--operator", str(op), "--theorem", str(theorem),
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want


def test_translate_builds_relation_dict_only_to_print_it(tmp_path, relation_file,
                                                        monkeypatch, capsys):
    """With --out, or with --verify in text form, the translated relation is
    written or verified but never turned into the dict a JSON payload holds."""
    import choicerev.cli as cli

    def refuse(rel):
        raise AssertionError("relation_to_json called")

    monkeypatch.setattr(cli, "relation_to_json", refuse)
    lifted = tmp_path / "lifted.json"
    for fmt in ("text", "json"):
        assert main(["translate", "--relation", relation_file, "--direction", "lift",
                     "--out", str(lifted), "--format", fmt]) == 0
    assert main(["translate", "--relation", relation_file, "--direction", "lift",
                 "--verify", "--out", str(lifted)]) == 0
    assert "translate lift: pass" in capsys.readouterr().out


@pytest.mark.parametrize("atoms", [1, 2])
def test_gen_relation_json_streams_without_relation_dict(monkeypatch, capsys, atoms):
    """`gen relation --format json` prints what json.dumps(payload,
    sort_keys=True, indent=2) prints for the payload with the relation's
    dict, through the printer `translate` uses, never building that dict."""
    import choicerev.cli as cli
    from choicerev import LanguageSpec, random_quasi_linear
    from choicerev.believability import relation_to_json

    relation = relation_to_json(random_quasi_linear(11, LanguageSpec(atoms)))

    def refuse(rel):
        raise AssertionError("relation_to_json called")

    monkeypatch.setattr(cli, "relation_to_json", refuse)
    assert main(["gen", "relation", "--atoms", str(atoms), "--seed", "11",
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    payload = {**json.loads(out), "relation": relation}
    assert set(payload) == {"header", "relation"}
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_check_relation_without_singletons_is_usage_error(tmp_path):
    """A set-level relation over a universe with no singletons
    (max_input_size 0, n=1): minimality cannot be stated there, so `check
    --relation` exits 2 with a message, not with a traceback."""
    import os
    import subprocess
    import sys

    import numpy as np

    import choicerev
    from choicerev import MultiBelievabilityRelation, UniverseSpec, save_relation
    from choicerev.logic import LanguageSpec

    path = tmp_path / "r0.json"
    u = UniverseSpec(LanguageSpec(2), 0)
    save_relation(MultiBelievabilityRelation.from_table(u, np.array([[True]])), str(path))
    src = os.path.dirname(os.path.dirname(choicerev.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-m", "choicerev.cli", "check", "--relation",
                          str(path)], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr
    assert "minimality needs singletons in the universe" in run.stderr


# `check --relation` on the relation derived from the seed-1 random n=137
# operator: weak coupling fails, with the witness of its first failing
# instance
CHECK_137_RELATION_SHA256 = "4e7c881b9f9de51922b499bd2a7d4dd7628b5f19f587f994d0a4a155b0cb2659"


def test_check_relation_output_pinned_at_137(tmp_path, capsys):
    from choicerev import derive_mb_from_operator, load_operator, save_relation

    op, rel = tmp_path / "opw.json", tmp_path / "rw.json"
    assert main(["gen", "operator", "--atoms", "2", "--max-input-size", "2",
                 "--seed", "1", "--out", str(op)]) == 0
    save_relation(derive_mb_from_operator(load_operator(str(op))), str(rel))
    capsys.readouterr()
    assert main(["check", "--relation", str(rel), "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_137_RELATION_SHA256
    weak = next(r for r in json.loads(out)["reports"] if r["postulate"] == "weak_coupling")
    assert not weak["holds"]


@pytest.mark.parametrize("atoms, k", [(1, 4), (2, 1), (2, 2)])
def test_translate_lift_json_matches_indented_dumps(tmp_path, capsys, atoms, k):
    """`translate --direction lift --format json`, with and without
    --verify, prints what json.dumps(payload, sort_keys=True, indent=2)
    prints for the payload with the relation's dict, at n=16, 17, 137."""
    from choicerev import lift, load_relation
    from choicerev.believability import relation_to_json

    path = tmp_path / "r.json"
    assert main(["gen", "relation", "--atoms", str(atoms), "--seed", "3",
                 "--out", str(path)]) == 0
    relation = relation_to_json(lift(load_relation(str(path)), k))
    capsys.readouterr()
    for extra in ([], ["--verify"]):
        assert main(["translate", "--relation", str(path), "--direction", "lift",
                     "--max-input-size", str(k), "--format", "json"] + extra) == 0
        out = capsys.readouterr().out
        payload = {**json.loads(out), "relation": relation}
        assert set(payload) == {"header", "relation"} | ({"report"} if extra else set())
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
