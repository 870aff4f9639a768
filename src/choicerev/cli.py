"""Command-line front end.

Subcommands: revise (apply a stored model to an input set), check
(postulate batteries for operators and relations), synthesize (model
from an operator), roundtrip (representation round trips 1/2/4/5),
translate (single/set-level relation translations), gen (seeded models,
operators, relations), demo (the three-cycle counterexample).

Exit codes: 0 all checks passed, 1 a check failed (report emitted),
2 usage or file-format error.  JSON output is byte-deterministic for
identical inputs: keys are sorted and reports carry no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .believability import (
    BelievabilityRelation,
    MultiBelievabilityRelation,
    RelationFormatError,
    RelationPostulateId,
    _MULTI_ONLY,
    check_relation_postulate,
    lift,
    load_relation,
    project,
    random_quasi_linear,
    relation_text,
    relation_to_json,
    save_relation,
)
from .descriptors import DescriptorError, formula_for_class
from .logic import (
    LanguageError,
    LanguageSpec,
    ParseError,
    SentenceClass,
    parse_input_set,
)
from .models import (
    GenerationError,
    ModelFlags,
    ModelFormatError,
    ModelInvalidError,
    choice_revise_via_model,
    generate_model,
    load_model,
    save_model,
)
from .operators import (
    OperatorFormatError,
    OutsideUniverseError,
    PostulateId,
    UniverseSpec,
    check_postulate,
    random_operator,
    save_operator,
    load_operator,
)
from .synthesis import (
    SENTENTIAL_CORE,
    SententialPostulateId,
    SynthesisError,
    check_sentential_postulates,
    footnote7_operator,
    synthesize_model,
    verify_roundtrip_model,
    verify_roundtrip_relation,
    verify_translation,
)

_USAGE_ERRORS = (
    ModelFormatError,
    OperatorFormatError,
    RelationFormatError,
    ParseError,
    DescriptorError,
    LanguageError,
    GenerationError,
    OutsideUniverseError,
    OSError,
)


def _common() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--atoms", type=int, default=2)
    p.add_argument("--max-input-size", type=int, default=2, dest="max_input_size")
    p.add_argument("--seed", type=int, default=0)
    return p


def _parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="choicerev",
        description="Belief change by accepting part of a finite input set.",
    )
    root.add_argument("--version", action="version", version=__version__)
    sub = root.add_subparsers(dest="command", required=True)
    common = _common()

    p = sub.add_parser("revise", parents=[common], help="apply a stored model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help='comma-separated formulas, e.g. "p0, ~p1"')

    p = sub.add_parser("check", parents=[common], help="postulate battery")
    p.add_argument("--operator")
    p.add_argument("--relation")
    p.add_argument("--postulates", default="all", help='"all" or comma-separated ids')

    p = sub.add_parser("synthesize", parents=[common], help="model from an operator")
    p.add_argument("--operator", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("roundtrip", parents=[common], help="representation round trips")
    p.add_argument("--operator", required=True)
    p.add_argument("--theorem", type=int, choices=(1, 2, 4, 5), required=True)

    p = sub.add_parser("translate", parents=[common], help="relation translations")
    p.add_argument("--relation", required=True)
    p.add_argument("--direction", choices=("lift", "project"), required=True)
    p.add_argument("--out")
    p.add_argument("--verify", action="store_true", help="also round-trip back")

    p = sub.add_parser("gen", parents=[common], help="seeded artifacts")
    p.add_argument("what", choices=("model", "operator", "relation"))
    p.add_argument("--size", type=int, default=4, help="model outcome count")
    p.add_argument("--flags", default="", help='comma list from "x3,leq3"')
    p.add_argument("--out")

    p = sub.add_parser("demo", parents=[common], help="built-in demonstrations")
    p.add_argument("what", choices=("footnote7",))
    return root


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    """Print payload as JSON under --format json, else the text lines."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _print_relation_json(payload: dict, rel) -> None:
    """Print what print(json.dumps({**payload, "relation":
    relation_to_json(rel)}, sort_keys=True, indent=2)) prints, with the
    relation's part streamed from relation_text's chunks, each indented
    one level deeper; no pair list is built.  A lift to n=697 printed
    this way (167 MB of text) takes about 0.8 s of CPU time for the whole
    command, against about 12 s through json.dumps."""
    text = json.dumps({**payload, "relation": None}, sort_keys=True, indent=2)
    before, after = text.split('\n  "relation": null', 1)
    sys.stdout.write(before + '\n  "relation": ')
    sys.stdout.writelines(chunk.replace("\n", "\n  ")
                          for chunk in relation_text(rel, indented=True))
    sys.stdout.write(after + "\n")


def _header(args, **extra) -> dict:
    head = {"version": __version__, "atoms": args.atoms,
            "max_input_size": args.max_input_size}
    head.update(extra)
    return head


def _cmd_revise(args) -> int:
    model = load_model(args.model)
    lang = model.lang
    a = parse_input_set(args.input, lang)
    out = choice_revise_via_model(model, a)
    formula = formula_for_class(SentenceClass(lang, out.mask))
    payload = {
        "header": _header(args, atoms=lang.atom_count),
        "input": a.encode(),
        "outcome": out.encode(),
        "outcome_formula": formula,
        "consistent": out.is_consistent,
    }
    _emit(args, payload, [
        f"input: {args.input.strip() or '(empty)'}",
        f"outcome models: {','.join(out.encode()) or '(none)'}",
        f"outcome theory: Cn({formula})",
    ])
    return 0


def _postulate_selection(text: str, ids) -> list:
    if text == "all":
        return list(ids)
    by_value = {p.value: p for p in ids}
    chosen = []
    for token in text.split(","):
        token = token.strip()
        if token not in by_value:
            raise LanguageError(f"unknown postulate {token!r}")
        chosen.append(by_value[token])
    return chosen


def _cmd_check(args) -> int:
    if (args.operator is None) == (args.relation is None):
        print("error: pass exactly one of --operator / --relation", file=sys.stderr)
        return 2
    if args.operator:
        op = load_operator(args.operator)
        wanted = _postulate_selection(args.postulates, PostulateId)
        reports = [check_postulate(op, p) for p in wanted]
        payload = {
            "header": _header(args, atoms=op.lang.atom_count,
                              max_input_size=op.universe.max_input_size),
            "reports": [r.to_dict() for r in reports],
            "all_hold": all(r.holds for r in reports),
        }
        lines = [
            f"{r.postulate.value}: {'pass' if r.holds else 'FAIL'}"
            + (f" (skipped {r.skipped})" if r.skipped else "")
            + (f" witness: {r.witness.note}" if r.witness else "")
            for r in reports
        ]
        _emit(args, payload, lines)
        return 0 if payload["all_hold"] else 1
    rel = load_relation(args.relation)
    ids = list(RelationPostulateId)
    if isinstance(rel, BelievabilityRelation):
        ids = [p for p in ids if p not in _MULTI_ONLY]
    # a set-level relation read from a file is checked over its own universe
    reports = [check_relation_postulate(rel, p)
               for p in _postulate_selection(args.postulates, ids)]
    payload = {
        "header": _header(args, atoms=rel.lang.atom_count),
        "reports": [r.to_dict() for r in reports],
        "all_hold": all(r.holds for r in reports),
    }
    lines = [
        f"{r.postulate.value} ({r.variant}): {'pass' if r.holds else 'FAIL'}"
        + (f" (skipped {r.skipped})" if r.skipped else "")
        + (f" witness: {r.witness.note}" if r.witness else "")
        for r in reports
    ]
    _emit(args, payload, lines)
    return 0 if payload["all_hold"] else 1


def _cmd_synthesize(args) -> int:
    op = load_operator(args.operator)
    try:
        model = synthesize_model(op)
    except SynthesisError as exc:
        failing = [
            r.to_dict() for r in exc.reports.values() if not r.holds
        ]
        payload = {"header": _header(args), "error": str(exc), "reports": failing}
        _emit(args, payload, [f"synthesis rejected: {exc}"] + [
            f"  {r['postulate']}: FAIL" for r in failing
        ])
        return 1
    save_model(model, args.out)
    payload = {
        "header": _header(args, atoms=model.lang.atom_count),
        "outcomes": len(model.outcomes),
        "out": args.out,
    }
    _emit(args, payload, [
        f"synthesized model with {len(model.outcomes)} outcomes -> {args.out}"
    ])
    return 0


def _cmd_roundtrip(args) -> int:
    op = load_operator(args.operator)
    if args.theorem in (1, 2):
        report = verify_roundtrip_model(op, require_extended=args.theorem == 2)
    else:
        report = verify_roundtrip_relation(op, standard=args.theorem == 5)
    payload = {"header": _header(args, atoms=op.lang.atom_count,
                                 max_input_size=op.universe.max_input_size),
               "report": report.to_dict()}
    status = "pass" if report.passed else "FAIL"
    _emit(args, payload, [f"roundtrip {args.theorem}: {status} - {report.detail}"])
    return 0 if report.passed else 1


def _cmd_translate(args) -> int:
    rel = load_relation(args.relation)
    if args.direction == "lift":
        if not isinstance(rel, BelievabilityRelation):
            print("error: lift expects a single-sentence relation", file=sys.stderr)
            return 2
        result = lift(rel, args.max_input_size)
    else:
        if not isinstance(rel, MultiBelievabilityRelation):
            print("error: project expects a set-level relation", file=sys.stderr)
            return 2
        result = project(rel)
    if args.verify:
        report = verify_translation(rel, max_input_size=args.max_input_size)
        status = "pass" if report.passed else "FAIL"
        if args.format == "json":
            _print_relation_json({"header": _header(args), "report": report.to_dict()}, result)
        else:
            print(f"translate {args.direction}: {status} - {report.detail}")
        if args.out:
            save_relation(result, args.out)
        return 0 if report.passed else 1
    if args.out:
        save_relation(result, args.out)
        _emit(args, {"header": _header(args), "out": args.out},
              [f"translated ({args.direction}) -> {args.out}"])
    elif args.format == "json":
        _print_relation_json({"header": _header(args)}, result)
    else:
        print(json.dumps(relation_to_json(result), sort_keys=True))
    return 0


def _cmd_gen(args) -> int:
    lang = LanguageSpec(args.atoms)
    if args.what == "model":
        tokens = {t.strip() for t in args.flags.split(",") if t.strip()}
        unknown = tokens - {"x3", "leq3"}
        if unknown:
            raise LanguageError(f"unknown flag {sorted(unknown)[0]!r}")
        flags = ModelFlags("x3" in tokens, "leq3" in tokens)
        model = generate_model(args.seed, lang, args.size, flags)
        if args.out:
            save_model(model, args.out)
        payload = {"header": _header(args), "model": model.to_json()}
        _emit(args, payload, [
            f"model: {len(model.outcomes)} outcomes, seed {args.seed}"
            + (f" -> {args.out}" if args.out else "")
        ])
        return 0
    if args.what == "operator":
        u = UniverseSpec(lang, args.max_input_size)
        op = random_operator(args.seed, u)
        if args.out:
            save_operator(op, args.out)
        payload = {"header": _header(args), "operator": op.to_json()}
        _emit(args, payload, [
            f"operator over {u.size} inputs, seed {args.seed}"
            + (f" -> {args.out}" if args.out else "")
        ])
        return 0
    rel = random_quasi_linear(args.seed, lang)
    if args.out:
        save_relation(rel, args.out)
    payload = {"header": _header(args), "relation": relation_to_json(rel)}
    _emit(args, payload, [
        f"quasi-linear relation over {rel.class_count} classes, seed {args.seed}"
        + (f" -> {args.out}" if args.out else "")
    ])
    return 0


def _cmd_demo(args) -> int:
    op = footnote7_operator()
    reports = check_sentential_postulates(op)
    core_pass = all(reports[p].holds for p in SENTENTIAL_CORE)
    strong = reports[SententialPostulateId.STRONG_RECIPROCITY]
    reproduced = core_pass and not strong.holds and strong.witness is not None
    cycle = strong.witness.to_dict() if strong.witness else None
    payload = {
        "header": _header(args, atoms=op.lang.atom_count),
        "core_postulates": {p.value: reports[p].holds for p in SENTENTIAL_CORE},
        "extensionality": reports[SententialPostulateId.EXTENSIONALITY].holds,
        "strong_reciprocity": strong.holds,
        "cycle": cycle,
        "reproduced": reproduced,
    }
    lines = [
        f"core postulates 1-5: {'pass' if core_pass else 'FAIL'}; "
        f"strong reciprocity: {'pass' if strong.holds else 'FAIL'}",
    ]
    if strong.witness:
        steps = " -> ".join(
            "|".join(item) if item else "(contradiction)"
            for item in (c.encode() for c in strong.witness.items)
        )
        lines.append(f"violating loop ({len(strong.witness.items)} inputs): {steps}")
    lines.append("counterexample reproduced" if reproduced else "REPRODUCTION FAILED")
    _emit(args, payload, lines)
    return 0 if reproduced else 1


_DISPATCH = {
    "revise": _cmd_revise,
    "check": _cmd_check,
    "synthesize": _cmd_synthesize,
    "roundtrip": _cmd_roundtrip,
    "translate": _cmd_translate,
    "gen": _cmd_gen,
    "demo": _cmd_demo,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 2)
    try:
        return _DISPATCH[args.command](args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelInvalidError as exc:
        print(f"error: invalid model: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
