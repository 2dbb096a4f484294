"""Command line front end.

generate: build a preset instance document (deterministic in preset, seed,
noise) and write its canonical JSON. validate: structural parse plus the
group/cocycle law batteries. check: run a named suite. Exit codes: 0 all
checks pass, 1 a mathematical check failed, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .errors import PreconditionError, SchemaError
from .presets import build_instance, preset_names
from .report import Report
from .schema import Instance, instance_from_json, report_to_json
from .suites import SUITES, InstanceContext, run_suite


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path!r}: {exc}") from exc
    return instance_from_json(text)


def _path_len(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def cmd_generate(args: argparse.Namespace) -> int:
    from .generation import instance_to_json
    inst = build_instance(args.preset, args.seed, args.noise == "on")
    _emit(instance_to_json(inst), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    ctx = InstanceContext(_load(args.file))
    rep = Report("validate")
    rep.merge(ctx.peiffer)
    rep.merge(ctx.gerbal)
    _emit(report_to_json(rep), args.out)
    return 0 if rep.ok else 1


def cmd_check(args: argparse.Namespace) -> int:
    inst = _load(args.file)
    rep = run_suite(inst, args.suite, args.max_path_len)
    if args.diagnostic:
        for c in sorted(rep.checks, key=lambda c: c.check_id):
            print(f"{c.check_id}: {c.status}", file=sys.stderr)
            if c.status == "fail":
                print(f"  witness: {c.witness}", file=sys.stderr)
    _emit(report_to_json(rep), args.out)
    return 0 if rep.ok else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catbundle",
        description="Glue a categorical principal bundle from local cocycle "
                    "data over a finite covered base and check its laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a preset instance document")
    p_gen.add_argument("preset", choices=preset_names())
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--noise", choices=("on", "off"), default="on")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_val = sub.add_parser("validate",
                           help="structural and basic law validation of a document")
    p_val.add_argument("file")
    p_val.add_argument("--out", default=None)
    p_val.set_defaults(func=cmd_validate)

    p_chk = sub.add_parser("check", help="run a law-check suite on a document")
    p_chk.add_argument("file")
    p_chk.add_argument("--suite", choices=SUITES, default="all")
    p_chk.add_argument("--max-path-len", type=_path_len, default=3)
    p_chk.add_argument("--diagnostic", action="store_true")
    p_chk.add_argument("--out", default=None)
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (SchemaError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
