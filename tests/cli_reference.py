"""The argparse command line that `catbundle.cli` replaced, kept as the
reference for the differential test in tests/test_cli.py.

`parser()` is the parser `cli` built before it parsed argv from its own
table, less the command each verb dispatched to: `parse_args` gives the same
fields that `cli._parse` gives, or exits 0 on `-h` and 2 on a usage error.
"""

import argparse

from catbundle.presets import preset_names
from catbundle.suites import SUITES


def _path_len(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def parser() -> argparse.ArgumentParser:
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

    p_val = sub.add_parser("validate",
                           help="structural and basic law validation of a document")
    p_val.add_argument("file")
    p_val.add_argument("--out", default=None)

    p_chk = sub.add_parser("check", help="run a law-check suite on a document")
    p_chk.add_argument("file")
    p_chk.add_argument("--suite", choices=SUITES, default="all")
    p_chk.add_argument("--max-path-len", type=_path_len, default=3)
    p_chk.add_argument("--diagnostic", action="store_true")
    p_chk.add_argument("--out", default=None)
    return parser
