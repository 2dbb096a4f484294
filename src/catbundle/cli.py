"""Command line front end.

generate: build a preset instance document (deterministic in preset, seed,
noise) and write its canonical JSON. validate: structural parse plus the
group/cocycle law batteries. check: run a named suite. Exit codes: 0 all
checks pass, 1 a mathematical check failed, 2 input or usage error.

`_VERBS` is the grammar: a verb, then its one positional argument and its
options in any order, each as `--opt value` or `--opt=value` and matched by
its full name only; `--` ends the options and `-h` or `--help` prints help.
It loads no module beyond what the commands need, as each verb run starts a
fresh interpreter.
"""

from __future__ import annotations

import os
import sys
from typing import Optional

from .errors import PreconditionError, SchemaError
from .presets import build_instance, preset_names
from .report import Report
from .schema import Instance, instance_from_json, report_to_json
from .suites import SUITES, InstanceContext, run_suite

_DESCRIPTION = ("Glue a categorical principal bundle from local cocycle data over a "
                "finite covered base and check its laws.")


class UsageError(Exception):
    """A command line that the parser refuses: exit code 2."""


def _emit(text: str, out: Optional[str]) -> None:
    try:
        if not out:
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        if not out:
            # the unwritten text stays buffered: send it to the null device,
            # so that the flush at exit succeeds and prints nothing
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise SchemaError(f"cannot write {repr(out) if out else 'to stdout'}: {exc}") from exc


def _load(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path!r}: {exc}") from exc
    return instance_from_json(text)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _path_len(text: str) -> int:
    n = _int(text)
    if n < 0:
        raise ValueError(f"must be at least 0, got {n}")
    return n


def cmd_generate(preset: str, seed: int, noise: str, out: Optional[str]) -> int:
    from .generation import instance_to_json
    inst = build_instance(preset, seed, noise == "on")
    _emit(instance_to_json(inst), out)
    return 0


def cmd_validate(file: str, out: Optional[str]) -> int:
    ctx = InstanceContext(_load(file))
    rep = Report("validate")
    rep.merge(ctx.peiffer)
    rep.merge(ctx.gerbal)
    _emit(report_to_json(rep), out)
    return 0 if rep.ok else 1


def cmd_check(file: str, suite: str, max_path_len: int, diagnostic: bool,
              out: Optional[str]) -> int:
    rep = run_suite(_load(file), suite, max_path_len)
    if diagnostic:
        for c in sorted(rep.checks, key=lambda c: c.check_id):
            print(f"{c.check_id}: {c.status}", file=sys.stderr)
            if c.status == "fail":
                print(f"  witness: {c.witness}", file=sys.stderr)
    _emit(report_to_json(rep), out)
    return 0 if rep.ok else 1


# verb -> (help line, command, (positional argument, converter), options);
# each option maps to (converter, default). A converter is the tuple of the
# words it accepts, a function of the word that raises ValueError, or None
# for a flag. The command is called with one keyword argument per name.
_VERBS = {
    "generate": ("write a preset instance document", cmd_generate,
                 ("preset", tuple(preset_names())),
                 {"--seed": (_int, 0), "--noise": (("on", "off"), "on"),
                  "--out": (str, None)}),
    "validate": ("structural and basic law validation of a document", cmd_validate,
                 ("file", str), {"--out": (str, None)}),
    "check": ("run a law-check suite on a document", cmd_check, ("file", str),
              {"--suite": (SUITES, "all"), "--max-path-len": (_path_len, 3),
               "--diagnostic": (None, False), "--out": (str, None)}),
}


def _is_option(word: str) -> bool:
    # a lone "-" and a negative number are values
    return len(word) > 1 and word[0] == "-" and not word[1:].isdigit()


def _convert(name: str, convert, word: str):
    if isinstance(convert, tuple):
        if word in convert:
            return word
        raise UsageError(f"argument {name}: invalid choice: {word!r} "
                         f"(choose from {', '.join(map(repr, convert))})")
    try:
        return convert(word)
    except ValueError as exc:
        raise UsageError(f"argument {name}: {exc}") from None


def _parse(argv: list[str]) -> tuple[Optional[str], Optional[dict]]:
    """Return the verb and its command's keyword arguments, or the verb (None
    before one) and None for `-h`; raise UsageError on a refused line."""
    for word in argv:  # help may follow other options before the verb
        if word in ("-h", "--help"):
            return None, None
        if word == "--" or not _is_option(word):
            break
    if not argv:
        raise UsageError("the following arguments are required: command")
    verb = _convert("command", tuple(_VERBS), argv[0])
    _, _, (positional, convert_positional), options = _VERBS[verb]
    fields = {opt: default for opt, (_, default) in options.items()}
    # like unknown options, extra words are refused only after the line is
    # read, so `-h` anywhere after them still prints the help
    extras = []
    only_positional = False
    words = iter(argv[1:])
    for word in words:
        name, eq, value = word.partition("=")
        if only_positional or not _is_option(word):
            if positional in fields:
                extras.append(word)
            else:
                fields[positional] = _convert(positional, convert_positional, word)
        elif word == "--":
            only_positional = True
        elif word in ("-h", "--help"):
            return verb, None
        elif name not in options:
            extras.append(word)
        elif options[name][0] is None:
            if eq:
                raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
            fields[name] = True
        else:
            if not eq:
                value = next(words, "--")
                if _is_option(value):
                    raise UsageError(f"argument {name}: expected one argument")
            fields[name] = _convert(name, options[name][0], value)
    if positional not in fields:
        raise UsageError(f"the following arguments are required: {positional}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return verb, {name.lstrip("-").replace("-", "_"): v for name, v in fields.items()}


def _metavar(name: str, convert) -> str:
    if isinstance(convert, tuple):
        return "{" + ",".join(convert) + "}"
    return name.lstrip("-").replace("-", "_").upper()


def _usage(verb: Optional[str]) -> str:
    if verb is None:
        return "usage: catbundle [-h] {" + ",".join(_VERBS) + "} ..."
    _, _, (positional, convert_positional), options = _VERBS[verb]
    return " ".join([f"usage: catbundle {verb} [-h]", *(
        f"[{opt}]" if convert is None else f"[{opt} {_metavar(opt, convert)}]"
        for opt, (convert, _) in options.items()), _metavar(positional, convert_positional)])


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        verb, fields = _parse(argv)
    except UsageError as exc:
        verb = next((w for w in argv[:1] if w in _VERBS), None)
        print(_usage(verb), f"catbundle: error: {exc}", sep="\n", file=sys.stderr)
        return 2
    try:
        if fields is None:
            about = [_VERBS[verb][0]] if verb else [
                _DESCRIPTION, "", *(f"  {v:<9} {h}" for v, (h, *_) in _VERBS.items())]
            _emit("\n".join([_usage(verb), "", *about, ""]), None)
            return 0
        return _VERBS[verb][1](**fields)
    except (SchemaError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
