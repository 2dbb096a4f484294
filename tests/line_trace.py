"""Every executable line of src/catbundle runs in tier-1, or it is listed here.

Run from the repository root:

    PYTHONPATH=src python tests/line_trace.py

It runs the tier-1 suite in this process under a `sys.settrace` line tracer
(standard library only, no coverage package) and lists each executable line
of `src/catbundle` that no test ran. A line is executable when a code object
compiled from the file names it in `co_lines()`; docstrings are left out, and
comments and blank lines name no code. A frame whose code object's lines
have all run is not line-traced. The run takes about five times as long as
tier-1 alone, so it is a CI job of its own.

The script exits 1 when tier-1 fails, when a line that did not run is missing
from ALLOWED, or when an ALLOWED line ran, so the list shrinks as tests grow.
An entry names its line by (file, enclosing function, stripped source text),
never by number, so an edit elsewhere in the file does not move it. Line
tables differ between interpreter versions; the list is kept for CPython 3.11.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "catbundle"

_OUTSIDE = "runs only in a child process or a type checker, never in the traced one"
_INVARIANT = "an InternalInvariantError: construction guarantees the law it guards"

# (file, enclosing function, stripped source text, reason)
ALLOWED = (
    ("__main__.py", "<module>", "run()", _OUTSIDE),
    ("suites.py", "<module>", "from .bundle import BundleSpace", _OUTSIDE),
    ("suites.py", "<module>", "from .quotient import QuotientCatGroup", _OUTSIDE),
    ("generation.py", "generate_gerbal", "raise InternalInvariantError(", _INVARIANT),
    ("generation.py", "generate_gerbal",
     "f\"discrepancy {d!r} at ({i},{k},{m},{u}) has no tau' preimage\"", _INVARIANT),
    ("wordalg.py", "WordOracle._generators", "except KeyError as exc:", _INVARIANT),
    ("wordalg.py", "WordOracle._generators", "raise InternalInvariantError(", _INVARIANT),
    ("wordalg.py", "WordOracle._generators",
     'f"rewrite produced a word outside the inventory: {exc}") from exc', _INVARIANT),
)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def executable_lines(path: Path) -> dict[int, str]:
    """{line: qualified name of the innermost code object that runs it}."""
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    owner: dict[int, tuple[int, str]] = {}  # line -> (depth, qualname)
    todo = [(compile(source, str(path), "exec"), 0)]
    while todo:
        code, depth = todo.pop()
        for _start, _end, line in code.co_lines():
            if line and line not in skip and owner.get(line, (-1,))[0] < depth:
                owner[line] = (depth, code.co_qualname)
        todo.extend((c, depth + 1) for c in code.co_consts if isinstance(c, CodeType))
    return {line: name for line, (_depth, name) in owner.items()}


class LineTracer:
    """Records the lines of the package's files that run; stops tracing a
    code object once each of its lines has run."""

    def __init__(self, files: dict[str, dict[int, str]]):
        self.files = files
        self.seen: dict[str, set[int]] = {f: set() for f in files}
        self.pending: dict[CodeType, set[int]] = {}

    def _pending(self, code: CodeType):
        todo = self.pending.get(code)
        if todo is None:
            lines = self.files.get(code.co_filename)
            if lines is None:
                todo = set()
            else:
                todo = {ln for _s, _e, ln in code.co_lines() if ln in lines}
                todo -= self.seen[code.co_filename]
            self.pending[code] = todo
        return todo

    def on_call(self, frame, event, arg):
        todo = self._pending(frame.f_code)
        if not todo:
            return None
        seen = self.seen[frame.f_code.co_filename]

        def on_line(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                seen.add(line)
                todo.discard(line)
                if not todo:
                    return None
            return on_line
        return on_line


def main() -> int:
    import pytest

    files = {str(p): executable_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    tracer = LineTracer(files)
    sys.settrace(tracer.on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    allowed = {entry[:3]: entry[3] for entry in ALLOWED}
    unrun: dict[tuple[str, str, str], list[int]] = {}
    total = 0
    for path, lines in files.items():
        source = Path(path).read_text().splitlines()
        total += len(lines)
        for line in sorted(set(lines) - tracer.seen[path]):
            key = (Path(path).name, lines[line], source[line - 1].strip())
            unrun.setdefault(key, []).append(line)
    missing = sorted(k for k in unrun if k not in allowed)
    stale = sorted(k for k in allowed if k not in unrun)
    print(f"\n{total} executable lines in {len(files)} files; {sum(map(len, unrun.values()))} "
          f"did not run, {len(allowed)} allowed entries")
    for name, func, text in missing:
        lines = ", ".join(map(str, unrun[name, func, text]))
        print(f"unrun and not allowed: {name}:{lines} in {func}: {text}")
    for name, func, text in stale:
        print(f"allowed but ran: {name} in {func}: {text}")
    if code != 0:
        print(f"tier-1 exited {int(code)}")
    return int(bool(code or missing or stale))


if __name__ == "__main__":
    sys.exit(main())
