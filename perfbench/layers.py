"""Outside-in layer tracing for the catbundle benchmark.

The benchmark installs timing wrappers around public functions and methods of
each catbundle layer, replays the workload's CLI invocations in process
through ``catbundle.cli.main`` (instance_from_json -> run_suite ->
report_to_json), and removes the wrappers afterwards.  Nothing under ``src/``
knows about it.  A wrapped module-level function is replaced in every
catbundle module that imported it by name, so calls through ``from .x import
f`` are seen too.

Every wrapped call is a span.  Spans are aggregated per name into a call
count, inclusive seconds (outermost activation only, so recursion is not
counted twice) and self seconds (duration minus the time its child spans
cover).  Spans of the coarse layers are also kept one by one, with their
parent span and the invocation they belong to; the hot methods, called up to
millions of times, are only aggregated.  All layers run on one thread and
none waits on another, so there is no wait time to record.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

# (module, attribute or Class.method, span name)
SPANS = (
    ("catbundle.bundle", "BundleSpace.__init__", "bundle.space"),
    ("catbundle.bundle", "BundleSpace.mor_equal", "bundle.mor_equal"),
    ("catbundle.bundle", "BundleSpace.edge_endpoints", "bundle.edge_endpoints"),
    ("catbundle.bundle", "BundleSpace.component_of", "bundle.component_of"),
    ("catbundle.bundle", "check_bundle_axioms", "bundle.axioms"),
    ("catbundle.bundle", "LocalTrivialization.check", "bundle.triv"),
    ("catbundle.bundle", "enumerate_base_walks", "bundle.base_walks"),
    ("catbundle.wordalg", "WordOracle.__init__", "wordalg.build"),
    ("catbundle.wordalg", "WordOracle.equal", "wordalg.equal"),
    ("catbundle.wordalg", "check_oracle_agreement", "wordalg.agreement"),
    ("catbundle.wordalg", "check_congruence_invariants", "wordalg.invariants"),
    ("catbundle.gerbal", "derive_tower", "gerbal.tower"),
    ("catbundle.gerbal", "validate_gerbal", "gerbal.validate"),
    ("catbundle.quotient", "build_quotient", "quotient.build"),
    ("catbundle.quotient", "check_classical_cocycle", "quotient.classical"),
    ("catbundle.functorial", "check_theta_functorial", "functorial.check"),
    ("catbundle.functorial", "eval_theta", "functorial.eval_theta"),
    ("catbundle.crossed", "validate_peiffer", "crossed.peiffer"),
    ("catbundle.groups", "validate_group", "groups.validate"),
    ("catbundle.complexes", "enumerate_paths", "complexes.enumerate_paths"),
    ("catbundle.suites", "suite_peiffer", "suites.peiffer"),
    ("catbundle.suites", "suite_gerbal", "suites.gerbal"),
    ("catbundle.suites", "suite_functorial", "suites.functorial"),
    ("catbundle.suites", "suite_naturality", "suites.naturality"),
    ("catbundle.suites", "suite_quotient", "suites.quotient"),
    ("catbundle.suites", "suite_bundle", "suites.bundle"),
    ("catbundle.suites", "suite_oracle", "suites.oracle"),
    ("catbundle.schema", "instance_from_json", "schema.load"),
    ("catbundle.schema", "report_to_json", "schema.report"),
    ("catbundle.presets", "build_instance", "presets.generate"),
)

# Called tens of thousands of times or more: aggregated, never listed.
HOT = frozenset({"bundle.mor_equal", "bundle.edge_endpoints", "bundle.component_of",
                 "wordalg.equal", "functorial.eval_theta", "groups.validate",
                 "complexes.enumerate_paths"})

SWEEP_LENGTHS = (1, 2, 3, 4)
SWEEP_PRESET, SWEEP_SEED = "s3-line5", 5


def _catbundle_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if (n == "catbundle" or n.startswith("catbundle.")) and m is not None]


@contextlib.contextmanager
def patched(wrappers: dict[str, Callable]):
    """Install `wrappers[span](original)` for each span of SPANS named in
    `wrappers`, and restore every original on exit."""
    undo = []
    try:
        for modname, attr, span in SPANS:
            if span not in wrappers:
                continue
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                owners = [(owner, meth)]
            else:
                original = getattr(module, attr)
                owners = [(m, attr) for m in _catbundle_modules()
                          if m.__dict__.get(attr) is original]
            replacement = wrappers[span](original)
            for owner, name in owners:
                setattr(owner, name, replacement)
                undo.append((owner, name, original))
        yield
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


class Tracer:
    """Spans and counters for one traced replay, kept in memory."""

    def __init__(self):
        self.stats: dict[str, list] = {}     # span -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self.spans: list[list] = []           # [name, start, end, parent, invocation]
        self.invocation: Optional[int] = None
        self._frames: list[list] = []         # [child seconds] per open span
        self._open: list[int] = []            # indices of open listed spans
        self._depth: Counter = Counter()
        self._escaped: dict[int, BaseException] = {}

    def wrapper(self, name: str, hook: Optional[Callable] = None) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames, depth, clock = self._frames, self._depth, time.perf_counter
        listed = name not in HOT
        is_suite = name.startswith("suites.")

        def wrap(fn):
            def traced(*args, **kwargs):
                stat[0] += 1
                frame = [0.0]
                frames.append(frame)
                depth[name] += 1
                if listed:
                    idx = len(self.spans)
                    parent = self._open[-1] if self._open else None
                    self.spans.append([name, 0.0, 0.0, parent, self.invocation])
                    self._open.append(idx)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    if is_suite and id(exc) not in self._escaped:
                        self._escaped[id(exc)] = exc
                        self.counts["suites.errors"] += 1
                    raise
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    frames.pop()
                    depth[name] -= 1
                    if not depth[name]:
                        stat[1] += dt
                    stat[2] += dt - frame[0]
                    if frames:
                        frames[-1][0] += dt
                    if listed:
                        self._open.pop()
                        self.spans[idx][1:3] = [t0, t1]
                if hook is not None:
                    hook(self.counts, args, result)
                return result
            return traced
        return wrap

    def wrappers(self) -> dict[str, Callable]:
        return {span: self.wrapper(span, HOOKS.get(span)) for _, _, span in SPANS}

    def calls(self, span: str) -> int:
        return self.stats.get(span, [0, 0.0, 0.0])[0]

    def seconds(self, span: str) -> float:
        return self.stats.get(span, [0, 0.0, 0.0])[1]

    def summary(self) -> dict:
        return {name: {"calls": c, "inclusive_s": i, "self_s": s}
                for name, (c, i, s) in sorted(self.stats.items())}


def _oracle_sizes(counts, args, _result):
    oracle = args[0]
    counts["wordalg.words"] += len(oracle.all_words())
    counts["wordalg.basis_rows"] += sum(len(rows) for rows in oracle.basis.values())


def _report_bytes(counts, _args, result):
    counts["schema.report_bytes"] += len(result.encode("utf-8"))


HOOKS = {"wordalg.build": _oracle_sizes, "schema.report": _report_bytes}


@contextlib.contextmanager
def quiet():
    """Swallow what the CLI prints; reports go to --out files."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield sink


def replay(invocations, paths, scratch: Path, tracer: Optional[Tracer] = None):
    """Run each invocation through `catbundle.cli.main` in this process.

    Returns the wall seconds of the whole replay and, per invocation,
    (exit code or None, report bytes, captured output).  An exception that
    escapes `main` is recorded as a traceback, as the CLI would print one.
    """
    from catbundle import cli
    results = []
    t0 = time.perf_counter()
    for n, (inv, path) in enumerate(zip(invocations, paths)):
        out = scratch / f"inproc-{n}.json"
        if out.exists():
            out.unlink()
        if tracer is not None:
            tracer.invocation = n
        with quiet() as sink:
            try:
                code = cli.main(inv.argv(str(path)) + ["--out", str(out)])
            except Exception:
                code = None
                traceback.print_exc(file=sink)
        data = out.read_bytes() if out.exists() else b""
        results.append((code, data, sink.getvalue()))
    return time.perf_counter() - t0, results


def sweep(doc: Path, scratch: Path) -> dict:
    """Count-only sweep of the bundle suite over --max-path-len on one
    fixed document: walks enumerated, mor_equal and edge_endpoints calls and
    distinct equality classes reached.  No clock is read, so the counts are
    exact and repeat from run to run."""
    from catbundle import cli
    out = {}
    for max_len in SWEEP_LENGTHS:
        counts: Counter = Counter()
        classes: set = set()
        spaces: list = []       # keeps each space alive so its id is not reused

        def count(name, sized=False):
            def wrap(fn):
                def counted(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    counts[name] += len(result) if sized else 1
                    return result
                return counted
            return wrap

        def classes_of(fn):
            def counted(space, state):
                result = fn(space, state)
                if not spaces or spaces[-1] is not space:
                    spaces.append(space)
                classes.add((id(space), result))
                return result
            return counted

        wrappers = {"bundle.mor_equal": count("mor_equal_calls"),
                    "bundle.edge_endpoints": count("edge_endpoints_calls"),
                    "bundle.component_of": classes_of,
                    "bundle.base_walks": count("walks", sized=True),
                    "complexes.enumerate_paths": count("walks", sized=True)}
        target = scratch / f"sweep-{max_len}.json"
        with patched(wrappers), quiet():
            code = cli.main(["check", str(doc), "--suite", "bundle",
                             "--max-path-len", str(max_len), "--out", str(target)])
        out[max_len] = {"exit": code, "walks": counts["walks"],
                        "mor_equal_calls": counts["mor_equal_calls"],
                        "edge_endpoints_calls": counts["edge_endpoints_calls"],
                        "classes": len(classes)}
    return out
