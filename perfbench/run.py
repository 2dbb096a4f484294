"""The catbundle benchmark: time to a checked verdict, end to end and by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 20 --trace 0

With ``--trace 0`` every invocation of the workload runs in a fresh child
process, one at a time: a closed loop with a single client.  The child runs
what ``python -m catbundle ...`` runs, with ``src/`` on the path, plus an exit
hook that records its peak RSS.  The run makes a fixed number of passes over
all invocations, about ``--seconds`` worth and at least two, so that every
report can be compared byte for byte with its rerun.  Each pass gives its
children another string hash seed; all seeds come from ``--seed``, so the same
arguments make the same inputs and reach the same verdicts.

The benchmark and its children share one core, and it reads that core's
speed around and during each child: a bare interpreter start before and after
the child, and a fixed pure-Python task four times a second while it runs.
Each reading is its time over the time it takes on a quiet core, and each
child's times are divided by the mean of its readings: the shared host slows
a core by up to 2x for seconds to minutes at a time, and the scaled times read
as seconds on a quiet core.  An invocation's time is the median of its scaled times over the
passes.  Raw times are kept in the result file.

With ``--trace 1`` the same invocations are replayed in this process through
``catbundle.cli.main``, first untraced and then with the layer wrappers of
``layers.py`` installed, followed by a count-only sweep over
``--max-path-len``.  End-to-end numbers never come from a traced run.

Every verdict is checked against a known answer (see ``judge``).  Results,
report digests and the environment go to ``perfbench/results/``; the last
line of standard output is one JSON object with the metrics named in
``BENCHMARK.json``.  See ``perfbench/METRICS.md`` for what each metric is
expected to show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS, Invocation, mutate, plan_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
MIN_PASSES = 2
PROBE_REPEATS = 3       # runs of the probe task per reading
SAMPLE_S = 0.25         # how often the probe is read while a child runs
# What `probe` and `spawn_probe` take on a quiet core of the machine the
# benchmark was written on (2 vCPUs of a shared host, Python 3.11).
PROBE_REF_S = 0.0020
SPAWN_REF_S = 0.009
CHILD_TIMEOUT_S = 150.0
# `python -m catbundle`, plus an exit hook that writes the child's own peak
# RSS (VmHWM) to $PERFBENCH_HWM.  ru_maxrss cannot serve: Linux counts the
# launching process's RSS at exec into a child's ru_maxrss.
CHILD_MAIN = """\
import atexit, os, runpy
def _peak():
    with open("/proc/self/status") as status:
        kb = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    with open(os.environ["PERFBENCH_HWM"], "w") as out:
        out.write(kb[0] if kb else "")
atexit.register(_peak)
runpy.run_module("catbundle", run_name="__main__", alter_sys=True)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def hash_seeds(seed: int, n: int) -> list[str]:
    """`n` string hash seeds drawn from the workload seed: the first for the
    benchmark process itself, the rest one per pass."""
    rng = random.Random(f"catbundle-bench:hash:{seed}")
    return [str(rng.randrange(1, 2**32 - 1)) for _ in range(n)]


def probe_task() -> None:
    """A few milliseconds of the interpreter work catbundle does: tuples,
    frozensets, dict lookups and lists."""
    els = [(i % 7, i % 5) for i in range(60)]
    seen, by_end = {}, {}
    for x in els:
        for y in els:
            z = (x[1], y[0]) if x[0] == y[1] else (y[1], x[0])
            key = frozenset((x, z))
            seen[key] = seen.get(key, 0) + 1
            by_end.setdefault(z, []).append(x)
    sorted(seen.values())


def probe() -> float:
    """How slow the core runs interpreter work now, 1.0 on a quiet core: the
    fastest of a few runs of `probe_task`, in CPU seconds of this thread so
    that a child running on the same core in between does not count."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.thread_time()
        probe_task()
        times.append(time.thread_time() - t0)
    return min(times) / PROBE_REF_S


def spawn_probe() -> float:
    """How slow the core starts an interpreter now, 1.0 on a quiet core.  A
    short child spends most of its time starting up, which a slow phase
    slows less than it slows `probe_task`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True,
                   stdin=subprocess.DEVNULL)
    return (time.perf_counter() - t0) / SPAWN_REF_S


def scale(readings: list[float]) -> float:
    """Factor that turns a time measured while `readings` were taken into
    seconds on a quiet core."""
    return 1.0 / statistics.mean(readings)


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PERFBENCH_HWM"] = str(work / "peak_rss.txt")
    return env


def run_child(args: list[str], log: Path, env: dict):
    """Run `python <args>` from the checkout root.  Return (exit code, wall
    seconds, resource usage of that child alone, speed readings: a spawn
    probe before and after the child, and a probe every SAMPLE_S while it
    runs)."""
    probes = [spawn_probe()]
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=fh, stderr=fh)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.poll()
            exited.register(pidfd, select.POLLIN)
            while not exited.poll(SAMPLE_S * 1000):
                if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                    proc.kill()
                probes.append(probe())
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
    probes.append(spawn_probe())
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, probes


def catbundle(argv: list[str], log: Path, env: dict):
    """Run the catbundle CLI in a child; return (exit code, wall seconds,
    resource usage, peak RSS in KiB or None if the child died before its
    exit hook ran, scale factor for its times)."""
    peak = Path(env["PERFBENCH_HWM"])
    if peak.exists():
        peak.unlink()
    code, wall, usage, probes = run_child(["-c", CHILD_MAIN, *argv], log, env)
    try:
        kib = int(peak.read_text())
    except (OSError, ValueError):
        kib = None
    return code, wall, usage, kib, scale(probes)


# ----- set-up ----------------------------------------------------------------

def set_up(plan, work: Path, env: dict) -> tuple[dict, float, float]:
    """Generate every document of the plan with `catbundle generate` and
    write the mutants.  Returns {document name: description} and the raw
    and the scaled seconds it took."""
    from catbundle.schema import canonical_json
    made, raw, scaled = {}, 0.0, 0.0
    for doc in plan.docs:
        path = work / doc.file
        if doc.base is None:
            code, took, _, _, factor = catbundle(
                ["generate", doc.preset, "--seed", str(doc.seed), "--out", str(path)],
                work / "generate.log", env)
            if code != 0:
                raise BenchError(f"catbundle generate {doc.preset} --seed {doc.seed} "
                                 f"exited {code}; see {work / 'generate.log'}")
            made[doc.name] = f"{doc.preset} --seed {doc.seed}"
        else:
            before = probe()
            t0 = time.perf_counter()
            base = json.loads((work / f"{doc.base}.json").read_text(encoding="utf-8"))
            mutant, edit = mutate(base, doc.kind, doc.draw)
            path.write_text(canonical_json(mutant), encoding="utf-8")
            took = time.perf_counter() - t0
            factor = scale([before, probe()])
            made[doc.name] = f"{doc.base} with {edit}"
        raw += took
        scaled += took * factor
    return made, raw, scaled


# ----- verdicts ---------------------------------------------------------------

def judge(inv: Invocation, code, data: bytes, output: str):
    """Check one invocation against its known answer.

    Returns (failure reason or None, whether the failure breaks the
    documented CLI contract).  Contract breaks are: a traceback, an exit code
    other than 0/1/2, a report that disagrees with the exit code, a clean
    document that does not pass, and a one-cell edit passed by `validate` or
    `peiffer`, the two commands documented to check those laws.  The other
    suites have no structural gate yet (roadmap item 4): on an edited
    document they run on tables that are not groups, and a pass or a
    traceback there counts as failed but leaves the run correct.
    """
    gated = inv.expect == "pass" or inv.law_checker
    if code is None or "Traceback (most recent call last)" in output:
        return "traceback", gated
    if code not in (0, 1, 2):
        return f"exit code {code}", True
    if code in (0, 1):
        try:
            status = json.loads(data)["status"]
        except (ValueError, KeyError, TypeError):
            return f"exit {code} without a readable report", True
        if status != ("pass" if code == 0 else "fail"):
            return f"exit {code} with report status {status!r}", True
    if inv.expect == "pass" and code != 0:
        return f"clean document rejected with exit {code}", True
    if inv.expect == "reject" and code == 0:
        return "one-cell law break passed", gated
    return None, False


def verdicts(data: bytes):
    """A report without its witness strings: the suite, status and the
    status of each check."""
    try:
        report = json.loads(data)
        for check in report["checks"]:
            check.pop("witness", None)
        return report
    except (ValueError, KeyError, TypeError, AttributeError):
        return data


def rerun_difference(first, again):
    """Classify a rerun whose exit code or report bytes differ from the
    first run.  Both count as failed.  Only a changed verdict breaks the
    contract; a witness string that changes while every check keeps its
    status is the known defect of witnesses on law-broken documents."""
    if first[0] == again[0] and verdicts(first[1]) == verdicts(again[1]):
        return "witness text differs from the first run", False
    return "report differs from the first run", True


def check_count(data: bytes) -> int:
    try:
        return len(json.loads(data)["checks"])
    except (ValueError, KeyError, TypeError):
        return 0


# ----- environment ------------------------------------------------------------

def environment(seed: int, docs: dict) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src.update(path.read_bytes() + b"\0")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_revision": rev,
        "src_sha256": src.hexdigest(),
        "workload_seed": seed,
        "document_bytes": {name: len(data) for name, data in docs.items()},
    }


# ----- timed passes (trace 0) ------------------------------------------------------

def timed_pass(plan, work: Path, env: dict) -> dict:
    rows, rss, results = [], 0, []
    log = work / "child.log"
    t0 = time.perf_counter()
    for inv in plan.invocations:
        out = work / "report.json"
        if out.exists():
            out.unlink()
        code, wall, usage, kib, factor = catbundle(
            inv.argv(str(work / f"{inv.doc}.json")) + ["--out", str(out)], log, env)
        rows.append({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                     "scale": factor})
        rss = max(rss, usage.ru_maxrss if kib is None else kib)
        results.append((code, out.read_bytes() if out.exists() else b"",
                        log.read_text(encoding="utf-8", errors="replace")))
    return {"raw_pass_s": time.perf_counter() - t0, "invocations": rows,
            "peak_rss_mb": rss / 1024.0, "results": results}


def pass_count(plan, seconds: int) -> int:
    """Fixed by the arguments alone, so every run of a seed attempts the
    same invocations."""
    return max(MIN_PASSES, math.ceil(seconds / plan.pass_s))


def measure(plan, work: Path, env: dict, seeds: list[str]) -> list:
    return [timed_pass(plan, work, dict(env, PYTHONHASHSEED=h)) for h in seeds]


def end_to_end(passes: list, checks: int) -> tuple[dict, list]:
    """Each invocation's time is the median over passes of its scaled wall
    (or CPU) time; the pass-level metrics are built from those."""
    per_inv = list(zip(*(p["invocations"] for p in passes)))
    verdict = [statistics.median(r["wall_s"] * r["scale"] for r in rs) for rs in per_inv]
    cpu = [statistics.median(r["cpu_s"] * r["scale"] for r in rs) for rs in per_inv]
    wall = sum(verdict)
    return {
        "wall_s": wall,
        "verdict_s.p50": statistics.median(verdict),
        "verdict_s.max": max(verdict),
        "checks_per_s": checks / wall,
        "cpu_s": sum(cpu),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }, verdict


def score(plan, runs) -> tuple[list, list]:
    """Judge every invocation of every run; a rerun whose exit code or report
    bytes differ from the first run fails as well.  Each run is a list of
    (exit code, report bytes, output) per invocation.  Returns
    (per-invocation records of the first run, failures)."""
    failures = []
    for p, run in enumerate(runs):
        for inv, first, (code, data, output) in zip(plan.invocations, runs[0], run):
            reason, contract = judge(inv, code, data, output)
            if (code, data) != first[:2]:
                why, broken = rerun_difference(first, (code, data))
                reason = why if reason is None else f"{reason}; {why}"
                contract = contract or broken
            if reason is not None:
                failures.append({"run": p, "invocation": inv.label,
                                 "reason": reason, "breaks_contract": contract})
    records = [{"invocation": inv.label, "expect": inv.expect, "exit": code,
                "checks": check_count(data),
                "report_sha256": hashlib.sha256(data).hexdigest()}
               for inv, (code, data, _) in zip(plan.invocations, runs[0])]
    return records, failures


# ----- traced replay (trace 1) ------------------------------------------------------

def startup_seconds(work: Path, env: dict) -> float:
    times = []
    for _ in range(STARTUP_REPEATS):
        code, wall, _, _ = run_child(["-c", "import catbundle.cli"], work / "startup.log",
                                     env)
        if code != 0:
            raise BenchError(f"importing catbundle.cli exited {code}")
        times.append(wall)
    return statistics.median(times)


def traced(plan, work: Path, env: dict, docs: dict) -> dict:
    startup = startup_seconds(work, env)
    from catbundle import cli

    paths = [work / f"{inv.doc}.json" for inv in plan.invocations]
    plain_s, plain = layers.replay(plan.invocations, paths, work)
    tracer = layers.Tracer()
    with layers.patched(tracer.wrappers()):
        traced_s, with_trace = layers.replay(plan.invocations, paths, work, tracer)
        regenerated = {}
        for doc in plan.docs:
            if doc.base is None:
                out = work / f"regen-{doc.file}"
                with layers.quiet():
                    cli.main(["generate", doc.preset, "--seed", str(doc.seed),
                              "--out", str(out)])
                regenerated[doc.name] = out.read_bytes()

    sweep_doc = work / "sweep-doc.json"
    with layers.quiet():
        cli.main(["generate", layers.SWEEP_PRESET, "--seed", str(layers.SWEEP_SEED),
                  "--out", str(sweep_doc)])
    sweep = layers.sweep(sweep_doc, work)

    extra = []
    for name, data in regenerated.items():
        if data != docs[name]:
            extra.append({"run": 1, "invocation": f"{name} generate",
                          "breaks_contract": True,
                          "reason": "in-process generate differs from the CLI"})
    for max_len, row in sweep.items():
        if row["exit"] != 0:
            extra.append({"run": 1, "invocation": f"sweep bundle@{max_len}",
                          "breaks_contract": True,
                          "reason": f"sweep exited {row['exit']}"})

    mor_equal = tracer.calls("bundle.mor_equal")
    endpoints = tracer.calls("bundle.edge_endpoints")
    values = {
        "bundle.endpoints_per_equal": endpoints / mor_equal if mor_equal else 0.0,
        "cli.startup_s": startup,
        "trace.overhead_share": traced_s / plain_s - 1.0,
    }
    for key in ("wordalg.words", "wordalg.basis_rows", "suites.errors",
                "schema.report_bytes"):
        values[key] = tracer.counts[key]
    for max_len, row in sweep.items():
        for key in ("walks", "mor_equal_calls", "edge_endpoints_calls", "classes"):
            values[f"sweep.len{max_len}.{key}"] = row[key]
    return {
        "values": values,
        "tracer": tracer,
        "runs": [plain, with_trace],
        "plain_s": plain_s,
        "traced_s": traced_s,
        "sweep": sweep,
        "bases": {"bundle.endpoints_per_equal": {"edge_endpoints_calls": endpoints,
                                                 "mor_equal_calls": mor_equal}},
        "extra_failures": extra,
    }


def layer_value(name: str, tracer: layers.Tracer, values: dict):
    """`<span>_calls` and `<span>_s` come from the tracer; every other
    per-layer metric is computed by name in `traced`."""
    if name in values:
        return values[name]
    span, _, what = name.rpartition("_")
    if what == "calls":
        return tracer.calls(span)
    if what == "s":
        return tracer.seconds(span)
    raise BenchError(f"per-layer metric {name!r} is not produced")


# ----- main -------------------------------------------------------------------------

def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "catbundle" / "cli.py").is_file():
        raise BenchError(f"no catbundle sources under {SRC}; run from a source checkout")
    plan = plan_for(args.workload, args.seed)
    own_hash, *pass_hashes = hash_seeds(args.seed, 1 + pass_count(plan, args.seconds))
    if os.environ.get("PYTHONHASHSEED") != own_hash:
        # Restart under the seed's own hash seed, so that in-process replays
        # and the documents made here do not depend on a random one.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=own_hash))
    # One core for the benchmark and its children, so the probe measures the
    # core the children run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    work = BENCH / "work" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(work)

    setups, made, docs = [], {}, None
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        made, raw, scaled = set_up(plan, work, env)
        setups.append({"raw_s": raw, "scaled_s": scaled})
        again = {doc.name: (work / doc.file).read_bytes() for doc in plan.docs}
        if docs is not None and again != docs:
            raise BenchError("generate wrote different bytes for the same preset and seed")
        docs = again

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(args.seed, docs), "documents": made,
              "load": "closed loop, one client: one catbundle child at a time; every "
                      "layer is single-threaded and none waits on another, so no "
                      "wait time is recorded"}
    if args.trace == 0:
        passes = measure(plan, work, env, pass_hashes)
        records, failures = score(plan, [p["results"] for p in passes])
        values, verdict = end_to_end(passes, sum(r["checks"] for r in records))
        values["setup_s"] = statistics.median(s["scaled_s"] for s in setups)
        attempted = len(plan.invocations) * len(passes)
        kind = "end_to_end"
        result.update(
            verdict_s=dict(zip((inv.label for inv in plan.invocations), verdict)),
            passes=[{"pythonhashseed": h, "raw_pass_s": p["raw_pass_s"],
                     "peak_rss_mb": p["peak_rss_mb"], "invocations": p["invocations"]}
                    for h, p in zip(pass_hashes, passes)],
            setup=setups, probe_ref_s=PROBE_REF_S, spawn_ref_s=SPAWN_REF_S)
        first = passes[0]["results"]
    else:
        run = traced(plan, work, env, docs)
        records, failures = score(plan, run["runs"])
        failures += run["extra_failures"]
        attempted = len(plan.invocations)
        kind = "per_layer"
        values = {m["name"]: layer_value(m["name"], run["tracer"], run["values"])
                  for m in spec["per_layer"]}
        result.update(spans=run["tracer"].summary(), span_list=run["tracer"].spans,
                      sweep=run["sweep"], bases=run["bases"],
                      replay_s={"untraced": run["plain_s"], "traced": run["traced_s"]})
        first = run["runs"][0]

    failed_runs = {(f["run"], f["invocation"]) for f in failures}
    failed = len({inv for _, inv in failed_runs}) if args.trace else len(failed_runs)
    if kind == "end_to_end":
        values["verdict_ok_share"] = 1.0 - failed / attempted
    names = [m["name"] for m in spec[kind]]
    if set(values) - set(names) or set(names) - set(values):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {names}")
    units = {m["name"]: m["unit"] for m in spec[kind]}
    correct = not any(f["breaks_contract"] for f in failures)

    result.update(correct=correct, attempted=attempted, failed=failed,
                  failures=failures, invocations=records,
                  report_digest_sha256=hashlib.sha256(
                      b"".join(data for _, data, _ in first)).hexdigest(),
                  report_checks=sum(r["checks"] for r in records), metrics=values)
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")

    n = len(plan.invocations)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"invocations/pass {n}  failed {failed} of {attempted} "
          f"(failed_share {failed / attempted:.4f})  correct {correct}")
    for name in names:
        note = f"  (n={n})" if name.startswith("verdict_s.") else ""
        print(f"  {name:<40} {values[name]:>14.6g} {units[name]}{note}")
    print(f"  report digest {result['report_digest_sha256']}  "
          f"checks {result['report_checks']}  -> {out_file.relative_to(ROOT)}")
    for f in failures:
        print(f"  failed: run {f['run']} {f['invocation']}: {f['reason']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]}
                                  for k in names}}))
    return 0


if __name__ == "__main__":
    # SIGTERM becomes SystemExit, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
