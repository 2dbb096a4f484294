"""Workload definitions for the catbundle benchmark.

A workload is a list of documents to produce and a list of CLI invocations on
them, each with the verdict it must reach.  Everything is a pure function of
the workload seed: preset seeds and mutation cells are drawn from
``random.Random`` seeded with a string, which is stable across processes and
interpreter runs.  The program only ever sees the generated files.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Optional

# Suites run on each refute document.  The last one depends on the base:
# `bundle` needs zero-length edges, `oracle` a directed base without them.
LIGHT_SUITES = ("peiffer", "gerbal", "functorial", "naturality", "quotient")

# One-cell edits.  A changed group cell breaks the Latin-square property, a
# changed homomorphism or action cell breaks its law on any group of order at
# least 3, so every edit below yields a document whose laws fail.
KINDS = ("groups.mul", "groups.inv", "homs.map", "actions.map")

# Commands documented to check group, homomorphism and action laws: a mutant
# they pass is a broken contract.  The other suites gain that duty only with
# the structural gate the roadmap asks for, so a mutant they pass or crash on
# is a verdict miss (counted as failed) but not a broken contract.
LAW_CHECKERS = frozenset({"validate", "peiffer"})


@dataclass(frozen=True)
class Doc:
    """One document of a workload: generated from a preset, or a one-cell
    edit of another document of the same workload."""
    name: str
    preset: str
    seed: int
    base: Optional[str] = None      # name of the document this one edits
    kind: Optional[str] = None      # one of KINDS for a mutant
    draw: Optional[str] = None      # seed string for choosing the cell

    @property
    def file(self) -> str:
        return self.name + ".json"


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `catbundle <verb> <doc> [--suite S --max-path-len L]`."""
    doc: str
    verb: str                       # "validate" or "check"
    suite: Optional[str] = None
    max_len: Optional[int] = None
    expect: str = "pass"            # "pass": exit 0; "reject": exit 1 or 2

    def argv(self, path: str) -> list[str]:
        if self.verb == "validate":
            return ["validate", path]
        return ["check", path, "--suite", self.suite,
                "--max-path-len", str(self.max_len)]

    @property
    def label(self) -> str:
        if self.verb == "validate":
            return f"{self.doc} validate"
        return f"{self.doc} {self.suite}@{self.max_len}"

    @property
    def law_checker(self) -> bool:
        return (self.suite or self.verb) in LAW_CHECKERS


@dataclass(frozen=True)
class Plan:
    docs: tuple[Doc, ...]
    invocations: tuple[Invocation, ...]
    pass_s: float                   # rough seconds of one pass, sets the pass count


def _seeds(rng: random.Random, n: int) -> list[int]:
    return rng.sample(range(1, 1_000_000), n)


def closure_plan(rng: random.Random) -> Plan:
    """`check --suite all` on the bases with zero-length edges, at the bounds
    where each base spends most of its time in bundle equality."""
    bases = (("s3-line5", 3), ("s3-line5w", 2), ("s4-line5w", 2),
             ("cycle6-trivial", 4))
    docs, invs = [], []
    for (preset, max_len), seed in zip(bases, _seeds(rng, len(bases))):
        doc = Doc(f"{preset}-{seed}", preset, seed)
        docs.append(doc)
        invs.append(Invocation(doc.name, "check", "all", max_len))
    return Plan(tuple(docs), tuple(invs), pass_s=25.0)


def oracle_plan(rng: random.Random) -> Plan:
    """`check --suite all` on ten directed documents: the only workload that
    runs the word oracle."""
    docs = [Doc(f"oracle-dirline3-{seed}", "oracle-dirline3", seed)
            for seed in _seeds(rng, 10)]
    invs = [Invocation(d.name, "check", "all", 3) for d in docs]
    return Plan(tuple(docs), tuple(invs), pass_s=10.0)


def refute_plan(rng: random.Random) -> Plan:
    """Each base document, clean and with two one-cell edits, through
    `validate` and each applicable suite on its own at --max-path-len 2.

    Edit kinds are fixed by position, so the mix of kinds is the same for
    every seed; the seed picks the table, the cell and the new value.  The
    clean documents are controls: they must pass everywhere.  `s3-line5w`
    and `s4-line5w` are left out: a gate miss there runs a 4 s or 15 s bundle
    battery, so whether the seed's edits happen to slip past a gate would
    swing the pass time by a quarter or more.  The misses still show on the
    other bases.
    """
    bases = ("s3-line5", "cycle6-trivial", "oracle-dirline3")
    docs, invs = [], []
    for b, (preset, seed) in enumerate(zip(bases, _seeds(rng, len(bases)))):
        last = "oracle" if preset == "oracle-dirline3" else "bundle"
        clean = Doc(f"{preset}-{seed}", preset, seed)
        group = [clean] + [
            Doc(f"{clean.name}-mut{k}", preset, seed, base=clean.name,
                kind=KINDS[(b + 2 * k) % len(KINDS)], draw=f"{rng.random():.17g}")
            for k in range(2)]
        for doc in group:
            expect = "pass" if doc.base is None else "reject"
            invs.append(Invocation(doc.name, "validate", expect=expect))
            for suite in LIGHT_SUITES + (last,):
                invs.append(Invocation(doc.name, "check", suite, 2, expect))
        docs += group
    return Plan(tuple(docs), tuple(invs), pass_s=12.0)


WORKLOADS = {"closure": closure_plan, "oracle": oracle_plan, "refute": refute_plan}


def plan_for(workload: str, seed: int) -> Plan:
    return WORKLOADS[workload](random.Random(f"catbundle-bench:{workload}:{seed}"))


def mutate(doc: dict, kind: str, draw: str) -> tuple[dict, str]:
    """Return a copy of `doc` with one cell of a `kind` table changed, and a
    description of the edit.  The choice depends only on `draw` and `doc`."""
    rng = random.Random(draw)
    out = copy.deepcopy(doc)
    groups = out["groups"]

    def other(old: str, pool: list) -> str:
        return rng.choice(sorted(x for x in pool if x != old))

    if kind in ("groups.mul", "groups.inv"):
        name = rng.choice(sorted(groups))
        grp = groups[name]
        els = sorted(grp["elements"])
        a = rng.choice(els)
        if kind == "groups.mul":
            b = rng.choice(els)
            old = grp["mul"][a][b]
            grp["mul"][a][b] = other(old, els)
            return out, f"groups.{name}.mul.{a}.{b}: {old} -> {grp['mul'][a][b]}"
        old = grp["inv"][a]
        grp["inv"][a] = other(old, els)
        return out, f"groups.{name}.inv.{a}: {old} -> {grp['inv'][a]}"
    if kind == "homs.map":
        name = rng.choice(sorted(out["homs"]))
        table = out["homs"][name]
        a = rng.choice(sorted(table["map"]))
        old = table["map"][a]
        table["map"][a] = other(old, groups[table["codomain"]]["elements"])
        return out, f"homs.{name}.map.{a}: {old} -> {table['map'][a]}"
    if kind == "actions.map":
        name = rng.choice(sorted(out["actions"]))
        table = out["actions"][name]
        g = rng.choice(sorted(table["map"]))
        h = rng.choice(sorted(table["map"][g]))
        old = table["map"][g][h]
        table["map"][g][h] = other(old, groups[table["space"]]["elements"])
        return out, f"actions.{name}.map.{g}.{h}: {old} -> {table['map'][g][h]}"
    raise ValueError(f"unknown mutation kind {kind!r}")

