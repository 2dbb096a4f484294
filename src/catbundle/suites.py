"""Named law-check suites over a loaded instance.

Each suite returns a Report whose serialized form is a pure function of the
instance. Structural problems (malformed tables, missing entries) raise
SchemaError; broken laws come back as failed checks with witnesses. A suite
that reads an earlier battery's data reports that battery's failed checks
instead of running its own laws on broken data: `gerbal` and `quotient` gate
on `peiffer`, `functorial` and `naturality` on `peiffer` and `gerbal`, and
`bundle` and `oracle` on the glued space's preconditions. The quotient is
built only behind `peiffer`, where its structure cannot fail, so it records
no rows of its own.

A run reads every stage of the construction from one InstanceContext, which
builds each stage on first use and only once: a single suite builds just the
stages it reads, and the `all` report is the concatenation of the reports of
the single suites that apply to the base, each check id listed once. The
`peiffer` report is the chain's own, computed once. The quotient and the
classical cocycle on it are separate stages, and neither runs when `peiffer`
fails.

Each stage and suite imports its layer on first use: the transition functors
(`functorial`), the coset quotient (`quotient`), the glued space (`bundle`),
its law battery (`battery`) and the word oracle (`wordalg`). So a single
suite loads only the layers it reads: `peiffer`, `gerbal` and `validate` none
of them, a gated `functorial` or `naturality` no transition functors, a gated
`bundle` or `oracle` no space, and a `quotient`, `bundle` or `oracle` suite
on a chain that fails `peiffer` neither the quotient nor the transition
functors. `all` loads the space with every layer, also those its base skips,
and the battery only on bases that run `bundle`: the benchmark's layer tracer
wraps each layer module after replaying `all` in process.
"""

from __future__ import annotations

from functools import cached_property
from importlib import import_module
from typing import TYPE_CHECKING, Optional

from .errors import PreconditionError, SchemaError
from .gerbal import check_second_gerbe, validate_gerbal
from .report import Report
from .schema import Instance

if TYPE_CHECKING:
    from .bundle import BundleSpace
    from .quotient import QuotientCatGroup

SUITES = ("peiffer", "gerbal", "functorial", "naturality", "quotient",
          "bundle", "oracle", "all")
LAYERS = ("functorial", "quotient", "bundle", "wordalg")


class InstanceContext:
    """The stages of the construction over one instance at one walk bound."""

    def __init__(self, inst: Instance, max_len: int = 3):
        self.inst = inst
        self.max_len = max_len

    @property
    def peiffer(self) -> Report:
        return self.inst.chain.peiffer

    @cached_property
    def gerbal(self) -> Report:
        rep = Report("gerbal")
        rep.merge(validate_gerbal(self.inst.gc))
        rep.merge(check_second_gerbe(self.inst.gc))
        return rep

    @cached_property
    def quotient(self) -> Optional[QuotientCatGroup]:
        """The coset quotient, or None when `peiffer` fails."""
        if not self.peiffer.ok:
            return None
        from .quotient import build_quotient
        return build_quotient(self.inst.chain)

    @cached_property
    def classical(self) -> Report:
        """The classical-cocycle check on the quotient, empty when `peiffer`
        fails."""
        if self.quotient is None:
            return Report("classical")
        from .quotient import check_classical_cocycle
        return check_classical_cocycle(self.inst.gc, self.quotient)

    @cached_property
    def space(self) -> tuple[Optional[BundleSpace], Report]:
        """The glued bundle, or None when a component, cocycle or classical law
        fails, and the precondition report: broken data fails, never crashes."""
        pre = Report("bundle")
        pre.merge(self.peiffer)
        pre.merge(self.gerbal)
        pre.merge(self.classical)
        if not pre.ok:
            return None, pre
        from .bundle import BundleSpace
        return BundleSpace(self.inst.gc, self.quotient), pre


def _gate(ctx: InstanceContext, name: str, *layers: str) -> Optional[Report]:
    """The merged reports of the stages `layers` of `ctx`, if one of them
    fails, else None: a suite reports the broken data it reads instead of
    running its own laws on it."""
    rep = Report(name)
    for layer in layers:
        rep.merge(getattr(ctx, layer))
    return None if rep.ok else rep


def suite_peiffer(ctx: InstanceContext) -> Report:
    return ctx.peiffer


def suite_gerbal(ctx: InstanceContext) -> Report:
    return _gate(ctx, "gerbal", "peiffer") or ctx.gerbal


def suite_functorial(ctx: InstanceContext) -> Report:
    gated = _gate(ctx, "functorial", "peiffer", "gerbal")
    if gated is not None:
        return gated
    from .functorial import check_theta_functorial
    rep, gc = Report("functorial"), ctx.inst.gc
    for i, k in gc.cover.overlapping(2):
        rep.merge(check_theta_functorial(gc, i, k))
    return rep


def suite_naturality(ctx: InstanceContext) -> Report:
    gated = _gate(ctx, "naturality", "peiffer", "gerbal")
    if gated is not None:
        return gated
    from .functorial import check_naturality, check_product_relation
    rep, gc = Report("naturality"), ctx.inst.gc
    for i, k, m in gc.cover.overlapping(3):
        rep.merge(check_naturality(gc, i, k, m))
        rep.merge(check_product_relation(gc, i, k, m))
    return rep


def suite_quotient(ctx: InstanceContext) -> Report:
    gated = _gate(ctx, "quotient", "peiffer")
    if gated is not None:
        return gated
    from .quotient import check_JH_normal
    rep = Report("quotient")
    rep.merge(check_JH_normal(ctx.inst.chain))
    rep.merge(ctx.classical)
    return rep


def suite_bundle(ctx: InstanceContext) -> Report:
    if not ctx.inst.cover.identity_edges:
        raise PreconditionError(
            "the bundle suite needs zero-length edges enabled on the base")
    space, pre = ctx.space
    if space is None:
        return pre
    from .battery import check_bundle_axioms
    rep = Report("bundle")
    rep.merge(check_bundle_axioms(space, ctx.max_len))
    return rep


def suite_oracle(ctx: InstanceContext) -> Report:
    if not ctx.inst.cover.directed or ctx.inst.cover.identity_edges:
        raise PreconditionError(
            "the oracle suite needs a directed base with zero-length edges disabled")
    rep = Report("oracle")
    space, pre = ctx.space
    if space is None:
        rep.merge(pre)
        return rep
    from .wordalg import (WordOracle, check_congruence_invariants, check_oracle_agreement,
                          word_chains)
    oracle = WordOracle(space, ctx.max_len)
    chains = word_chains(space, oracle)
    rep.merge(check_oracle_agreement(space, oracle, chains))
    rep.merge(check_congruence_invariants(space, oracle, chains))
    return rep


def _run(ctx: InstanceContext, suite: str) -> Report:
    if suite == "peiffer":
        return suite_peiffer(ctx)
    if suite == "gerbal":
        return suite_gerbal(ctx)
    if suite == "functorial":
        return suite_functorial(ctx)
    if suite == "naturality":
        return suite_naturality(ctx)
    if suite == "quotient":
        return suite_quotient(ctx)
    if suite == "bundle":
        return suite_bundle(ctx)
    if suite == "oracle":
        return suite_oracle(ctx)
    raise SchemaError(f"unknown suite {suite!r}; choose one of {list(SUITES)}")


def run_suite(inst: Instance, suite: str, max_len: int = 3) -> Report:
    ctx = InstanceContext(inst, max_len)
    if suite != "all":
        return _run(ctx, suite)
    for layer in LAYERS:
        import_module(f".{layer}", __package__)
    cover = inst.cover
    last = ("bundle",) if cover.identity_edges else ("oracle",) if cover.directed else ()
    rep, seen = Report("all"), set()
    for name in ("peiffer", "gerbal", "functorial", "naturality", "quotient") + last:
        # a gated suite repeats its gate's rows, which an earlier stage listed
        for c in _run(ctx, name).checks:
            if c.check_id not in seen:
                seen.add(c.check_id)
                rep.checks.append(c)
    return rep
