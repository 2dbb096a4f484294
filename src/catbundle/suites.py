"""Named law-check suites over a loaded instance.

Each suite returns a Report whose serialized form is a pure function of the
instance. Structural problems (malformed tables, missing entries) raise
SchemaError; broken laws come back as failed checks with witnesses.

A run reads every stage of the construction from one InstanceContext, which
builds each stage on first use and only once: a single suite builds just the
stages it reads, and the `all` report is the concatenation of the reports of
the single suites that apply to the base.

Each stage and suite imports its layer on first use: the transition functors
(`functorial`), the coset quotient (`quotient`), the glued bundle (`bundle`)
and the word oracle (`wordalg`). So a single suite loads only the layers it
reads: `peiffer` none of them, `validate` only the transition functors. The
`all` battery loads every layer, also those its base skips, so a process that
has run `all` holds the whole construction: the benchmark's layer tracer
wraps each layer module after replaying `all` in process.
"""

from __future__ import annotations

from functools import cached_property
from importlib import import_module
from typing import TYPE_CHECKING, Optional

from .crossed import check_tau_image_normal, validate_peiffer
from .errors import InternalInvariantError, PreconditionError, SchemaError
from .gerbal import check_second_gerbe, required_pairs, required_triples, validate_gerbal
from .report import Report
from .schema import Instance

if TYPE_CHECKING:
    from .bundle import BundleSpace
    from .functorial import FunctorialCocycle
    from .quotient import QuotientCatGroup

SUITES = ("peiffer", "gerbal", "functorial", "naturality", "quotient",
          "bundle", "oracle", "all")
LAYERS = ("functorial", "quotient", "bundle", "wordalg")


class InstanceContext:
    """The stages of the construction over one instance at one walk bound."""

    def __init__(self, inst: Instance, max_len: int = 3):
        self.inst = inst
        self.max_len = max_len

    @cached_property
    def peiffer(self) -> Report:
        rep = Report("peiffer")
        for check in (validate_peiffer, check_tau_image_normal):
            for cm in (self.inst.chain.outer, self.inst.chain.inner):
                rep.merge(check(cm))
        return rep

    @cached_property
    def gerbal(self) -> Report:
        rep = Report("gerbal")
        rep.merge(validate_gerbal(self.inst.gc))
        rep.merge(check_second_gerbe(self.inst.gc, self.fc.tower))
        return rep

    @cached_property
    def fc(self) -> FunctorialCocycle:
        from .functorial import FunctorialCocycle
        return FunctorialCocycle(self.inst.gc)

    @cached_property
    def quotient(self) -> tuple[Optional[QuotientCatGroup], Report]:
        """The coset quotient and its classical-cocycle check, or None and the
        failed `quotient.build` record."""
        from .quotient import build_quotient, check_classical_cocycle
        try:
            q = build_quotient(self.inst.chain)
        except (SchemaError, InternalInvariantError) as exc:
            rep = Report("quotient")
            rep.record("quotient.build", "the coset category carries group structure",
                       False, str(exc))
            return None, rep
        return q, check_classical_cocycle(self.fc, q, self.max_len)

    @cached_property
    def space(self) -> tuple[Optional[BundleSpace], Report]:
        """The glued bundle, or None when a component, cocycle or classical law
        fails, and the precondition report: broken data fails, never crashes."""
        from .bundle import BundleSpace
        pre = Report("bundle")
        pre.merge(self.peiffer)
        pre.merge(self.gerbal)
        q, classical = self.quotient
        pre.merge(classical)
        return (BundleSpace(self.fc, q) if pre.ok else None), pre


def suite_peiffer(ctx: InstanceContext) -> Report:
    return ctx.peiffer


def suite_gerbal(ctx: InstanceContext) -> Report:
    return ctx.gerbal


def suite_functorial(ctx: InstanceContext) -> Report:
    from .functorial import check_theta_functorial
    rep = Report("functorial")
    for i, k in required_pairs(ctx.fc.cover):
        rep.merge(check_theta_functorial(ctx.fc, i, k, ctx.max_len))
    return rep


def suite_naturality(ctx: InstanceContext) -> Report:
    from .functorial import check_naturality, check_product_relation
    rep = Report("naturality")
    for i, k, m in required_triples(ctx.fc.cover):
        rep.merge(check_naturality(ctx.fc, i, k, m, ctx.max_len))
        rep.merge(check_product_relation(ctx.fc, i, k, m, ctx.max_len))
    return rep


def suite_quotient(ctx: InstanceContext) -> Report:
    from .quotient import check_JH_normal
    rep = Report("quotient")
    rep.merge(check_JH_normal(ctx.inst.chain))
    q, classical = ctx.quotient
    if q is not None:
        rep.merge(q.verification)
    rep.merge(classical)
    return rep


def suite_bundle(ctx: InstanceContext) -> Report:
    if not ctx.inst.cover.identity_edges:
        raise PreconditionError(
            "the bundle suite needs zero-length edges enabled on the base")
    space, pre = ctx.space
    if space is None:
        return pre
    from .bundle import check_bundle_axioms
    rep = Report("bundle")
    rep.merge(check_bundle_axioms(space, ctx.max_len))
    return rep


def suite_oracle(ctx: InstanceContext) -> Report:
    if not ctx.inst.cover.directed or ctx.inst.cover.identity_edges:
        raise PreconditionError(
            "the oracle suite needs a directed base with zero-length edges disabled")
    space, pre = ctx.space
    if space is None:
        return pre
    from .wordalg import WordOracle, check_congruence_invariants, check_oracle_agreement
    rep = Report("oracle")
    oracle = WordOracle(space, ctx.max_len)
    rep.merge(check_oracle_agreement(space, ctx.max_len, oracle))
    rep.merge(check_congruence_invariants(space, ctx.max_len, oracle))
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
    rep = Report("all")
    for name in ("peiffer", "gerbal", "functorial", "naturality", "quotient") + last:
        rep.merge(_run(ctx, name))
    return rep
