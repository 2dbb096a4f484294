"""Named law-check suites over a loaded instance.

Each suite returns a Report whose serialized form is a pure function of the
instance. Structural problems (malformed tables, missing entries) raise
SchemaError; broken laws come back as failed checks with witnesses.
"""

from __future__ import annotations

from typing import Optional

from .bundle import BundleSpace, check_bundle_axioms
from .crossed import check_tau_image_normal, validate_peiffer
from .errors import InternalInvariantError, PreconditionError, SchemaError
from .functorial import (
    FunctorialCocycle,
    all_pairs,
    all_triples,
    check_naturality,
    check_product_relation,
    check_theta_functorial,
)
from .gerbal import check_second_gerbe, derive_tower, validate_gerbal
from .quotient import (
    build_quotient,
    check_classical_cocycle,
    check_JH_normal,
    variant_for,
)
from .report import Report
from .schema import Instance
from .wordalg import WordOracle, check_congruence_invariants, check_oracle_agreement

SUITES = ("peiffer", "gerbal", "functorial", "naturality", "quotient",
          "bundle", "oracle", "all")


def _functorial_data(inst: Instance) -> FunctorialCocycle:
    tower = derive_tower(inst.gc, verify=False)
    return FunctorialCocycle(inst.gc, tower)


def suite_peiffer(inst: Instance) -> Report:
    rep = Report("peiffer")
    rep.merge(validate_peiffer(inst.chain.outer))
    rep.merge(validate_peiffer(inst.chain.inner))
    rep.merge(check_tau_image_normal(inst.chain.outer))
    rep.merge(check_tau_image_normal(inst.chain.inner))
    return rep


def suite_gerbal(inst: Instance) -> Report:
    rep = Report("gerbal")
    rep.merge(validate_gerbal(inst.gc))
    rep.merge(check_second_gerbe(inst.gc))
    return rep


def suite_functorial(inst: Instance, max_len: int) -> Report:
    fc = _functorial_data(inst)
    rep = Report("functorial")
    for i, k in all_pairs(fc):
        rep.merge(check_theta_functorial(fc, i, k, max_len))
    return rep


def suite_naturality(inst: Instance, max_len: int) -> Report:
    fc = _functorial_data(inst)
    rep = Report("naturality")
    for i, k, m in all_triples(fc):
        rep.merge(check_naturality(fc, i, k, m, max_len))
        rep.merge(check_product_relation(fc, i, k, m, max_len))
    return rep


def suite_quotient(inst: Instance, max_len: int) -> Report:
    rep = Report("quotient")
    rep.merge(check_JH_normal(inst.chain))
    try:
        q = build_quotient(inst.chain, variant_for(inst.chain))
    except (SchemaError, InternalInvariantError) as exc:
        rep.record("quotient.build", "the coset category carries group structure",
                   False, str(exc))
        return rep
    rep.merge(q.verification)
    rep.merge(check_classical_cocycle(_functorial_data(inst), q, max_len))
    return rep


def _space_or_failures(inst: Instance, max_len: int, peiffer: Optional[Report]):
    """Build the bundle space only over law-clean data; otherwise return the
    failing precondition report so broken documents fail instead of crashing.
    The preconditions include the component laws (groups, homomorphisms,
    actions, Peiffer identities): no bundle is glued over a table that is not
    a group. `peiffer` is the `suite_peiffer` report when the caller has it."""
    pre = Report("bundle")
    pre.merge(suite_peiffer(inst) if peiffer is None else peiffer)
    pre.merge(validate_gerbal(inst.gc))
    pre.merge(check_second_gerbe(inst.gc))
    fc = _functorial_data(inst)
    try:
        q = build_quotient(inst.chain, variant_for(inst.chain))
    except (SchemaError, InternalInvariantError) as exc:
        pre.record("quotient.build", "the coset category carries group structure",
                   False, str(exc))
        return None, pre
    pre.merge(check_classical_cocycle(fc, q, max_len))
    if not pre.ok:
        return None, pre
    return BundleSpace(fc, q, check=False), pre


def suite_bundle(inst: Instance, max_len: int,
                 peiffer: Optional[Report] = None) -> Report:
    if not inst.cover.identity_edges:
        raise PreconditionError(
            "the bundle suite needs zero-length edges enabled on the base")
    space, pre = _space_or_failures(inst, max_len, peiffer)
    if space is None:
        return pre
    rep = Report("bundle")
    rep.merge(check_bundle_axioms(space, max_len))
    return rep


def suite_oracle(inst: Instance, max_len: int,
                 peiffer: Optional[Report] = None) -> Report:
    if not inst.cover.directed or inst.cover.identity_edges:
        raise PreconditionError(
            "the oracle suite needs a directed base with zero-length edges disabled")
    space, pre = _space_or_failures(inst, max_len, peiffer)
    if space is None:
        return pre
    rep = Report("oracle")
    oracle = WordOracle(space, max_len)
    rep.merge(check_oracle_agreement(space, max_len, oracle))
    rep.merge(check_congruence_invariants(space, max_len, oracle))
    return rep


def run_suite(inst: Instance, suite: str, max_len: int = 3) -> Report:
    if suite == "peiffer":
        return suite_peiffer(inst)
    if suite == "gerbal":
        return suite_gerbal(inst)
    if suite == "functorial":
        return suite_functorial(inst, max_len)
    if suite == "naturality":
        return suite_naturality(inst, max_len)
    if suite == "quotient":
        return suite_quotient(inst, max_len)
    if suite == "bundle":
        return suite_bundle(inst, max_len)
    if suite == "oracle":
        return suite_oracle(inst, max_len)
    if suite == "all":
        rep = Report("all")
        peiffer = suite_peiffer(inst)
        rep.merge(peiffer)
        rep.merge(suite_gerbal(inst))
        rep.merge(suite_functorial(inst, max_len))
        rep.merge(suite_naturality(inst, max_len))
        rep.merge(suite_quotient(inst, max_len))
        if inst.cover.identity_edges:
            rep.merge(suite_bundle(inst, max_len, peiffer))
        if inst.cover.directed and not inst.cover.identity_edges:
            rep.merge(suite_oracle(inst, max_len, peiffer))
        return rep
    raise SchemaError(f"unknown suite {suite!r}; choose one of {list(SUITES)}")
