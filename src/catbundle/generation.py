"""What only `generate` runs: drawing a valid cocycle from a seed, and writing
an instance as its canonical JSON document.

The checking verbs never import this module: they read documents with
`schema` and check them with the suites.
"""

from __future__ import annotations

from .complexes import CoverComplex
from .crossed import ChainedCrossedModules
from .errors import InternalInvariantError, SchemaError
from .gerbal import GerbalCocycle
from .groups import FiniteGroup, GroupAction, GroupHom
from .prng import SplitMix64
from .schema import SCHEMA_VERSION, SEP, Instance, canonical_json


def generate_gerbal(chain: ChainedCrossedModules, cover: CoverComplex, seed: int,
                    noise: bool = True, trivial: bool = False) -> GerbalCocycle:
    """Draw a valid cocycle deterministically from a single seed.

    Construction: draw a local potential f_i per chart vertex, set
    h_ik = tau'(a_ik) f_i f_k^{-1} with a_ik fresh noise from J (identity when
    noise is off or i = k), then solve tau'(j_ikm) = h_im (h_ik h_km)^{-1}
    for the smallest preimage. The discrepancy always lands in tau'(J)
    because tau'(J) is normal in H; anything else aborts loudly.
    """
    H, J = chain.H, chain.J
    rng = SplitMix64(seed)
    preimage: dict[str, list[str]] = {}
    for j in sorted(J.elements):
        preimage.setdefault(chain.tau_p(j), []).append(j)

    if trivial:
        f = {(i, u): H.identity for i in cover.index_order for u in sorted(cover.chart(i))}
    else:
        f = {}
        for i in cover.index_order:
            for u in sorted(cover.chart(i)):
                f[(i, u)] = H.elements[rng.below(len(H.elements))]

    h: dict[tuple[str, str, str], str] = {}
    for i, k in cover.overlapping(2):
        for u in sorted(cover.overlap((i, k))):
            if i == k:
                h[(i, k, u)] = H.identity
                continue
            a = H.identity
            if noise and not trivial:
                a = chain.tau_p(J.elements[rng.below(len(J.elements))])
            h[(i, k, u)] = H.op(a, H.op(f[(i, u)], H.inverse(f[(k, u)])))

    j: dict[tuple[str, str, str, str], str] = {}
    for i, k, m in cover.overlapping(3):
        for u in sorted(cover.overlap((i, k, m))):
            d = H.op(h[(i, m, u)], H.inverse(H.op(h[(i, k, u)], h[(k, m, u)])))
            cands = preimage.get(d)
            if not cands:
                raise InternalInvariantError(
                    f"discrepancy {d!r} at ({i},{k},{m},{u}) has no tau' preimage"
                )
            j[(i, k, m, u)] = cands[0]
    return GerbalCocycle(chain, cover, h, j)


def _encode_group(g: FiniteGroup) -> dict:
    return {
        "elements": list(g.elements),
        "identity": g.identity,
        "mul": {a: {b: g.op(a, b) for b in g.elements} for a in g.elements},
        "inv": {a: g.inverse(a) for a in g.elements},
    }


def _encode_hom(h: GroupHom) -> dict:
    return {"domain": h.domain.name, "codomain": h.codomain.name,
            "map": {x: h(x) for x in h.domain.elements}}


def _encode_action(a: GroupAction) -> dict:
    return {"actor": a.actor.name, "space": a.space.name,
            "map": {g: {h: a(g, h) for h in a.space.elements}
                    for g in a.actor.elements}}


def document_from_instance(inst: Instance) -> dict:
    # the cover refuses a `|` in vertex and chart ids, so the joined h and j
    # keys split back into their parts
    chain = inst.chain
    groups: dict[str, FiniteGroup] = {}
    for grp in (chain.G, chain.H, chain.J):
        known = groups.get(grp.name)
        if known is not None and known is not grp:
            raise SchemaError(f"two distinct groups share the name {grp.name!r}")
        groups[grp.name] = grp
    homs = {}
    actions = {}
    for hom in (chain.tau, chain.tau_p):
        if hom.name in homs:
            raise SchemaError(f"two homomorphisms share the name {hom.name!r}")
        homs[hom.name] = hom
    for act in (chain.alpha, chain.alpha_p):
        if act.name in actions:
            raise SchemaError(f"two actions share the name {act.name!r}")
        actions[act.name] = act
    cover = inst.cover
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": {"name": inst.preset, "seed": inst.seed, "noise": inst.noise},
        "groups": {name: _encode_group(g) for name, g in groups.items()},
        "homs": {name: _encode_hom(h) for name, h in homs.items()},
        "actions": {name: _encode_action(a) for name, a in actions.items()},
        "chain": {
            "outer": {"G": chain.G.name, "H": chain.H.name,
                      "alpha": chain.alpha.name, "tau": chain.tau.name},
            "inner": {"G": chain.H.name, "H": chain.J.name,
                      "alpha": chain.alpha_p.name, "tau": chain.tau_p.name},
        },
        "cover": {
            "vertices": list(cover.vertices),
            "edges": [[e, u, v] for e, u, v in cover.edges],
            "sets": {i: sorted(cover.chart(i)) for i in cover.index_order},
            "index_order": list(cover.index_order),
            "directed": cover.directed,
            "identity_edges": cover.identity_edges,
        },
        "cocycle": {
            "h": {SEP.join(key): val for key, val in sorted(inst.gc.h.items())},
            "j": {SEP.join(key): val for key, val in sorted(inst.gc.j.items())},
        },
    }


def instance_to_json(inst: Instance) -> str:
    return canonical_json(document_from_instance(inst))
