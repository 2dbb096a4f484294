"""Built-in demonstration inputs: two crossed-module chains and five covered
bases, wired together under stable preset names."""

from __future__ import annotations

from .complexes import CoverComplex
from .crossed import ChainedCrossedModules, CrossedModule
from .errors import SchemaError
from .schema import Instance


def s3_chain() -> ChainedCrossedModules:
    """Outer: S3 acting on itself by conjugation with the identity map down.
    Inner: A3 included into S3. tau is onto."""
    from .permutations import (
        alternating_group,
        conjugation_action,
        identity_hom,
        inclusion_hom,
        symmetric_group,
    )
    s3 = symmetric_group(3)
    a3 = alternating_group(3)
    outer = CrossedModule(s3, s3, conjugation_action(s3, s3, "conj_outer"),
                          identity_hom(s3, "tau"), name="s3-outer")
    inner = CrossedModule(s3, a3, conjugation_action(s3, a3, "conj_inner"),
                          inclusion_hom(a3, s3, "tau_p"), name="s3-inner")
    return ChainedCrossedModules(outer, inner, "s3-chain")


def s4_chain() -> ChainedCrossedModules:
    """Outer: A4 included into S4. Inner: the Klein four group included into
    A4. tau is not onto, so constructions restrict to its image."""
    from .permutations import (
        alternating_group,
        conjugation_action,
        inclusion_hom,
        klein_four,
        symmetric_group,
    )
    s4 = symmetric_group(4)
    a4 = alternating_group(4)
    v4 = klein_four()
    outer = CrossedModule(s4, a4, conjugation_action(s4, a4, "conj_outer"),
                          inclusion_hom(a4, s4, "tau"), name="s4-outer")
    inner = CrossedModule(a4, v4, conjugation_action(a4, v4, "conj_inner"),
                          inclusion_hom(v4, a4, "tau_p"), name="s4-inner")
    return ChainedCrossedModules(outer, inner, "s4-chain")


CHAINS = {"s3-chain": s3_chain, "s4-chain": s4_chain}

_PATH5 = [("e01", "0", "1"), ("e12", "1", "2"), ("e23", "2", "3"), ("e34", "3", "4")]


def cover_line5() -> CoverComplex:
    return CoverComplex(
        vertices=["0", "1", "2", "3", "4"],
        edges=_PATH5,
        cover={"1": {"0", "1", "2"}, "2": {"1", "2", "3"}, "3": {"2", "3", "4"}},
        index_order=["1", "2", "3"],
    )


def cover_line5w() -> CoverComplex:
    return CoverComplex(
        vertices=["0", "1", "2", "3", "4"],
        edges=_PATH5,
        cover={"1": {"0", "1", "2", "3"}, "2": {"1", "2", "3", "4"},
               "3": {"0", "1", "2", "3", "4"}},
        index_order=["1", "2", "3"],
    )


def cover_cycle6() -> CoverComplex:
    return CoverComplex(
        vertices=["0", "1", "2", "3", "4", "5"],
        edges=[("e01", "0", "1"), ("e12", "1", "2"), ("e23", "2", "3"),
               ("e34", "3", "4"), ("e45", "4", "5"), ("e50", "5", "0")],
        cover={"1": {"0", "1", "2"}, "2": {"2", "3", "4"}, "3": {"4", "5", "0"}},
        index_order=["1", "2", "3"],
    )


def cover_dirline3() -> CoverComplex:
    return CoverComplex(
        vertices=["0", "1", "2", "3"],
        edges=[("e01", "0", "1"), ("e12", "1", "2"), ("e23", "2", "3")],
        cover={"1": {"0", "1", "2"}, "2": {"1", "2", "3"}},
        index_order=["1", "2"],
        directed=True,
        identity_edges=False,
    )


# preset -> (chain kind, cover builder, force trivial cocycle)
PRESETS = {
    "s3-line5": ("s3-chain", cover_line5, False),
    "s3-line5w": ("s3-chain", cover_line5w, False),
    "s4-line5w": ("s4-chain", cover_line5w, False),
    "cycle6-trivial": ("s3-chain", cover_cycle6, True),
    "oracle-dirline3": ("s3-chain", cover_dirline3, False),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def build_instance(preset: str, seed: int = 0, noise: bool = True) -> Instance:
    try:
        chain_kind, cover_builder, trivial = PRESETS[preset]
    except KeyError:
        raise SchemaError(
            f"unknown preset {preset!r}; choose one of {preset_names()}") from None
    from .generation import generate_gerbal
    chain = CHAINS[chain_kind]()
    cover = cover_builder()
    # a trivial preset ignores the noise request; record what actually ran
    effective = noise and not trivial
    gc = generate_gerbal(chain, cover, seed, noise=effective, trivial=trivial)
    return Instance(preset=preset, seed=seed, noise=effective, chain=chain,
                    cover=cover, gc=gc)
