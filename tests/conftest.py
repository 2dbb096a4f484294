import pytest

from catbundle import build_instance, build_quotient
from catbundle.crossed import ChainedCrossedModules, CrossedModule
from catbundle.generation import generate_gerbal
from catbundle.groups import GroupHom
from catbundle.permutations import (
    alternating_group,
    conjugation_action,
    klein_four,
    symmetric_group,
    trivial_action,
)
from catbundle.presets import (
    cover_cycle6,
    cover_dirline3,
    cover_line5w,
    s3_chain,
    s4_chain,
)
from catbundle.schema import Instance
from catbundle.suites import InstanceContext


def glued_space(inst):
    """The bundle the CLI glues for `inst`, its preconditions checked at walk
    length 2."""
    space, pre = InstanceContext(inst, 2).space
    assert pre.ok, pre.first_witness()
    return space


@pytest.fixture(scope="session")
def chain_s3():
    return s3_chain()


@pytest.fixture(scope="session")
def chain_s4():
    return s4_chain()


def a3j3_chain():
    """A chain whose fiber is not thin. Outer: A3 in S3, acted on by
    conjugation; inner: a second A3, J3, acted on trivially. Both taus are
    trivial, and A3 is abelian, so the Peiffer identities hold. The fiber
    quotient has one object and three morphisms, so a decoration decides a
    morphism, where on the preset chains the endpoints and walk already do."""
    s3, a3, j3 = symmetric_group(3), alternating_group(3), alternating_group(3, "J3")
    outer = CrossedModule(s3, a3, conjugation_action(s3, a3, "conj_outer"),
                          GroupHom("tau", a3, s3, dict.fromkeys(a3.elements, s3.identity)),
                          name="a3-outer")
    inner = CrossedModule(a3, j3, trivial_action(a3, j3, "triv_inner"),
                          GroupHom("tau_p", j3, a3, dict.fromkeys(j3.elements, a3.identity)),
                          name="j3-inner")
    return ChainedCrossedModules(outer, inner, "a3j3-chain")


def s4v4z2_chain():
    """A fat fiber with trivial taus. Outer: the Klein four group in S4, acted
    on by conjugation; inner: Z2, acted on trivially by V4. The fiber quotient
    has one object and four morphisms."""
    s4, v4, z2 = symmetric_group(4), klein_four(), symmetric_group(2, "Z2")
    outer = CrossedModule(s4, v4, conjugation_action(s4, v4, "conj_outer"),
                          GroupHom("tau", v4, s4, dict.fromkeys(v4.elements, s4.identity)),
                          name="v4-outer")
    inner = CrossedModule(v4, z2, trivial_action(v4, z2, "triv_inner"),
                          GroupHom("tau_p", z2, v4, dict.fromkeys(z2.elements, v4.identity)),
                          name="z2-inner")
    return ChainedCrossedModules(outer, inner, "s4v4z2-chain")


def a3j3_instance(name, cover_builder):
    """The A3/J3 chain over a preset base, cocycle drawn at seed 5 with noise."""
    chain, cover = a3j3_chain(), cover_builder()
    return Instance(name, 5, True, chain, cover, generate_gerbal(chain, cover, 5, noise=True))


@pytest.fixture(scope="session")
def inst_a3j3_line5w():
    return a3j3_instance("a3j3-line5w", cover_line5w)


@pytest.fixture(scope="session")
def inst_a3j3_dirline3():
    return a3j3_instance("a3j3-dirline3", cover_dirline3)


@pytest.fixture(scope="session")
def inst_a3j3_cycle6():
    return a3j3_instance("a3j3-cycle6", cover_cycle6)


@pytest.fixture(scope="session")
def inst_line5():
    return build_instance("s3-line5", 3, True)


@pytest.fixture(scope="session")
def inst_line5w():
    return build_instance("s3-line5w", 7, True)


@pytest.fixture(scope="session")
def inst_s4_line5w():
    return build_instance("s4-line5w", 5, True)


@pytest.fixture(scope="session")
def inst_dirline3():
    return build_instance("oracle-dirline3", 3, True)


@pytest.fixture(scope="session")
def inst_cycle6():
    return build_instance("cycle6-trivial", 1, True)


@pytest.fixture(scope="session")
def quotient_s3(chain_s3):
    return build_quotient(chain_s3)


@pytest.fixture(scope="session")
def quotient_s4(chain_s4):
    return build_quotient(chain_s4)


@pytest.fixture(scope="session")
def space_line5(inst_line5):
    return glued_space(inst_line5)


@pytest.fixture(scope="session")
def space_line5w(inst_line5w):
    return glued_space(inst_line5w)


@pytest.fixture(scope="session")
def space_dirline3(inst_dirline3):
    return glued_space(inst_dirline3)


@pytest.fixture(scope="session")
def space_cycle6(inst_cycle6):
    return glued_space(inst_cycle6)
