import pytest

from catbundle import build_instance, build_quotient
from catbundle.gerbal import generate_gerbal
from catbundle.presets import cover_cycle6, s3_chain, s4_chain
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


@pytest.fixture(scope="session")
def inst_line5():
    return build_instance("s3-line5", 3, True)


@pytest.fixture(scope="session")
def inst_line5w():
    return build_instance("s3-line5w", 7, True)


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


@pytest.fixture(scope="session")
def space_cycle6_noisy(chain_s3):
    # no preset pairs the cycle's chart-free junction at vertex 0 with a
    # nontrivial transport; seed 3 gives thetabar_13 != identity there
    cover = cover_cycle6()
    gc = generate_gerbal(chain_s3, cover, 3, noise=True)
    return glued_space(Instance("cycle6-noisy", 3, True, chain_s3, cover, gc))
