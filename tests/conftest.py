import pytest

from catbundle import build_instance, build_quotient
from catbundle.bundle import BundleSpace
from catbundle.functorial import FunctorialCocycle
from catbundle.gerbal import generate_gerbal
from catbundle.presets import cover_cycle6, s3_chain, s4_chain
from catbundle.quotient import variant_for


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
    return build_quotient(chain_s3, variant_for(chain_s3))


@pytest.fixture(scope="session")
def quotient_s4(chain_s4):
    return build_quotient(chain_s4, variant_for(chain_s4))


@pytest.fixture(scope="session")
def space_line5(inst_line5):
    fc = FunctorialCocycle.from_cocycle(inst_line5.gc)
    q = build_quotient(inst_line5.chain, variant_for(inst_line5.chain))
    return BundleSpace(fc, q)


@pytest.fixture(scope="session")
def space_line5w(inst_line5w):
    fc = FunctorialCocycle.from_cocycle(inst_line5w.gc)
    q = build_quotient(inst_line5w.chain, variant_for(inst_line5w.chain))
    return BundleSpace(fc, q)


@pytest.fixture(scope="session")
def space_dirline3(inst_dirline3):
    fc = FunctorialCocycle.from_cocycle(inst_dirline3.gc)
    q = build_quotient(inst_dirline3.chain, variant_for(inst_dirline3.chain))
    return BundleSpace(fc, q)


@pytest.fixture(scope="session")
def space_cycle6(inst_cycle6):
    fc = FunctorialCocycle.from_cocycle(inst_cycle6.gc)
    q = build_quotient(inst_cycle6.chain, variant_for(inst_cycle6.chain))
    return BundleSpace(fc, q)


@pytest.fixture(scope="session")
def space_cycle6_noisy(chain_s3, quotient_s3):
    # no preset pairs the cycle's chart-free junction at vertex 0 with a
    # nontrivial transport; seed 3 gives thetabar_13 != identity there
    gc = generate_gerbal(chain_s3, cover_cycle6(), 3, noise=True)
    return BundleSpace(FunctorialCocycle.from_cocycle(gc), quotient_s3)
