from pathlib import Path

import pytest

from qk.generators import m3_quantale, powerset_quantale
from qk.quantfile import load_hom, load_quant

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def q4():
    return load_quant(DATA / "q4.quant")


@pytest.fixture(scope="session")
def l3():
    return load_quant(DATA / "l3.quant")


@pytest.fixture(scope="session")
def c2():
    return load_quant(DATA / "c2.quant")


@pytest.fixture(scope="session")
def nondec():
    return load_quant(DATA / "nondec.quant")


@pytest.fixture(scope="session")
def m3():
    return m3_quantale()


@pytest.fixture(scope="session")
def p3():
    return powerset_quantale(3)


@pytest.fixture(scope="session")
def q4_to_c2():
    return load_hom(DATA / "q4_to_c2.hom")


@pytest.fixture(scope="session")
def l3_to_c2():
    return load_hom(DATA / "l3_to_c2.hom")
