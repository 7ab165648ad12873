import numpy as np
import pytest

from gmclab import (
    AtomicMeasure,
    build_covariance,
    generate_cantor_dust,
    generate_uniform_grid,
)


@pytest.fixture(scope="session")
def grid8():
    return generate_uniform_grid(8, 0.8)


@pytest.fixture(scope="session")
def model8(grid8):
    return build_covariance(grid8)


@pytest.fixture(scope="session")
def grid4():
    return generate_uniform_grid(4, 0.8)


@pytest.fixture(scope="session")
def model4(grid4):
    return build_covariance(grid4)


@pytest.fixture(scope="session")
def single_atom():
    # one atom at 0.3: default epsilon (1-0.3)/2, variance log(1/eps)+log(0.91)
    return AtomicMeasure(np.array([0.3 + 0j]), np.array([1.0]))


@pytest.fixture(scope="session")
def single_model(single_atom):
    return build_covariance(single_atom)


@pytest.fixture(scope="session")
def two_atom():
    return AtomicMeasure(np.array([-0.25 + 0j, 0.25 + 0j]), np.array([0.3, 0.3]))


@pytest.fixture(scope="session")
def two_model(two_atom):
    return build_covariance(two_atom)


@pytest.fixture(scope="session")
def cantor3():
    return generate_cantor_dust(3, 0.4)


@pytest.fixture(scope="session")
def grid16_model():
    return build_covariance(generate_uniform_grid(16, 0.8))


@pytest.fixture(scope="session")
def cantor5_clipped():
    # level-5 Cantor dust at epsilon 0.05: Cholesky fails and the factor is
    # the clipped matrix's, of rank far below n = 1024
    return build_covariance(generate_cantor_dust(5, 0.4), 0.05)
