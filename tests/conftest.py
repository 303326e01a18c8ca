import pytest

from kakeya.cantor import CantorSpec, affine_curve, direction_set, moment_curve


@pytest.fixture(scope="session")
def ds_affine_n5():
    return direction_set(CantorSpec(3, 5), affine_curve(1))


@pytest.fixture(scope="session")
def ds_affine_n8():
    return direction_set(CantorSpec(3, 8), affine_curve(1))


@pytest.fixture(scope="session")
def ds_moment_n4_d2():
    return direction_set(CantorSpec(3, 4), moment_curve(2))
