import pytest

from starcut import StarGraph


@pytest.fixture(scope="session")
def s3():
    return StarGraph(3)


@pytest.fixture(scope="session")
def s4():
    return StarGraph(4)


@pytest.fixture(scope="session")
def s5():
    return StarGraph(5)


@pytest.fixture(scope="session")
def s6():
    return StarGraph(6)
