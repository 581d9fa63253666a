import pytest

from qregress import atom_model
from qregress.verify import EXCITED


@pytest.fixture
def atom():
    return atom_model(1.0)


@pytest.fixture
def excited():
    return EXCITED
