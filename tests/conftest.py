import pytest

from netsize import SMALL_NETS, matchrep_constants


@pytest.fixture
def small_nets():
    """matchrep trains the ``SMALL_NETS`` networks during the test."""
    with matchrep_constants(**SMALL_NETS):
        yield
