import pytest

from heatsource import model


@pytest.fixture
def cold_table_memo():
    """Start with no table layer kept by ``model.sensitivity_tables``, so
    that kernel calls counted or checked through it do not depend on which
    tests ran before."""
    model._rod_layers.cache_clear()
