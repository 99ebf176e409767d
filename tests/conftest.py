import pytest

from vermajet import filtration


@pytest.fixture
def cold_filtration():
    """No stored walk and no stored p-eigenvector or move-table certificate,
    before the test and after it: a stored walk would serve the walk
    requests it reaches, so a test that injects into the module action or
    the move table, or counts growths, sees every walk happen only from an
    empty store; and a certificate it made fail is not read by a later test."""
    filtration._grown.clear()
    filtration._certified.cache_clear()
    filtration._moves_certified.cache_clear()
    yield
    filtration._grown.clear()
    filtration._certified.cache_clear()
    filtration._moves_certified.cache_clear()
