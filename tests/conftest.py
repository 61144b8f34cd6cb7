import pytest

from multilattice import Arrangement, FieldSpec, dermod
from multilattice.coxeter import coxeter_arrangement


@pytest.fixture(autouse=True)
def detach_store():
    """Empty dermod's process-wide store slot after a test that left a
    store attached, and drop the walk memo that store fed, so that neither
    reaches a later test."""
    yield
    if dermod._STORE is not None:
        dermod.attach_store(None)
        dermod._WALKS.clear()


@pytest.fixture(scope="session")
def B2():
    return coxeter_arrangement("B2")


@pytest.fixture(scope="session")
def G2():
    return coxeter_arrangement("G2")


@pytest.fixture(scope="session")
def boolean():
    return Arrangement.make(FieldSpec.rational(), [(1, 0), (0, 1)], names=["x", "y"])


@pytest.fixture
def real_pool(monkeypatch):
    """Make scan start a real process pool on any box with jobs >= 2.

    One pending point per worker suffices, and at least two CPUs count as
    usable.  Returns the list of max_workers of the pools started.
    """
    import concurrent.futures

    from multilattice import explorer

    started = []
    real_cpus = explorer._usable_cpus

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(explorer, "_MIN_POINTS_PER_WORKER", 1)
    monkeypatch.setattr(explorer, "_usable_cpus", lambda: max(2, real_cpus()))
    # scan imports the pool class from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return started
