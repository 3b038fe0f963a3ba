import inspect

import numpy as np
import pytest

from flowshape.meshgen import tunnel_mesh, unit_square_mesh


@pytest.fixture(scope="session")
def circle_mesh():
    return tunnel_mesh(h=0.5, n_obstacle=64)


@pytest.fixture(scope="session")
def circle_mesh_fine():
    return tunnel_mesh(h=0.35, n_obstacle=96)


@pytest.fixture(scope="session")
def holdall_mesh():
    return tunnel_mesh(h=0.5, n_obstacle=64, holdall=True)


@pytest.fixture(scope="session")
def square_mesh():
    return unit_square_mesh(8)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def spy(monkeypatch):
    """``spy(module, name)`` wraps ``module.name`` for the test and returns
    the list of the bound arguments of every call made through it.
    ``spy.order`` lists the calls of every spy of the test as they were
    made, as ``(name, arguments)`` pairs."""
    order = []

    def install(module, name):
        real = getattr(module, name)
        sig = inspect.signature(real)
        calls = []

        def wrapper(*args, **kwargs):
            arguments = sig.bind(*args, **kwargs).arguments
            calls.append(arguments)
            order.append((name, arguments))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    install.order = order
    return install
