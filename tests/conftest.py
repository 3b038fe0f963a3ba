import inspect

import numpy as np
import pytest

from flowshape.mesh import BoundaryTag, Mesh
from flowshape.meshgen import tunnel_mesh


def unit_square_mesh(n: int = 16) -> Mesh:
    """Structured unit-square mesh: left inflow, right outflow, top/bottom wall."""
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    tris = []
    for i in range(n):
        for j in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    segments, tags = [], []
    for j in range(n):
        segments.append((vid(0, j), vid(0, j + 1)))
        tags.append(BoundaryTag.INFLOW)
        segments.append((vid(n, j), vid(n, j + 1)))
        tags.append(BoundaryTag.OUTFLOW)
    for i in range(n):
        segments.append((vid(i, 0), vid(i + 1, 0)))
        tags.append(BoundaryTag.WALL)
        segments.append((vid(i, n), vid(i + 1, n)))
        tags.append(BoundaryTag.WALL)
    return Mesh(points, np.asarray(tris), np.asarray(segments),
                np.asarray(tags, dtype=object))


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
