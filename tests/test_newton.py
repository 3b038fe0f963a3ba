"""Tests for the reuse of factorizations in the shared semismooth Newton loop,
on small synthetic systems with counting callbacks."""

import weakref

import numpy as np
import pytest

from flowshape.newton import SolverError, semismooth_newton

TOL = 1e-12


class _Counted:
    """A diagonal system F(x) = x + gamma * x**3 - b with counting residual
    and factorization callbacks; the Jacobian is taken at the point of
    factorization."""

    def __init__(self, b, gamma):
        self.b, self.gamma = np.asarray(b, float), np.asarray(gamma, float)
        self.points, self.factorized, self.solvers = [], [], []

    def residual(self, x):
        self.points.append(x.copy())
        return x + self.gamma * x ** 3 - self.b

    def factorize(self, x, active):
        self.factorized.append((x.copy(), active))
        jac = np.diag(1.0 + 3.0 * self.gamma * x ** 2)

        def solve(rhs):
            return np.linalg.solve(jac, rhs)

        self.solvers.append(weakref.ref(solve))
        return solve

    def solve(self, x0, max_iter=30, penalty_active=None):
        return semismooth_newton(self.residual, self.factorize,
                                 np.array(x0, float), TOL, max_iter, "test",
                                 penalty_active)


def test_fast_contraction_reuses_the_factorization():
    """A system that contracts fast takes fewer factorizations than
    iterations (the last iterate needs none, the chord iterates none
    either), meets the stop test, and counts its chord iterations in
    ``max_iter``."""
    system = _Counted(np.linspace(0.5, 1.5, 4), 0.1)
    x, history = system.solve(np.zeros(4))
    assert len(system.factorized) < len(history) - 1
    residual = x + 0.1 * x ** 3 - system.b
    newton = np.linalg.solve(np.diag(1.0 + 0.3 * x ** 2), -residual)
    assert np.linalg.norm(residual) < TOL
    assert np.linalg.norm(newton) <= np.sqrt(TOL) * (1.0 + np.linalg.norm(x))
    assert history[-1] < TOL
    with pytest.raises(SolverError) as err:
        _Counted(system.b, 0.1).solve(np.zeros(4), max_iter=len(history) - 1)
    assert err.value.kind == "divergence"


def test_rejected_chord_trial_refactorizes_at_the_same_iterate():
    """A first step that contracts by 1.7e-2 keeps its factorization, but
    the chord step after it overshoots the root of the cubic component
    (Theta = 1.09): the trial is discarded, the next factorization is taken
    at the iterate the chord started from, and the solve converges."""
    system = _Counted([100.0, 1.2], [0.0, 1.0])
    x, history = system.solve(np.zeros(2))
    first = np.array([100.0, 1.2])
    rejected = first + np.array([0.0, -1.728])
    assert np.allclose(system.factorized[1][0], first, rtol=0, atol=1e-12)
    assert any(np.allclose(p, rejected, rtol=0, atol=1e-9)
               for p in system.points)
    assert np.linalg.norm(x + np.array([0.0, 1.0]) * x ** 3
                          - system.b) < TOL
    assert history[-1] < TOL


def test_active_set_change_forces_a_new_factorization():
    """A factorization is reused only at an iterate whose penalty active
    set is the one it was built with: the same solve takes a fresh
    factorization at the first iterate when the set switches there."""
    b = np.linspace(0.5, 1.5, 4)
    steady = _Counted(b, 0.01)
    steady.solve(np.zeros(4), penalty_active=lambda x: np.array([x[0] > 2.0]))
    switching = _Counted(b, 0.01)
    switching.solve(np.zeros(4),
                    penalty_active=lambda x: np.array([x[0] > 0.25]))
    assert len(steady.factorized) == 1
    assert len(switching.factorized) == 2
    assert np.array_equal(switching.factorized[1][0], b)
    assert switching.factorized[1][1] is None


def test_previous_solver_is_released_before_the_next_factorization():
    """No factorization outlives the call that replaces it, also across
    chord iterations and a rejected chord trial."""
    for system in (_Counted(np.linspace(0.5, 1.5, 4), 0.1),
                   _Counted([100.0, 1.2], [0.0, 1.0])):
        alive_at_factorization = []
        factorize = system.factorize

        def checking(x, active, factorize=factorize, system=system):
            alive_at_factorization.append(
                sum(ref() is not None for ref in system.solvers))
            return factorize(x, active)

        system.factorize = checking
        system.solve(np.zeros(system.b.size))
        assert len(alive_at_factorization) >= 2
        assert alive_at_factorization == [0] * len(alive_at_factorization)
