"""Tests for the reuse of factorizations in the shared semismooth Newton loop,
on small synthetic systems with counting callbacks."""

import weakref

import numpy as np
import pytest

from flowshape.newton import Kept, SolverError, semismooth_newton

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

    def solve(self, x0, max_iter=30, penalty_active=None, kept=None,
              **options):
        return semismooth_newton(self.residual, self.factorize,
                                 np.array(x0, float), TOL, max_iter, "test",
                                 penalty_active, kept, **options)


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


def _kept(jacobian_diagonal):
    """A holder with a solver of the diagonal matrix ``jacobian_diagonal``
    and an empty active set, and a weak reference to that solver."""
    diagonal = np.asarray(jacobian_diagonal, float)

    def solve(rhs):
        return rhs / diagonal

    kept = Kept()
    kept.solve, kept.active = solve, np.zeros(0, dtype=bool)
    return kept, weakref.ref(solve)


def test_kept_solver_is_tried_first_and_handed_back():
    """A kept factorization from a nearby point solves the system with
    chord steps alone, and the holder receives it back."""
    b = np.linspace(0.5, 1.5, 4)
    first = _Counted(b, 0.1)
    kept = Kept()
    first.solve(np.zeros(4), kept=kept)
    assert kept.solve is first.solvers[-1]()
    assert np.array_equal(kept.active, np.zeros(0, dtype=bool))
    second = _Counted(b * 1.01, 0.1)
    x, history = second.solve(np.zeros(4), kept=kept)
    assert not second.factorized
    assert np.linalg.norm(x + 0.1 * x ** 3 - second.b) < TOL
    assert kept.solve is first.solvers[-1]()


def test_kept_solver_that_does_not_contract_is_refused():
    """A kept solver whose chord step overshoots (Theta > 1) is refused:
    the step is discarded, the solver is released, and the loop factorizes
    at the same iterate."""
    system = _Counted(np.linspace(0.5, 1.5, 4), 0.1)
    kept, ref = _kept(0.3 * np.ones(4))  # steps 3.3 times too long
    alive = []
    factorize = system.factorize

    def checking(x, active):
        alive.append(ref() is not None)
        return factorize(x, active)

    system.factorize = checking
    x0 = np.full(4, 0.2)
    x, history = system.solve(x0, kept=kept)
    assert system.factorized and np.array_equal(system.factorized[0][0], x0)
    assert alive == [False] * len(alive)
    r0 = x0 + 0.1 * x0 ** 3 - system.b
    assert np.allclose(system.points[1], x0 - r0 / 0.3, rtol=0, atol=1e-14)
    assert np.linalg.norm(x + 0.1 * x ** 3 - system.b) < TOL
    assert kept.solve is system.solvers[-1]()


def test_failed_solve_hands_back_nothing():
    """A solve that fails leaves the holder empty, and it releases the
    kept solver it was given."""
    kept, ref = _kept(np.ones(4))
    with pytest.raises(SolverError):
        _Counted(np.linspace(0.5, 1.5, 4), 10.0).solve(np.zeros(4),
                                                       max_iter=2, kept=kept)
    assert kept.solve is None and kept.active is None
    assert ref() is None


def test_relative_target_stops_at_the_first_iterate_below_it():
    """With ``rtol`` the solve returns at the first iterate whose residual
    is at most ``rtol`` times the initial one, earlier than the full
    solve, which passes that iterate on its way."""
    b, gamma = np.linspace(1.0, 3.0, 4), 1.0
    _, full = _Counted(b, gamma).solve(np.zeros(4))
    x, history = _Counted(b, gamma).solve(np.zeros(4), rtol=1e-2)
    target = max(TOL, 1e-2 * history[0])
    assert history[-1] <= target < history[-2]
    assert all(h > target for h in history[:-1])
    assert history == full[:len(history)] and len(history) < len(full)
    assert np.linalg.norm(x + gamma * x ** 3 - b) == history[-1]


def test_zero_relative_target_changes_nothing():
    """``rtol=0`` gives the iterates and the history of a call without it,
    bit for bit."""
    b = np.linspace(0.5, 1.5, 4)
    plain, zero = _Counted(b, 0.1), _Counted(b, 0.1)
    x, history = plain.solve(np.zeros(4))
    x0, history0 = zero.solve(np.zeros(4), rtol=0.0)
    assert np.array_equal(x, x0) and history == history0
    assert len(plain.points) == len(zero.points)
    assert all(np.array_equal(p, q) for p, q in zip(plain.points,
                                                    zero.points))
