"""Damped semismooth Newton method shared by every nonlinear solve.

The coupled optimality system, the shape subsystem of the iterative driver,
the flow state and adjoint and the nonlinear extension all call
:func:`semismooth_newton` with their own residual and factorization;
failures are reported as a classified :class:`SolverError`.  The other
modules refer to the two rules of every solve stated here.

Stop test: the residual norm is below ``tol`` (``newton_tol``) and the
Newton correction is at most ``sqrt(tol) * (1 + |x|)``.  The residual
alone weighs the control rows with alpha, so at small alpha it still
admits control errors of order ``tol / alpha``; at quadratic convergence a
relative correction of ``sqrt(tol)`` leaves one of order ``tol``.  After a
full or chord step the correction is the simplified step of the
factorization in use, so a converging solve costs no extra factorization.
A relative target ``rtol`` raises ``tol`` to ``rtol * |r(x0)|`` where that
is larger, before the first iteration, for both halves of the test: an
inexact solve that reduces the initial residual by ``rtol`` (the forcing
term of inexact Newton methods; Eisenstat & Walker, SIAM J. Sci. Comput.
17, 1996).  The iterative driver asks for this in its fixpoint passes,
and the direct driver at every alpha level but the last.

Hand-on rule: a :class:`Kept` holder hands the last factorization of one
system on to the next solve of that system, within one driver call.  That
solve tries it first as a chord step and factorizes anew at the same
iterate where it is refused; on convergence it puts the factorization it
used last back, and a failed solve leaves the holder empty.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Kept", "SolverError", "semismooth_newton"]


class SolverError(RuntimeError):
    """A failed solve, classified by ``kind``; carries the residual history.

    The kinds are ``"singular"`` (the linearization cannot be factorized),
    ``"stall"`` (no step with a damping above the floor is accepted) and
    ``"divergence"`` (the iteration budget runs out without convergence).
    The message starts with the kind.  ``cycling`` is the tuple of the
    indices of the elements whose determinant-penalty active set cycled, for
    a stall of that cause, and empty for every other failure.
    """

    KINDS = ("singular", "stall", "divergence")

    def __init__(self, message, history=None, kind="divergence", cycling=()):
        if kind not in self.KINDS:
            raise ValueError(f"unknown solver failure kind {kind!r}")
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.history = list(history) if history is not None else []
        self.cycling = tuple(int(e) for e in cycling)


class Kept:
    """The last factorization of one system, handed from one Newton solve to
    the next: ``solve`` (``rhs -> step``) and the determinant-penalty active
    set ``active`` it was built with, both None while the holder is empty.

    A driver keeps one holder per system for one call and passes it to every
    solve of that system (the hand-on rule of the module docstring).
    :func:`semismooth_newton` takes the factorization out when it starts,
    so that the holder never keeps an old one alive while a new one is made.
    """

    def __init__(self):
        self.solve = self.active = None


# A damping below this floor counts as a stall: such a step leaves the
# iterate where it is, and accepting it only spends iterations before the
# solve fails anyway.  The converging solves of the test suite and of the
# benchmark workloads accept dampings down to 2^-9.
_MIN_DAMPING = 2.0 ** -10

# A full step whose simplified step is at most this fraction of it keeps its
# factorization for chord steps.  These converge only linearly (Deuflhard,
# *Newton Methods for Nonlinear Problems*, 2011; Kelley, *Solving Nonlinear
# Equations with Newton's Method*, 2003), but at 1/4 each still cuts the
# correction by four for one residual and one solve, with no assembly or
# factorization.  Near a solution these solves contract by 1e-2 to 1e-7.
_CHORD_CONTRACTION = 0.25


def _no_penalty(x):
    return np.zeros(0, dtype=bool)


def semismooth_newton(residual, factorize, x, tol, max_iter, what,
                      penalty_active=None, kept=None, rtol=0.0):
    """Damped semismooth Newton iteration; returns ``(x, residual_history)``.

    ``residual(x)`` is the flat residual and ``factorize(x, active)`` returns
    a solver ``rhs -> step`` for an element of its generalized derivative
    whose determinant-penalty active set is ``active`` (None: the set at x);
    a ``RuntimeError`` from it is a singular matrix.  ``penalty_active(x)``
    is that set, a boolean mask over the elements; without it the residual
    is taken as smooth.

    Globalization is the error-oriented natural monotonicity test: a trial
    point is accepted when the simplified Newton step there (same
    factorization) is shorter than the current step.  It is affine
    invariant, which matters because the control stationarity rows scale
    with alpha.  A step that no damping down to ``_MIN_DAMPING`` makes pass
    is a ``stall``, unless the rejected trials crossed eta_det: the penalty
    gradient has a kink where an element's det(DF) equals eta_det, and the
    default derivative (ties inactive) misses the one-sided derivative along
    a step that compresses such an element.  The step is then computed once
    more from the linearization with the active set of the shortest rejected
    trial that crossed, and only its failure is a stall.  So is a kink
    element that a later relinearization has to switch back: the active set
    then cycles, each one-sided model putting the root on the other side.
    Both errors count the elements at the kink; a cycling one also names
    them.

    A full step whose contraction Theta = |simplified step| / |step| is at
    most ``_CHORD_CONTRACTION`` keeps its factorization: its simplified
    step becomes the next step, a chord step that is tried at damping 1
    alone.  A chord trial with Theta < 1 is accepted, and the chord steps go
    on while Theta stays at most ``_CHORD_CONTRACTION`` and the active set
    at the iterate is the one the factorization was built with.  Otherwise
    the trial is discarded and the iterate takes a damped Newton step from
    a new factorization.  ``max_iter`` counts chord iterations too.
    ``kept``, ``rtol`` and the stop test follow the module docstring.  The
    residual is evaluated once per iterate: the residual at the accepted
    trial point is that of the next iterate.
    """
    penalty_active = penalty_active or _no_penalty
    history = []
    flipped = False  # elements switched by the last relinearization
    r = residual(x)
    tol = max(tol, rtol * float(np.linalg.norm(r)))
    # the factorization in use, the active set it was built with, and the
    # next step with it, a chord step whose length is the stop test's
    # correction
    linsolve = built = chord = None
    if kept is not None:  # the holder lets go of it
        linsolve, built, kept.solve, kept.active = (kept.solve, kept.active,
                                                    None, None)
    if linsolve is not None:
        chord = linsolve(-r)
        chord = chord if np.all(np.isfinite(chord)) else None
    correction = np.inf if chord is None else float(np.linalg.norm(chord))
    for _ in range(max_iter):
        rnorm = float(np.linalg.norm(r))
        history.append(rnorm)
        xtol = np.sqrt(tol) * (1.0 + float(np.linalg.norm(x)))
        if rnorm < tol and correction <= xtol:
            return _hand_back(kept, linsolve, built, x, history)
        here = penalty_active(x)
        if chord is not None and np.array_equal(here, built):
            trial = x + chord
            r_trial = residual(trial)
            simplified = linsolve(-r_trial)
            snorm = float(np.linalg.norm(chord))
            cnorm = float(np.linalg.norm(simplified))
            if cnorm < snorm:  # a non-finite simplified step fails this
                x, r, correction = trial, r_trial, cnorm
                chord = (simplified if cnorm <= _CHORD_CONTRACTION * snorm
                         else None)
                continue
        chord = None
        active = None
        while True:
            linsolve = None  # never hold two factorizations at once
            try:
                linsolve = factorize(x, active)
            except RuntimeError as exc:
                raise SolverError(f"singular {what} matrix: {exc}", history,
                                  kind="singular") from exc
            step = linsolve(-r)
            if not np.all(np.isfinite(step)):
                raise SolverError(f"non-finite {what} Newton step", history,
                                  kind="singular")
            snorm = float(np.linalg.norm(step))
            if rnorm < tol and snorm <= xtol:
                built = here if active is None else active
                return _hand_back(kept, linsolve, built, x, history)
            scale, trial, r_trial, simplified, crossed = _line_search(
                residual, linsolve, x, step, penalty_active, here)
            if scale is not None:
                break
            kink = np.zeros_like(here) if crossed is None else crossed != here
            if active is not None or not kink.any():
                at_kink = (f"; {int(kink.sum())} element(s) at the "
                           "determinant-penalty kink" if here.size else "")
                raise SolverError(
                    f"{what} line search needs a damping below "
                    f"{_MIN_DAMPING:.1e} at residual {rnorm:.3e}{at_kink}",
                    history, kind="stall")
            cycling = np.flatnonzero(kink & flipped)
            if cycling.size:
                raise SolverError(
                    f"{what} active set cycles at residual {rnorm:.3e}: "
                    f"{cycling.size} element(s) at the "
                    "determinant-penalty kink cross eta_det back and forth",
                    history, kind="stall", cycling=cycling)
            flipped, active = kink, crossed
        built = here if active is None else active
        x, r = trial, r_trial
        correction = (float(np.linalg.norm(simplified)) if scale == 1.0
                      else np.inf)
        if correction <= _CHORD_CONTRACTION * snorm:
            chord = simplified
    raise SolverError(
        f"{what} Newton did not converge in {max_iter} iterations: last "
        f"residual {history[-1]:.3e}", history, kind="divergence")


def _hand_back(kept, linsolve, built, x, history):
    """Put the factorization in use into ``kept``; the converged result."""
    if kept is not None:
        kept.solve, kept.active = linsolve, built
    return x, history


def _line_search(residual, linsolve, x, step, penalty_active, here):
    """Natural monotonicity test on the dampings 1, 1/2, ... down to the floor.

    Returns ``(scale, trial, residual(trial), simplified_step, None)`` for
    the first damping that passes, with ``trial = x + scale * step``.  When
    none above ``_MIN_DAMPING`` does, returns ``(None, None, None, None,
    crossed)``: ``crossed`` is the penalty active set of the shortest
    rejected trial whose set differs from ``here``, the set at x (None if
    no trial crossed eta_det).
    """
    snorm = float(np.linalg.norm(step))
    crossed = None
    scale = 1.0
    while scale >= _MIN_DAMPING:
        trial = x + scale * step
        r = residual(trial)
        simplified = linsolve(-r)
        if np.linalg.norm(simplified) < snorm:
            return scale, trial, r, simplified, None
        at_trial = penalty_active(trial)
        if np.any(at_trial != here):
            crossed = at_trial
        scale *= 0.5
    return None, None, None, None, crossed
