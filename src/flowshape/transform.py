"""Per-element algebra of the domain transformation F = id + w.

For P1 displacements the Jacobian DF = I + Dw, its determinant and inverse are
constant per triangle.  The determinant penalty keeps det(DF) above a bound
eta_det; its first derivative is semismooth through the positive part, and an
element of the generalized second derivative uses the active-set indicator
{det(DF) < eta_det}.

Everything is computed with the element axis last; the functions with
``element`` in their name return views with the element axis first.
"""

from __future__ import annotations

import numpy as np

from .fem import P1Geometry

__all__ = [
    "kinematics",
    "element_kinematics",
    "pushed_gradients",
    "det_penalty",
    "det_penalty_gradient",
    "det_penalty_element_hessians",
]


def displacement_gradient(geo: P1Geometry, w: np.ndarray) -> np.ndarray:
    """Constant per-element Jacobian Dw, shape (nt, 2, 2); Dw_ab = d w_a / d x_b."""
    return np.moveaxis(np.einsum("lat,lbt->abt", geo.gather(w),
                                 geo.grads_last), -1, 0)


def kinematics(geo: P1Geometry, w: np.ndarray):
    """Batched (DF, det, DFinv) for all triangles of the geometry, element
    axis last: (2, 2, nt), (nt,) and (2, 2, nt).

    Determinants may be non-positive; the inverse is computed wherever the
    determinant is nonzero, and is the adjugate where it is zero (callers
    decide how to react).  Dtype follows w so extended-precision evaluation
    is possible.
    """
    DF = np.einsum("lat,lbt->abt", geo.gather(w), geo.grads_last)
    DF[0, 0] += 1.0
    DF[1, 1] += 1.0
    det = DF[0, 0] * DF[1, 1] - DF[0, 1] * DF[1, 0]
    safe = np.where(det != 0.0, det, 1.0)
    inv = np.array([[DF[1, 1], -DF[0, 1]], [-DF[1, 0], DF[0, 0]]]) / safe
    return DF, det, inv


def element_kinematics(geo: P1Geometry, w: np.ndarray):
    """:func:`kinematics` as views with the element axis first."""
    DF, det, inv = kinematics(geo, w)
    return np.moveaxis(DF, -1, 0), det, np.moveaxis(inv, -1, 0)


def pushed_gradients(geo: P1Geometry, DFinv: np.ndarray) -> np.ndarray:
    """(DF)^-T-transformed hat gradients gt[l, :, t] = DFinv^T grads[t, l]
    for a (2, 2, nt) ``DFinv``, as (3, 2, nt).

    These satisfy (Dv DFinv)_ab = sum_l v_l[a] gt_l[b] for nodal fields v.
    """
    return np.einsum("lbt,bat->lat", geo.grads_last, DFinv)


# -- determinant penalty ----------------------------------------------------------


def _penalty_parts(geo: P1Geometry, w, eta_det):
    _, det, inv = kinematics(geo, w)
    gap = eta_det - det
    plus = np.maximum(gap, 0.0)
    active = gap > 0.0  # ties (equality) treated as inactive
    return det, inv, plus, active


def det_penalty(geo: P1Geometry, w: np.ndarray, eta_det: float, beta: float) -> float:
    """(beta/2) * integral of ((eta_det - det DF)_+)^2 over the geometry cells."""
    _, _, plus, _ = _penalty_parts(geo, w, eta_det)
    return 0.5 * beta * float(np.sum(geo.area * plus * plus))


def det_penalty_gradient(geo: P1Geometry, w: np.ndarray, eta_det: float,
                         beta: float) -> np.ndarray:
    """Gradient of det_penalty with respect to the nodal displacement, (nv, 2)."""
    det, inv, plus, _ = _penalty_parts(geo, w, eta_det)
    coeff = -beta * geo.area * plus * det  # (nt,)
    return geo.scatter(coeff * pushed_gradients(geo, inv), len(w))


def det_penalty_element_hessians(geo: P1Geometry, w: np.ndarray, eta_det: float,
                                 beta: float, active=None) -> np.ndarray:
    """Element matrices (nt, 6, 6) of the penalty's generalized second
    derivative; row and column dof (l, a) is component a at local vertex l.
    The result is a view of a contiguous (6, 6, nt) array.

    Per element, with gt the pushed gradients, J the determinant and chi the
    active indicator:

        H[(l,a),(m,c)] = beta*area*[ chi J^2 gt_l[a] gt_m[c]
                                     - (eta-J)_+ J (gt_l[a] gt_m[c] - gt_l[c] gt_m[a]) ]

    chi defaults to {J < eta_det}; an explicit boolean ``active`` selects
    another element of the generalized derivative.  Where an element's J
    sits on eta_det, the one that matches the one-sided derivative along a
    step is chi taken at a point just along that step.  Each matrix is
    exactly symmetric.
    """
    det, inv, plus, chi = _penalty_parts(geo, w, eta_det)
    active = chi if active is None else np.asarray(active, dtype=bool)
    gt = pushed_gradients(geo, inv)
    outer = gt[:, :, None, None] * gt                 # (l, a, m, c, nt)
    coeff1 = beta * geo.area * active * det * det
    coeff2 = beta * geo.area * plus * det
    H = (coeff1 - coeff2) * outer + coeff2 * outer.transpose(0, 3, 2, 1, 4)
    return np.moveaxis(H.reshape(6, 6, -1), -1, 0)
