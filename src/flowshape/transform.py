"""Per-element algebra of the domain transformation F = id + w.

For P1 displacements the Jacobian DF = I + Dw, its determinant and inverse are
constant per triangle.  The determinant penalty keeps det(DF) above a bound
eta_det; its value and derivatives are terms of the engine
:mod:`flowshape.lagrangian`, which reads det(DF) and (DF)^-1 from
:func:`deformation` of its own Dw.  Only the engine and this module compute
the kinematics; the other modules read det(DF) through
:func:`element_kinematics`.

Everything is computed with the element axis last; the functions with
``element`` in their name return views with the element axis first.
"""

from __future__ import annotations

import numpy as np

from .fem import P1Geometry

__all__ = [
    "deformation",
    "kinematics",
    "element_kinematics",
    "pushed_gradients",
]


def displacement_gradient(geo: P1Geometry, w: np.ndarray) -> np.ndarray:
    """Constant per-element Jacobian Dw, shape (nt, 2, 2); Dw_ab = d w_a / d x_b."""
    return np.moveaxis(np.einsum("lat,lbt->abt", geo.gather(w),
                                 geo.grads_last), -1, 0)


def deformation(Dw: np.ndarray):
    """(DF, det, DFinv) of the displacement gradients ``Dw`` (2, 2, nt):
    (2, 2, nt), (nt,) and (2, 2, nt).

    Determinants may be non-positive; the inverse is computed wherever the
    determinant is nonzero, and is the adjugate where it is zero (callers
    decide how to react).  Dtype follows Dw so extended-precision evaluation
    is possible.
    """
    DF = Dw.copy()
    DF[0, 0] += 1.0
    DF[1, 1] += 1.0
    det = DF[0, 0] * DF[1, 1] - DF[0, 1] * DF[1, 0]
    safe = np.where(det != 0.0, det, 1.0)
    inv = np.array([[DF[1, 1], -DF[0, 1]], [-DF[1, 0], DF[0, 0]]]) / safe
    return DF, det, inv


def kinematics(geo: P1Geometry, w: np.ndarray):
    """:func:`deformation` of the nodal displacement w (n, 2) on all
    triangles of the geometry, element axis last."""
    return deformation(np.einsum("lat,lbt->abt", geo.gather(w),
                                 geo.grads_last))


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
