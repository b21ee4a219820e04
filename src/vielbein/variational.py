"""Section-level objects of the variational formulation.

A section point carries a frame point together with connection coordinates
that need not derive from the frame (non-holonomic data is first-class: the
algebraic identities here hold for arbitrary antisymmetric connection
values).  The module provides the contact two-form pullback, the Lagrangian
density, its gauge-invariance defect, a slot-exchange identity of the
double-epsilon block, and the Euler-Lagrange residual block of the frame
variations.  The block of the connection variations, which vanishes exactly
on torsion-free sections, is kept as a reference oracle with the tests
(``tests/conftest.py``).  As in the frame layer, the functions of a section
take any leading batch shape; the gauge-invariance defect takes one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .frame import (
    CoframePoint,
    SpinConnectionPoint,
    epsilon_pair,
    evaluate_coframe,
    quadratic_block,
    spin_connection,
    torsion_residual,
)
from .gauge import GaugeElement, evaluate_gauge, gauge_transform_frame, gauge_transform_omega

__all__ = [
    "SectionPoint",
    "section_point",
    "contact_pullback",
    "theta_density",
    "THETA_RATIO",
    "theta_gauge_invariance_check",
    "omega_shuffle_identity",
    "el_residual_frame",
]


@dataclass(frozen=True)
class SectionPoint:
    cp: CoframePoint
    sp: SpinConnectionPoint
    holonomic: bool


def section_point(field, point: Sequence[float]) -> SectionPoint:
    """Holonomic section point: connection coordinates computed from the frame."""
    cp = evaluate_coframe(field, point)
    return SectionPoint(cp=cp, sp=spin_connection(cp), holonomic=True)


def contact_pullback(section: SectionPoint) -> np.ndarray:
    """Coefficients of the pulled-back contact two-forms over dx^a ^ dx^b;
    identically zero exactly when the section is holonomic.  They are
    d_a e^mu_b - d_b e^mu_a + omega_a^mu_nu e^nu_b - omega_b^mu_nu e^nu_a,
    the negated torsion residual (de^T - de = -2E), from the same contraction;
    ``0.0 -`` keeps its exact zeros at +0.0."""
    return 0.0 - torsion_residual(section.cp, section.sp)


# frozen regression constant: the density coefficient of the Lagrangian scalar,
# L = THETA_RATIO * det(e) * scalar_curvature (see scripts/calibrate_constants.py)
THETA_RATIO = -0.5


def theta_density(section: SectionPoint) -> np.ndarray:
    """Scalar coefficient L with the pulled-back Lagrangian m-form = L ds."""
    return 0.5 * epsilon_pair(section.cp, "ij", "st", ["ijst"], "",
                              quadratic_block(section.sp))


def theta_gauge_invariance_check(section: SectionPoint, ge: GaugeElement) -> float:
    """|Lbar(xbar) det(J) - L(x)|: the density transforms as a top-degree form
    coefficient, so the Jacobian-weighted values must agree."""
    l_here = theta_density(section)
    cp_bar = gauge_transform_frame(section.cp, ge)
    sp_bar = gauge_transform_omega(section.sp, section.cp, ge)
    l_bar = theta_density(SectionPoint(cp_bar, sp_bar, section.holonomic))
    det_j = evaluate_gauge(ge, section.cp.x).det_j
    return abs(l_bar * det_j - l_here)


def omega_shuffle_identity(section: SectionPoint) -> np.ndarray:
    """Slot-exchange identity of the double-epsilon omega*domega block.

    Both sides are read as coefficient arrays of the independent connection
    differentials (antisymmetrized over the frame pair); returns the max
    deviation.  Holds for arbitrary, not necessarily holonomic, sections.
    """
    cp, wmix = section.cp, section.sp.omega_mixed

    lhs = epsilon_pair(cp, "ij", "st", ["jsh"], "iht", wmix)
    rhs = -0.5 * epsilon_pair(cp, "lij", "xst", ["yl", "jxy"], "ist", cp.e, wmix)

    c_lhs = lhs - lhs.swapaxes(-2, -1)
    c_rhs = rhs - rhs.swapaxes(-2, -1)
    return np.abs(c_lhs - c_rhs).max(axis=(-3, -2, -1))


def el_residual_frame(section: SectionPoint) -> np.ndarray:
    """Residual block multiplying the frame variations; on holonomic sections
    it coincides with the curvature density (same contraction, with the
    quadratic block in place of the full curvature)."""
    return 0.5 * epsilon_pair(section.cp, "lij", "rst", ["ijst"], "lr",
                              quadratic_block(section.sp))
