#!/usr/bin/env python3
"""Recompute every frozen normalization constant from scratch.

The library hard-codes four empirically determined constants:

* the curvature density equals det(e) * G^l_j e^j_rho with unit factor,
* the Lagrangian density equals -1/2 * det(e) * scalar curvature,
* the frame-variation residual equals the curvature density (unit factor),
* the electromagnetic coupling k^2 = 4 for the charge normalization
  A_t = Q/r, fixed by zeroing the charged-black-hole residual at one radius,
* the fiber-slot obstruction of the lifted frame equals
  3/8 * k^2 * det(e) * F.F (the component the constraint removes).

This script refits all of them and exits nonzero if any drifted from the
frozen values, so the calibration is reproducible at any time.
"""

import math
import sys

import numpy as np

from vielbein.frame import (
    coordinate_oracle,
    curvature,
    einstein_density,
    evaluate_coframe,
    spin_connection,
)
from vielbein.kaluza import em_stress, field_strength, lift_coframe, lift_point
from vielbein.solutions import (
    EM_COUPLING_K2,
    random_polynomial,
    reissner_nordstrom,
)
from vielbein.variational import el_residual_frame, section_point, theta_density

FROZEN = {
    "density_vs_oracle": 1.0,
    "theta_ratio": -0.5,
    "frame_residual_ratio": 1.0,
    "em_coupling_k2": EM_COUPLING_K2,
    "fiber_obstruction": 0.375,
}


def fit_density_ratio():
    ratios = []
    for dim in (4, 5):
        sol = random_polynomial(seed=3, amplitude=0.15, dim=dim)
        for pt in sol.sample_points(np.random.default_rng(1), 3):
            cp = evaluate_coframe(sol.tetrad, pt)
            dens = einstein_density(cp, curvature(spin_connection(cp)))
            orc = coordinate_oracle(sol.tetrad, pt)
            ref = cp.det * np.einsum("lj,jr->lr", orc.einstein, cp.einv)
            mask = np.abs(ref) > 1e-8
            ratios.extend((dens[mask] / ref[mask]).ravel())
    return float(np.mean(ratios)), float(np.ptp(ratios))


def fit_theta_ratio():
    ratios = []
    for dim in (4, 5):
        sol = random_polynomial(seed=11, amplitude=0.15, dim=dim)
        for pt in sol.sample_points(np.random.default_rng(5), 3):
            sec = section_point(sol.tetrad, pt)
            orc = coordinate_oracle(sol.tetrad, pt)
            ratios.append(theta_density(sec) / (sec.cp.det * orc.scalar))
    return float(np.mean(ratios)), float(np.ptp(ratios))


def fit_frame_residual_ratio():
    sol = random_polynomial(seed=2, amplitude=0.12)
    sec = section_point(sol.tetrad, (0.2, 0.3, -0.1, 0.4))
    dens = einstein_density(sec.cp, curvature(sec.sp))
    res = el_residual_frame(sec)
    mask = np.abs(dens) > 1e-9
    vals = res[mask] / dens[mask]
    return float(np.mean(vals)), float(np.ptp(vals))


def fit_coupling():
    sol = reissner_nordstrom(M=1.0, Q=0.5)
    cfg = sol.kaluza_config()
    pt = (0.0, 4.0, 1.3, 0.2)
    cp = evaluate_coframe(cfg.tetrad, pt)
    dens = einstein_density(cp, curvature(spin_connection(cp)))
    stress = em_stress(cp, field_strength(cfg, pt)).T
    mask = np.abs(stress) > 1e-12
    vals = -2.0 * dens[mask] / (cp.det * stress[mask])
    return float(np.mean(vals)), float(np.ptp(vals))


def fit_obstruction():
    cfg = reissner_nordstrom(M=1.0, Q=0.5).kaluza_config()
    lifted = lift_coframe(cfg)
    vals = []
    for r in (3.0, 5.0, 8.0):
        pt = (0.0, r, 1.2, 0.5)
        cp5 = evaluate_coframe(lifted, lift_point(pt))
        d5 = einstein_density(cp5, curvature(spin_connection(cp5)))
        det4 = evaluate_coframe(cfg.tetrad, pt).det
        vals.append(d5[4, 4] / (cfg.k**2 * det4 * field_strength(cfg, pt).invariant))
    return float(np.mean(vals)), float(np.ptp(vals))


def main() -> int:
    fits = {
        "density_vs_oracle": fit_density_ratio(),
        "theta_ratio": fit_theta_ratio(),
        "frame_residual_ratio": fit_frame_residual_ratio(),
        "em_coupling_k2": fit_coupling(),
        "fiber_obstruction": fit_obstruction(),
    }
    ok = True
    for name, (value, spread) in fits.items():
        frozen = FROZEN[name]
        drift = abs(value - frozen)
        status = "ok " if drift < 1e-9 and spread < 1e-8 else "DRIFT"
        ok = ok and status == "ok "
        print(f"{status} {name:22s} fit {value:+.12f}  spread {spread:.2e}  "
              f"frozen {frozen:+g}")
    if not math.isclose(fits["em_coupling_k2"][0], EM_COUPLING_K2, abs_tol=1e-9):
        print("coupling constant drifted; update EM_COUPLING_K2", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
