import numpy as np
import pytest

from vielbein.frame import (
    SpinConnectionPoint,
    coordinate_oracle,
    curvature,
    einstein_density,
    evaluate_coframe,
    spin_connection,
)
from vielbein.solutions import (
    minkowski,
    random_gauge_element,
    random_polynomial,
    schwarzschild,
)
from vielbein.tensors import Signature, eta
from vielbein.variational import (
    THETA_RATIO,
    SectionPoint,
    contact_pullback,
    el_residual_frame,
    omega_shuffle_identity,
    section_point,
    theta_density,
    theta_gauge_invariance_check,
)

from conftest import el_residual_connection

# frozen regression constant (see scripts/calibrate_constants.py): the
# frame-variation residual against the curvature density
FRAME_RESIDUAL_RATIO = 1.0


def _random_section(rng, dim, seed, holonomic=False):
    sol = random_polynomial(seed=seed, amplitude=0.15, dim=dim)
    pt = sol.sample_points(rng, 1)[0]
    cp = evaluate_coframe(sol.tetrad, pt)
    if holonomic:
        return SectionPoint(cp, spin_connection(cp), True)
    sig = Signature(1, dim - 1)
    w = rng.standard_normal((dim, dim, dim))
    w = 0.5 * (w - w.transpose(0, 2, 1))
    dw = rng.standard_normal((dim, dim, dim, dim))
    dw = 0.5 * (dw - dw.transpose(0, 2, 1, 3))
    return SectionPoint(cp, SpinConnectionPoint(w, dw, sig), False)


def test_contact_pullback_vanishes_iff_holonomic(rng):
    sec = _random_section(rng, 4, seed=2, holonomic=True)
    assert np.abs(contact_pullback(sec)).max() < 1e-10
    # perturb one antisymmetric pair: response is linear in the perturbation
    for c in (0.05, 0.1):
        omega = sec.sp.omega.copy()
        omega[1, 0, 2] += c
        omega[1, 2, 0] -= c
        bad = SectionPoint(sec.cp, SpinConnectionPoint(omega, sec.sp.domega,
                                                       sec.sp.signature), False)
        dev = contact_pullback(bad) - contact_pullback(sec)
        ref = np.abs(dev).max()
        assert ref > 0
        assert ref == pytest.approx(c * np.abs(sec.cp.e).max(), rel=0.5)


def test_contact_difference_is_omega_difference_contracted(rng):
    # for two connections on the same frame, the pullbacks differ by the
    # connection difference contracted with the frame
    sec1 = _random_section(rng, 4, seed=3)
    sec2 = SectionPoint(sec1.cp, _random_section(rng, 4, seed=4).sp, False)
    et = eta(Signature(1, 3))
    dmix = np.einsum("imn,ns->ims", sec1.sp.omega - sec2.sp.omega, et)
    t = np.einsum("amn,nb->mab", dmix, sec1.cp.e)
    expect = t - t.swapaxes(1, 2)
    got = contact_pullback(sec1) - contact_pullback(sec2)
    assert np.allclose(got, expect, atol=1e-12)


def test_theta_density_zero_on_flat_and_vacuum(rng):
    sec = section_point(minkowski().tetrad, (0.1, 0.2, 0.3, 0.4))
    assert theta_density(sec) == 0.0
    sol = schwarzschild(1.0)
    for pt in sol.sample_points(rng, 5):
        assert abs(theta_density(section_point(sol.tetrad, pt))) < 1e-9


@pytest.mark.parametrize("dim", [4, 5])
def test_theta_density_ratio_regression(dim, rng):
    # L(x) = THETA_RATIO * det(e) * scalar curvature, same constant at every
    # point of every configuration
    for seed in (11, 12, 13, 14, 15):
        sol = random_polynomial(seed=seed, amplitude=0.15, dim=dim)
        for pt in sol.sample_points(rng, 4):
            sec = section_point(sol.tetrad, pt)
            orc = coordinate_oracle(sol.tetrad, pt)
            ref = THETA_RATIO * np.linalg.det(sec.cp.e) * orc.scalar
            assert theta_density(sec) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("dim", [4, 5])
@pytest.mark.parametrize("kind", ["lambda", "linear", "mixed"])
def test_theta_gauge_invariance(dim, kind, rng):
    sig = Signature(1, dim - 1)
    sol = random_polynomial(seed=20 + dim, amplitude=0.12, dim=dim)
    sec = section_point(sol.tetrad, sol.sample_points(rng, 1)[0])
    for seed in range(5):
        ge = random_gauge_element(seed=500 + seed, sig=sig, kind=kind)
        assert theta_gauge_invariance_check(sec, ge) < 1e-9


@pytest.mark.parametrize("dim", [4, 5])
def test_omega_shuffle_identity_nonholonomic(dim, rng):
    # pure algebra: holds for arbitrary connection values and derivatives
    for seed in range(10):
        sec = _random_section(rng, dim, seed=30 + seed)
        assert omega_shuffle_identity(sec) < 1e-10


def test_el_residuals_on_holonomic_sections(rng):
    sec = _random_section(rng, 4, seed=50, holonomic=True)
    assert np.abs(el_residual_connection(sec)).max() < 1e-10
    dens = einstein_density(sec.cp, curvature(sec.sp))
    assert np.allclose(el_residual_frame(sec), FRAME_RESIDUAL_RATIO * dens, atol=1e-9)


def test_el_residual_connection_covanishes_with_torsion(rng):
    # perturbed connections break holonomy and the residual with it
    from vielbein.frame import torsion_residual

    for seed in range(8):
        sec = _random_section(rng, 4, seed=60 + seed, holonomic=True)
        omega = sec.sp.omega + 0.0
        omega[0, 1, 3] += 0.1
        omega[0, 3, 1] -= 0.1
        bad_sp = SpinConnectionPoint(omega, sec.sp.domega, sec.sp.signature)
        bad = SectionPoint(sec.cp, bad_sp, False)
        t_good = np.abs(torsion_residual(sec.cp, sec.sp)).max()
        t_bad = np.abs(torsion_residual(sec.cp, bad_sp)).max()
        r_good = np.abs(el_residual_connection(sec)).max()
        r_bad = np.abs(el_residual_connection(bad)).max()
        c_good = np.abs(contact_pullback(sec)).max()
        c_bad = np.abs(contact_pullback(bad)).max()
        assert t_good < 1e-10 and r_good < 1e-10 and c_good < 1e-10
        assert t_bad > 1e-3 and r_bad > 1e-3 and c_bad > 1e-3


def test_minkowski_residuals_zero():
    sec = section_point(minkowski().tetrad, (0.0, 0.0, 0.0, 0.0))
    assert np.abs(el_residual_frame(sec)).max() == 0.0
    assert np.abs(el_residual_connection(sec)).max() == 0.0


def test_el_residual_frame_vacuum(rng):
    sol = schwarzschild(1.0)
    for pt in sol.sample_points(rng, 4):
        sec = section_point(sol.tetrad, pt)
        assert np.abs(el_residual_frame(sec)).max() < 1e-8
