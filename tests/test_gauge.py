import math

import numpy as np
import pytest

from vielbein.expr import parse
from vielbein.frame import evaluate_coframe, spin_connection
from vielbein.gauge import (
    GaugeElement,
    GaugeError,
    evaluate_gauge,
    gauge_transform_frame,
    gauge_transform_omega,
)
from vielbein.solutions import minkowski, random_gauge_element, random_polynomial
from vielbein.tensors import Signature, eta

from conftest import gauge_transform_E, metric

SIG4 = Signature(1, 3)
PT = (0.2, -0.3, 0.4, 0.1)


ZERO = tuple((0.0,) * 4 for _ in range(4))


def _identity_gauge(**kw):
    # the zero generator, whose Cayley transform is exactly I
    return GaugeElement(signature=SIG4, generator=ZERO, **kw)


def _boost(phi: float, **kw):
    """The boost of rapidity ``phi`` in the (0, 1) frame plane: cosh/sinh of
    phi from the generator A[0, 1] = A[1, 0] = 2 tanh(phi / 2)."""
    a = 2.0 * math.tanh(phi / 2)
    gen = [list(row) for row in ZERO]
    gen[0][1] = gen[1][0] = a
    return GaugeElement(signature=SIG4, generator=tuple(map(tuple, gen)), **kw)


def test_identity_gauge_is_noop():
    sol = random_polynomial(seed=3, amplitude=0.1)
    cp = evaluate_coframe(sol.tetrad, PT)
    sp = spin_connection(cp)
    ge = _identity_gauge()
    assert np.array_equal(evaluate_gauge(ge, PT).lam.val, np.eye(4))
    cpb = gauge_transform_frame(cp, ge)
    assert cpb.x.tolist() == cp.x.tolist() == list(PT)
    assert np.allclose(cpb.e, cp.e, atol=1e-15)
    assert np.allclose(cpb.de, cp.de, atol=1e-15)
    assert np.allclose(cpb.dde, cp.dde, atol=1e-15)
    spb = gauge_transform_omega(sp, cp, ge)
    assert np.allclose(spb.omega, sp.omega, atol=1e-15)
    assert np.allclose(spb.domega, sp.domega, atol=1e-15)
    assert np.allclose(gauge_transform_E(cp, ge), cp.E, atol=1e-15)


def test_boost_preserves_metric():
    # rapidity-0.3 boost in the (1,2) frame plane mixes rows by cosh/sinh
    # while eta e e stays diag(-1, 1, 1, 1)
    ch, sh = math.cosh(0.3), math.sinh(0.3)
    ge = _boost(0.3)
    cp = evaluate_coframe(minkowski().tetrad, PT)
    cpb = gauge_transform_frame(cp, ge)
    assert cpb.e[0, 0] == pytest.approx(ch)
    assert cpb.e[0, 1] == pytest.approx(sh)
    assert np.allclose(metric(cpb), np.diag([-1.0, 1, 1, 1]), atol=1e-14)


def test_linear_map_scales_frame():
    # xbar = 2x with identity rotation halves every frame component
    coord_map = tuple(parse(f"2*x{i + 1}", 4) for i in range(4))
    ge = _identity_gauge(coord_map=coord_map)
    cp = evaluate_coframe(minkowski().tetrad, PT)
    cpb = gauge_transform_frame(cp, ge)
    assert np.allclose(cpb.e, 0.5 * np.eye(4), atol=1e-15)
    assert cpb.x.tolist() == [2 * c for c in PT]


def test_constant_lambda_keeps_zero_omega():
    ge = _boost(0.7)
    cp = evaluate_coframe(minkowski().tetrad, PT)
    sp = spin_connection(cp)
    spb = gauge_transform_omega(sp, cp, ge)
    assert np.abs(spb.omega).max() < 1e-14


def test_position_dependent_rotation_inhomogeneous_term():
    # generator x1 in the (3,4) frame plane acting on the flat frame: its Cayley
    # transform rotates by the angle 2*atan(x1/2), so the transported connection
    # is pure gauge, with the component d/dx1 of that angle, 1/(1 + x1^2/4)
    gen = [[0.0] * 4 for _ in range(4)]
    gen[2][3] = parse("x1", 4)
    gen[3][2] = parse("-x1", 4)
    ge = GaugeElement(signature=SIG4, generator=tuple(map(tuple, gen)))
    cp = evaluate_coframe(minkowski().tetrad, PT)
    sp = spin_connection(cp)
    spb = gauge_transform_omega(sp, cp, ge)
    assert abs(spb.omega[0, 2, 3]) == pytest.approx(1.0 / (1.0 + PT[0] ** 2 / 4), abs=1e-12)
    # two-path: the same answer comes from recomputing the connection of the
    # transformed frame
    cpb = gauge_transform_frame(cp, ge)
    assert np.allclose(spin_connection(cpb).omega, spb.omega, atol=1e-12)


def test_constant_lambda_linear_coords_E_law():
    ch, sh = math.cosh(0.4), math.sinh(0.4)
    lam = np.eye(4)
    lam[0, 0] = lam[1, 1] = ch
    lam[0, 1] = lam[1, 0] = sh
    coord_map = tuple(parse(f"{c}*x{i + 1}", 4)
                      for i, c in enumerate((2.0, 0.5, 1.5, 3.0)))
    ge = _boost(0.4, coord_map=coord_map)
    sol = random_polynomial(seed=6, amplitude=0.1)
    cp = evaluate_coframe(sol.tetrad, PT)
    ebar = gauge_transform_E(cp, ge)
    k = np.diag([0.5, 2.0, 1 / 1.5, 1 / 3.0])
    expect = np.einsum("sih,ms,hk,ij->mjk", cp.E, lam, k, k)
    assert np.allclose(ebar, expect, atol=1e-13)


@pytest.mark.parametrize("kind", ["lambda", "linear", "mixed"])
@pytest.mark.parametrize("dim", [4, 5])
def test_commuting_diagram_E_vs_omega_paths(kind, dim, rng):
    # the derivative-block law and the connection law must agree through the
    # torsion-free closure on the transformed frame
    sig = Signature(1, dim - 1)
    sol = random_polynomial(seed=40 + dim, amplitude=0.12, dim=dim)
    for trial in range(4):
        pt = sol.sample_points(rng, 1)[0]
        cp = evaluate_coframe(sol.tetrad, pt)
        sp = spin_connection(cp)
        ge = random_gauge_element(seed=300 + 10 * trial, sig=sig, kind=kind)
        cpb = gauge_transform_frame(cp, ge)
        spb = gauge_transform_omega(sp, cp, ge)
        ebar_direct = gauge_transform_E(cp, ge)
        assert np.allclose(ebar_direct, cpb.E, atol=1e-9)
        wmix = np.einsum("imn,ns->ims", spb.omega, eta(sig))
        a = np.einsum("imn,nj->mij", wmix, cpb.e)
        ebar_from_omega = 0.5 * (a - a.swapaxes(1, 2))
        assert np.allclose(ebar_direct, ebar_from_omega, atol=1e-9)
        assert np.allclose(spin_connection(cpb).omega, spb.omega, atol=1e-9)
        assert np.allclose(spin_connection(cpb).domega, spb.domega, atol=1e-9)


def _skewed(ge: GaugeElement, scale: float) -> GaugeElement:
    """``ge`` with its generator's entry A[0, 1] scaled by ``scale``: eta*A is
    no longer antisymmetric, so the Cayley transform leaves SO(p, q)."""
    gen = [list(row) for row in ge.generator]
    gen[0][1] *= scale
    return GaugeElement(signature=SIG4, generator=tuple(map(tuple, gen)))


def test_gauge_rejects_non_orthogonal_lambda():
    # a generator off the algebra maps off the group; a NaN entry is refused
    # by the Cayley transform before any defect is measured
    with pytest.raises(GaugeError, match="not pseudo-orthogonal"):
        evaluate_gauge(_skewed(_boost(0.3), 1.5), PT)
    gen = [list(row) for row in ZERO]
    gen[0][1] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        evaluate_gauge(GaugeElement(signature=SIG4, generator=tuple(map(tuple, gen))), PT)


def test_gauge_rejects_defect_relative_to_lambda_size():
    # a boost of cosh 74 passes; with its generator's A[0, 1] scaled by
    # 1 + 1e-9 the defect of Lambda^T eta Lambda is ~1e-9 of max|Lambda|^2,
    # far above roundoff
    et = eta(SIG4)
    lam = evaluate_gauge(_boost(5.0), PT).lam.val
    assert lam[0, 0] == pytest.approx(math.cosh(5.0), rel=1e-13)
    skewed = _skewed(_boost(5.0), 1.0 + 1e-9)
    lam = 2.0 * np.linalg.inv(np.eye(4) - np.array(skewed.generator) / 2) - np.eye(4)
    defect = np.abs(lam.T @ et @ lam - et).max() / np.abs(lam).max() ** 2
    assert 5e-10 < defect < 2e-9
    with pytest.raises(GaugeError):
        evaluate_gauge(skewed, PT)


def test_gauge_rejects_singular_map():
    coord_map = (parse("x1", 4), parse("x1", 4), parse("x3", 4), parse("x4", 4))
    ge = _identity_gauge(coord_map=coord_map)
    with pytest.raises(GaugeError):
        evaluate_gauge(ge, PT)


@pytest.mark.parametrize("entry", [parse("sin(x1)", 4), parse("a*x1", 4), parse("x1/2", 4),
                                   parse("(x1 + 1)*x2", 4), parse("x1^1000", 4)])
def test_gauge_rejects_a_chart_entry_it_cannot_read_exactly(entry):
    # the map runs as a polynomial: a function, a parameter, a quotient or a
    # product of sums is refused, and so is an overflow, which raises rather
    # than warns
    coord_map = (entry, parse("x2", 4), parse("x3", 4), parse("x4", 4))
    ge = _identity_gauge(coord_map=coord_map)
    with pytest.raises(GaugeError):
        evaluate_gauge(ge, (20.0, 1.0, 1.0, 1.0))


def test_gauge_refuses_a_batch_of_points():
    # a gauge element is evaluated at one point: a block of frame points, or
    # a point of the wrong dimension, is refused by name
    block = np.array([PT, (0.1, 0.2, 0.3, 0.4)])
    cp = evaluate_coframe(minkowski().tetrad, block)
    sp = spin_connection(cp)
    ge = _identity_gauge()
    with pytest.raises(ValueError, match="one point of 4 coordinates"):
        gauge_transform_frame(cp, ge)
    with pytest.raises(ValueError, match="one point of 4 coordinates"):
        gauge_transform_omega(sp, cp, ge)
    for point in (block, PT[:3], (PT,)):
        with pytest.raises(ValueError, match=r"not at an array of shape \("):
            evaluate_gauge(ge, point)


def test_pseudo_orthogonality_of_generated_elements(rng):
    for seed in range(5):
        ge = random_gauge_element(seed=seed, sig=SIG4, kind="mixed")
        gp = evaluate_gauge(ge, PT)
        et = eta(SIG4)
        assert np.abs(gp.lam.val.T @ et @ gp.lam.val - et).max() < 1e-12
