import numpy as np
import pytest

from vielbein.expr import Num, to_text
from vielbein.frame import (
    curvature,
    einstein_density,
    evaluate_coframe,
    spin_connection,
)
from vielbein.jets import jet_seed
from vielbein.kaluza import einstein_maxwell_residual, maxwell_residual
from vielbein.solutions import (
    Poly,
    SOLUTIONS,
    constant_F,
    make_solution,
    minkowski,
    random_kaluza,
    random_polynomial,
    reissner_nordstrom,
    rindler,
    schwarzschild,
)

from conftest import fd_grad, poly_value


def test_registry_names():
    assert set(SOLUTIONS) == {"minkowski", "rindler", "schwarzschild",
                              "reissner_nordstrom", "constant_F",
                              "random_polynomial"}
    sol = make_solution("schwarzschild", {"M": 2.0})
    assert sol.params["M"] == 2.0
    with pytest.raises(ValueError):
        make_solution("kerr")


def test_parameter_validation():
    with pytest.raises(ValueError):
        schwarzschild(M=-1.0)
    with pytest.raises(ValueError):
        reissner_nordstrom(M=1.0, Q=2.0)


def test_vacuum_flags_verified(rng):
    for name in ("minkowski", "rindler", "schwarzschild"):
        sol = make_solution(name)
        assert "vacuum" in sol.flags
        for pt in sol.sample_points(rng, 10):
            cp = evaluate_coframe(sol.tetrad, pt)
            dens = einstein_density(cp, curvature(spin_connection(cp)))
            assert np.abs(dens).max() < 1e-8, (name, pt)


def test_flat_flags_verified(rng):
    for name in ("minkowski", "rindler", "constant_F"):
        sol = make_solution(name)
        assert "flat" in sol.flags
        for pt in sol.sample_points(rng, 5):
            cp = evaluate_coframe(sol.tetrad, pt)
            assert np.abs(curvature(spin_connection(cp)).R).max() < 1e-10


def test_einstein_maxwell_flag_verified(rng):
    sol = reissner_nordstrom(M=1.0, Q=0.5)
    assert "einstein_maxwell" in sol.flags
    cfg = sol.kaluza_config()
    for pt in sol.sample_points(rng, 10):
        assert np.abs(einstein_maxwell_residual(cfg, pt)).max() < 1e-7
        assert np.abs(maxwell_residual(cfg, pt).divergence).max() < 1e-8


def test_maxwell_flag_verified(rng):
    sol = constant_F(B=1.3)
    cfg = sol.kaluza_config()
    for pt in sol.sample_points(rng, 5):
        assert np.abs(maxwell_residual(cfg, pt).divergence).max() < 1e-10


def test_rn_charge_zero_degenerates_to_schwarzschild(rng):
    rn = reissner_nordstrom(M=1.0, Q=0.0)
    schw = schwarzschild(M=1.0)
    assert "vacuum" in rn.flags
    for pt in schw.sample_points(rng, 10):
        e1 = evaluate_coframe(rn.tetrad, pt).e
        e2 = evaluate_coframe(schw.tetrad, pt).e
        assert np.allclose(e1, e2, atol=1e-13)


def test_domain_excludes_horizon_and_axis():
    sol = schwarzschild(M=1.0)
    assert not sol.contains((0.0, 2.1, 1.0, 0.5))      # inside r = 2M + margin
    assert not sol.contains((0.0, 5.0, 0.01, 0.5))     # polar axis
    assert sol.contains((0.0, 5.0, 1.2, 0.5))
    rp = 1.0 + np.sqrt(1.0 - 0.25)
    rn = reissner_nordstrom(M=1.0, Q=0.5)
    assert not rn.contains((0.0, rp + 0.2, 1.2, 0.5))


def test_random_polynomial_nondegenerate(rng):
    for seed in (7, 8, 9):
        for dim in (4, 5):
            sol = random_polynomial(seed=seed, amplitude=0.1, dim=dim)
            for pt in sol.sample_points(rng, 10):
                cp = evaluate_coframe(sol.tetrad, pt)   # raises if degenerate
                assert abs(np.linalg.det(cp.e)) > 0.3


def test_random_polynomial_deterministic():
    a = random_polynomial(seed=7, amplitude=0.1)
    b = random_polynomial(seed=7, amplitude=0.1)
    pt = (0.3, -0.2, 0.5, 0.1)
    assert np.array_equal(evaluate_coframe(a.tetrad, pt).e,
                          evaluate_coframe(b.tetrad, pt).e)


def test_random_kaluza_deterministic():
    c1 = random_kaluza(seed=11, amplitude=0.1)
    c2 = random_kaluza(seed=11, amplitude=0.1)
    pt = (0.1, 0.2, 0.3, 0.4)
    from vielbein.kaluza import field_strength

    assert np.array_equal(field_strength(c1, pt).f_coord,
                          field_strength(c2, pt).f_coord)


def test_poly_gradient_exact(rng):
    p = Poly.random(rng, 3, degree=3, amplitude=1.0)
    x = rng.uniform(-1, 1, 3)
    grads = [poly_value(p.grad(i), x) for i in range(3)]
    assert np.allclose(grads, fd_grad(lambda q: poly_value(p, q), x), atol=1e-8)


def test_poly_expr_consistency(rng):
    from vielbein.expr import eval_jet

    p = Poly.random(rng, 4, degree=3, amplitude=0.7)
    tree = p.to_expr()
    x = rng.uniform(-1, 1, 4)
    assert eval_jet(tree, list(x)) == pytest.approx(poly_value(p, x), abs=1e-14)
    out = eval_jet(tree, jet_seed(x))
    assert np.allclose(out.jac, [poly_value(p.grad(i), x) for i in range(4)], atol=1e-13)


def test_poly_zero_prints_as_number():
    assert to_text(Poly.from_dict(2, {}).to_expr()) == to_text(Num(0.0))
