import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from vielbein import cli
from vielbein.cli import JobConfig
from vielbein.expr import parse
from vielbein.frame import (
    curvature,
    einstein_density,
    eval_entry,
    evaluate_coframe,
    spin_connection,
)
from vielbein.kaluza import (
    SIG4,
    KaluzaConfig,
    _KaluzaPoint,
    appendix_chain_check,
    covariance_check,
    einstein_maxwell_residual,
    em_stress,
    field_strength,
    lift_coframe,
    lift_point,
    maxwell_residual,
    reduction_check,
    transform_config,
)
from vielbein.solutions import (
    EM_COUPLING_K2,
    Poly,
    constant_F,
    minkowski,
    random_kaluza,
    random_so_generator,
    reissner_nordstrom,
    schwarzschild,
)

from conftest import poly_value

PT = (0.1, 0.4, -0.3, 0.2)


def _cfg_linear_potential(b=1.0, k=1.0):
    sol = minkowski()
    return KaluzaConfig(tetrad=sol.tetrad,
                        potential=(parse("B*x2", 4), 0.0, 0.0, 0.0),
                        k=k, params={"B": b})


def test_lift_trivial_config():
    cfg = KaluzaConfig(tetrad=minkowski().tetrad, potential=(0.0, 0.0, 0.0, 0.0),
                       k=1.0, params={})
    cp5 = evaluate_coframe(lift_coframe(cfg), lift_point(PT))
    assert np.array_equal(cp5.e, np.eye(5))
    assert np.count_nonzero(cp5.de) == 0


def test_lift_linear_potential_block():
    cfg = _cfg_linear_potential(b=2.5, k=1.0)
    cp5 = evaluate_coframe(lift_coframe(cfg), lift_point(PT))
    assert cp5.e[4, 0] == pytest.approx(-2.5 * PT[1])
    assert cp5.e[4, 4] == 1.0
    assert np.count_nonzero(cp5.e[:4, 4]) == 0
    assert np.allclose(cp5.e[:4, :4], np.eye(4))


def test_constraint_rows_exact_for_any_config():
    cfg = random_kaluza(seed=3, amplitude=0.15, k=0.7)
    cp5 = evaluate_coframe(lift_coframe(cfg), lift_point(PT))
    assert cp5.e[4, 4] == 1.0
    assert np.count_nonzero(cp5.e[:4, 4]) == 0
    assert np.count_nonzero(cp5.de[:, 4, :]) == 0      # fifth column constant
    assert np.count_nonzero(cp5.de[..., 4]) == 0       # cylinder condition


def test_x5_independence():
    cfg = random_kaluza(seed=5, amplitude=0.12)
    lifted = lift_coframe(cfg)
    a = evaluate_coframe(lifted, lift_point(PT, x5=0.0))
    b = evaluate_coframe(lifted, lift_point(PT, x5=11.3))
    assert np.array_equal(a.e, b.e)
    assert np.array_equal(a.de, b.de)
    assert np.array_equal(a.dde, b.dde)


def test_field_strength_examples():
    cfg0 = KaluzaConfig(tetrad=minkowski().tetrad, potential=(0.0, 0.0, 0.0, 0.0),
                        k=1.0, params={})
    assert np.count_nonzero(field_strength(cfg0, PT).f_coord) == 0

    cfg = _cfg_linear_potential(b=3.0)
    fs = field_strength(cfg, PT)
    assert fs.f_coord[0, 1] == pytest.approx(3.0)       # d A_1 / d x2
    assert np.allclose(fs.f_coord, -fs.f_coord.T)
    assert np.allclose(fs.f_frame, -fs.f_frame.T)

    coulomb = KaluzaConfig(tetrad=minkowski().tetrad,
                           potential=(parse("Q/x2", 4), 0.0, 0.0, 0.0),
                           k=1.0, params={"Q": 1.0})
    fs2 = field_strength(coulomb, (0.0, 2.0, 0.0, 0.0))
    assert fs2.f_coord[0, 1] == pytest.approx(-0.25)    # -Q/x2^2 at x2=2


def test_frame_coordinate_conversion_consistency():
    cfg = random_kaluza(seed=8, amplitude=0.1)
    fs = field_strength(cfg, PT)
    cp = evaluate_coframe(cfg.tetrad, PT)
    back = np.einsum("mn,mj,ni->ji", fs.f_frame, cp.e, cp.e)
    assert np.allclose(back, fs.f_coord, atol=1e-12)


def test_em_stress_electric_example():
    # flat tetrad, single electric component F_12 = E: T^1_1 = E^2/2 by direct
    # expansion of the two terms (quarter trace gives -E^2/2, product E^2)
    e_val = 0.8
    cfg = _cfg_linear_potential(b=e_val)
    cp = evaluate_coframe(cfg.tetrad, PT)
    fs = field_strength(cfg, PT)
    t = em_stress(cp, fs).T
    assert t[0, 0] == pytest.approx(e_val**2 / 2)
    assert t[1, 1] == pytest.approx(e_val**2 / 2)
    assert t[2, 2] == pytest.approx(-e_val**2 / 2)
    assert t[3, 3] == pytest.approx(-e_val**2 / 2)


def test_em_stress_traceless(rng):
    for seed in range(6):
        cfg = random_kaluza(seed=70 + seed, amplitude=0.12)
        cp = evaluate_coframe(cfg.tetrad, PT)
        fs = field_strength(cfg, PT)
        t = em_stress(cp, fs).T
        trace = float(np.einsum("lr,rl->", t, cp.e))
        assert abs(trace) < 1e-10


def test_reduction_trivial_potential_embeds_4d_connection():
    sol = schwarzschild(1.0)
    cfg = KaluzaConfig(tetrad=sol.tetrad, potential=(0.0, 0.0, 0.0, 0.0),
                       k=1.0, params=dict(sol.params))
    pt = (0.0, 4.0, 1.2, 0.4)
    rep = reduction_check(cfg, pt)
    assert rep.max_deviation < 1e-12
    sp5 = spin_connection(evaluate_coframe(lift_coframe(cfg), lift_point(pt)))
    sp4 = spin_connection(evaluate_coframe(sol.tetrad, pt))
    assert np.allclose(sp5.omega[:4, :4, :4], sp4.omega, atol=1e-12)
    assert np.abs(sp5.omega[4]).max() < 1e-12


def test_reduction_closed_form_fiber_rotation():
    # k=2 with frame F^{12}=3: the fiber rotation block equals -k F / 2 = -3
    cfg = _cfg_linear_potential(b=-3.0, k=2.0)
    fs = field_strength(cfg, PT)
    assert fs.f_frame_up[0, 1] == pytest.approx(3.0)
    sp5 = spin_connection(evaluate_coframe(lift_coframe(cfg), lift_point(PT)))
    assert sp5.omega[4, 0, 1] == pytest.approx(-3.0, abs=1e-12)
    assert reduction_check(cfg, PT).max_deviation < 1e-12


def test_reduction_identity_random_configs(rng):
    for seed in range(10):
        cfg = random_kaluza(seed=200 + seed, amplitude=0.12,
                            k=float(rng.uniform(0.5, 2.0)))
        pt = tuple(rng.uniform(-0.6, 0.6, 4))
        rep = reduction_check(cfg, pt)
        assert rep.max_deviation < 1e-10


def test_vortex_proportional_to_field_strength():
    cfg = random_kaluza(seed=17, amplitude=0.1, k=1.6)
    rep = reduction_check(cfg, PT)
    fs = field_strength(cfg, PT)
    assert np.allclose(rep.vortex, -2.0 * cfg.k * fs.f_coord, atol=1e-12)


def test_einstein_maxwell_residual_on_solutions(rng):
    cfg0 = KaluzaConfig(tetrad=minkowski().tetrad, potential=(0.0, 0.0, 0.0, 0.0),
                        k=1.0, params={})
    assert np.abs(einstein_maxwell_residual(cfg0, PT)).max() == 0.0

    schw = schwarzschild(1.0)
    cfg1 = KaluzaConfig(tetrad=schw.tetrad, potential=(0.0, 0.0, 0.0, 0.0),
                        k=1.0, params=dict(schw.params))
    for pt in schw.sample_points(rng, 5):
        assert np.abs(einstein_maxwell_residual(cfg1, pt)).max() < 1e-8

    rn = reissner_nordstrom(M=1.0, Q=0.5).kaluza_config()
    for r in np.linspace(2.5, 10.0, 6):
        pt = (0.0, float(r), 1.1, 0.3)
        assert np.abs(einstein_maxwell_residual(rn, pt)).max() < 1e-7
        assert np.abs(maxwell_residual(rn, pt).divergence).max() < 1e-8


def test_calibrated_coupling_is_exact():
    # fitting the coupling at one radius must reproduce the frozen constant
    rn = reissner_nordstrom(M=1.0, Q=0.5).kaluza_config()
    pt = (0.0, 4.0, 1.3, 0.2)
    cp = evaluate_coframe(rn.tetrad, pt)
    dens = einstein_density(cp, curvature(spin_connection(cp)))
    t = em_stress(cp, field_strength(rn, pt)).T
    det = np.linalg.det(cp.e)
    mask = np.abs(t) > 1e-12
    fits = -2.0 * dens[mask] / (det * t[mask])
    assert np.allclose(fits, EM_COUPLING_K2, atol=1e-9)


def test_maxwell_residual_hand_value():
    # A_1 = c (x2)^2 on the flat tetrad: divergence component 1 is -2c
    c = 0.7
    cfg = KaluzaConfig(tetrad=minkowski().tetrad,
                       potential=(parse("0.7*x2^2", 4), 0.0, 0.0, 0.0),
                       k=1.0, params={})
    mx = maxwell_residual(cfg, PT)
    assert mx.divergence[0] == pytest.approx(-2 * c, abs=1e-12)
    assert np.abs(mx.divergence[1:]).max() < 1e-12
    assert np.allclose(mx.raw, 0.5 * cfg.k * mx.divergence, atol=1e-12)


def test_maxwell_residual_constant_field():
    cfg = _cfg_linear_potential(b=2.0)
    assert np.abs(maxwell_residual(cfg, PT).divergence).max() < 1e-13


def test_appendix_chain_identity_random(rng):
    for seed in range(6):
        cfg = random_kaluza(seed=400 + seed, amplitude=0.1,
                            k=float(rng.uniform(0.6, 1.8)))
        pt = tuple(rng.uniform(-0.5, 0.5, 4))
        rep = appendix_chain_check(cfg, pt)
        # the three routes agree even though the residuals are O(1)
        assert max(np.abs(rep.einstein_forms[0]).max(),
                   np.abs(rep.maxwell_forms[0]).max()) > 1e-3
        assert rep.max_deviation < 1e-9


def test_appendix_chain_on_reissner_nordstrom():
    rn = reissner_nordstrom(M=1.0, Q=0.5).kaluza_config()
    for r in (3.0, 5.0, 9.0):
        rep = appendix_chain_check(rn, (0.0, r, 1.2, 0.1))
        assert rep.max_deviation < 1e-7
        # identity plus solution: every form is itself near zero
        assert np.abs(rep.einstein_forms[0]).max() < 1e-7
        assert np.abs(rep.maxwell_forms[0]).max() < 1e-7


def test_trivial_chain_reduces_to_vacuum_block():
    sol = schwarzschild(1.0)
    cfg = KaluzaConfig(tetrad=sol.tetrad, potential=(0.0, 0.0, 0.0, 0.0),
                       k=1.0, params=dict(sol.params))
    pt = (0.0, 5.0, 1.0, 0.7)
    rep = appendix_chain_check(cfg, pt)
    dens = einstein_density(*(lambda cp: (cp, curvature(spin_connection(cp))))(
        evaluate_coframe(sol.tetrad, pt)))
    assert np.allclose(rep.einstein_forms[0], dens, atol=1e-9)
    assert rep.max_deviation < 1e-9


def test_lifted_solution_passes_active_5d_vacuum_block(rng):
    # the variationally imposed components of the 5D density vanish on the
    # lifted charged solution; the single constrained-away slot carries the
    # known scalar obstruction proportional to k^2 det(e) F.F
    rn = reissner_nordstrom(M=1.0, Q=0.5).kaluza_config()
    lifted = lift_coframe(rn)
    for r in (3.0, 6.0, 10.0):
        pt = (0.0, float(r), 1.2, 0.5)
        cp5 = evaluate_coframe(lifted, lift_point(pt))
        d5 = einstein_density(cp5, curvature(spin_connection(cp5)))
        assert np.abs(d5[:4, :]).max() < 1e-7
        assert np.abs(d5[4, :4]).max() < 1e-7
        fs = field_strength(rn, pt)
        det4 = np.linalg.det(evaluate_coframe(rn.tetrad, pt).e)
        obstruction = 0.375 * rn.k**2 * det4 * fs.invariant
        assert d5[4, 4] == pytest.approx(obstruction, rel=1e-7)


def test_transform_config_preserves_field_strength():
    cfg = random_kaluza(seed=31, amplitude=0.1, k=1.2)
    rng = np.random.default_rng(0)
    gen = random_so_generator(rng, SIG4, amplitude=0.2)
    f_poly = Poly.random(rng, 4, degree=3, amplitude=0.2)
    cfg2 = transform_config(cfg, gen, f_poly)
    fs1 = field_strength(cfg, PT)
    fs2 = field_strength(cfg2, PT)
    assert np.allclose(fs1.f_coord, fs2.f_coord, atol=1e-12)
    # metric is rotation-invariant
    from conftest import metric

    g1 = metric(evaluate_coframe(cfg.tetrad, PT))
    g2 = metric(evaluate_coframe(cfg2.tetrad, PT))
    assert np.allclose(g1, g2, atol=1e-12)


def test_transform_config_linear_base_two_path():
    cfg = random_kaluza(seed=37, amplitude=0.1, k=1.5)
    rng = np.random.default_rng(2)
    lin = np.eye(4) + 0.2 * rng.uniform(-1, 1, (4, 4))
    gen = random_so_generator(rng, SIG4, amplitude=0.15)
    f_poly = Poly.random(rng, 4, degree=2, amplitude=0.15)
    cfg2 = transform_config(cfg, gen, f_poly, base_linear=lin)
    xbar = tuple(lin @ np.array(PT))
    lin_inv = np.linalg.inv(lin)
    fs1 = field_strength(cfg, PT)
    fs2 = field_strength(cfg2, xbar)
    pulled = np.einsum("ij,ia,jb->ab", fs1.f_coord, lin_inv, lin_inv)
    assert np.allclose(fs2.f_coord, pulled, atol=1e-10)


def test_restricted_gauge_point_path_with_linear_base():
    # 5D blocked gauge element with fiber shift and linear base chart: the
    # constraint rows survive and the fifth row matches the field-level
    # transformed potential at the image point
    from vielbein.frame import eval_entry
    from vielbein.gauge import gauge_transform_frame
    from vielbein.jets import jet_seed
    from vielbein.kaluza import restricted_gauge_element

    cfg = random_kaluza(seed=55, amplitude=0.1, k=1.4)
    rng = np.random.default_rng(4)
    lin = np.eye(4) + 0.2 * rng.uniform(-1, 1, (4, 4))
    gen = random_so_generator(rng, SIG4, amplitude=0.2)
    f_poly = Poly.random(rng, 4, degree=2, amplitude=0.2)

    ge5 = restricted_gauge_element(gen, f_poly.to_expr(), base_linear=lin)
    cp5 = evaluate_coframe(lift_coframe(cfg), lift_point(PT))
    cp5bar = gauge_transform_frame(cp5, ge5)
    assert cp5bar.e[4, 4] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(cp5bar.e[:4, 4]).max() < 1e-12
    assert cp5bar.x[:4] == pytest.approx(tuple(lin @ np.array(PT)))
    assert cp5bar.x[4] == pytest.approx(poly_value(f_poly, PT))

    cfg2 = transform_config(cfg, gen, f_poly, base_linear=lin)
    xbar = tuple(lin @ np.array(PT))
    jets = jet_seed(xbar)
    abar = np.array([eval_entry(entry, jets, cfg2.params).val
                     for entry in cfg2.potential])
    assert np.allclose(cp5bar.e[4, :4], -cfg.k * abar, atol=1e-12)


def test_covariance_random_trials():
    cfg = random_kaluza(seed=41, amplitude=0.1, k=1.3)
    for seed in range(6):
        rep = covariance_check(cfg, PT, seed=900 + seed)
        assert rep.max_deviation < 1e-9


def test_covariance_accepts_large_rotation_roundoff():
    # the random element of seed 43 reaches max|Lambda| = 134 here, so the
    # roundoff of Lambda^T eta Lambda (8.1e-12) passes an absolute 1e-12
    # bound although it is within roundoff of max|Lambda|^2; the rotated
    # frame magnifies the Einstein block's roundoff the same way
    cfg = reissner_nordstrom(M=1, Q=0.3).kaluza_config()
    pt = (-0.9128085893263544, 9.632019092808104, 0.4245889119090775, 3.0369723400035937)
    rep = covariance_check(cfg, pt, seed=43)
    assert max(rep.field_strength, rep.constraint, rep.potential) < 1e-12
    assert rep.maxwell_block < 1e-6 and rep.einstein_block < 1e-4


def test_covariance_on_solution_keeps_residuals_zero():
    rn = reissner_nordstrom(M=1.0, Q=0.5).kaluza_config()
    pt = (0.0, 4.0, 1.2, 0.3)
    rng = np.random.default_rng(5)
    gen = random_so_generator(rng, SIG4, amplitude=0.2)
    f_poly = Poly.random(rng, 4, degree=3, amplitude=0.2)
    cfg2 = transform_config(rn, gen, f_poly)
    assert np.abs(einstein_maxwell_residual(cfg2, pt)).max() < 1e-7
    assert np.abs(maxwell_residual(cfg2, pt).divergence).max() < 1e-8


def test_config_validation():
    with pytest.raises(ValueError):
        KaluzaConfig(tetrad=minkowski(dim=5).tetrad,
                     potential=(0.0, 0.0, 0.0, 0.0), k=1.0, params={})
    with pytest.raises(ValueError):
        KaluzaConfig(tetrad=minkowski().tetrad, potential=(0.0, 0.0), k=1.0,
                     params={})


class _CountingTetrad:
    """Coframe provider that delegates to ``field`` and counts evaluations."""

    def __init__(self, field):
        self._field = field
        self.signature = field.signature
        self.dim = field.dim
        self.calls = 0

    def eval_jets(self, jets):
        self.calls += 1
        return self._field.eval_jets(jets)


class _CountingEntry:
    """Potential entry that delegates to ``eval_entry`` and counts calls."""

    def __init__(self, entry):
        self._entry = entry
        self.calls = 0

    def __call__(self, jets, params):
        self.calls += 1
        return eval_entry(self._entry, jets, params)


def _counting(cfg):
    return KaluzaConfig(tetrad=_CountingTetrad(cfg.tetrad),
                        potential=tuple(_CountingEntry(a) for a in cfg.potential),
                        k=cfg.k, params=cfg.params)


def _run_counted_job(check, cfg, points):
    """``cli.run_job`` on a grid of ``points`` with ``cfg`` as the solution."""
    job = JobConfig.from_dict({"check": check,
                               "solution": {"name": "reissner_nordstrom"},
                               "grid": {"points": [list(p) for p in points]},
                               "tolerance": 1.0})
    resolved = ("counted", {}, cfg.tetrad, cfg)
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(cli, "_resolve_solution", lambda ref: resolved):
        return cli.run_job(job, Path(out), write_csv=False)


def _eval_einstein_maxwell_job(cfg, pt):
    return _run_counted_job("einstein-maxwell", cfg, [pt])


def _covariance(cfg, pt):
    return covariance_check(cfg, pt, seed=900)


# the covariance check evaluates the configuration and its gauge transform,
# which reads the original tetrad and potential once more
@pytest.mark.parametrize("run,evals", [(appendix_chain_check, 1), (reduction_check, 1),
                                       (_eval_einstein_maxwell_job, 1), (_covariance, 2)])
def test_one_tetrad_and_potential_evaluation_per_point(run, evals):
    cfg = _counting(reissner_nordstrom(M=1.0, Q=0.5).kaluza_config())
    pts = [(0.0, 3.0, 1.2, 0.1), (0.0, 6.0, 0.9, 0.4)]
    for pt in pts:
        run(cfg, pt)
    assert cfg.tetrad.calls == evals * len(pts)
    assert [a.calls for a in cfg.potential] == [evals * len(pts)] * 4


RN_POINTS = [(0.1 * n, 3.0 + 0.5 * n, 1.2, 0.1 * n) for n in range(7)]


# the frame expressions are evaluated once per block of grid points; the
# potential only by the checks on the five-dimensional lift
@pytest.mark.parametrize("check", cli.CHECK_KINDS)
def test_one_evaluation_per_block(check):
    cfg = _counting(reissner_nordstrom(M=1.0, Q=0.5).kaluza_config())
    _, report = _run_counted_job(check, cfg, RN_POINTS)
    assert report["n_points"] == len(RN_POINTS)
    assert cfg.tetrad.calls == 1
    pot_evals = 1 if check in cli.KALUZA_CHECKS else 0
    assert [a.calls for a in cfg.potential] == [pot_evals] * 4


def test_blocks_cover_long_grids():
    cfg = _counting(reissner_nordstrom(M=1.0, Q=0.5).kaluza_config())
    points = [(0.0, 3.0 + 0.01 * n, 1.2, 0.3) for n in range(cli.BLOCK_SIZE + 1)]
    code, report = _run_counted_job("vacuum", cfg, points)
    assert code == 0 and report["n_points"] == len(points)
    assert cfg.tetrad.calls == 2


@pytest.mark.parametrize("seed", [3, 11, 29, 47])
def test_bundle_lift_equals_lifted_field(seed):
    cfg = random_kaluza(seed=seed, amplitude=0.15, k=1.1)
    kp = _KaluzaPoint(cfg, PT)
    ref = evaluate_coframe(lift_coframe(cfg), lift_point(PT))
    assert kp.cp5.x == ref.x
    assert kp.cp5.signature == ref.signature
    assert kp.cp5.det == ref.det
    for name in ("e", "de", "dde", "einv", "E"):
        assert np.array_equal(getattr(kp.cp5, name), getattr(ref, name)), name
    sp_ref = spin_connection(ref)
    assert np.array_equal(kp.sp5.omega, sp_ref.omega)
    assert np.array_equal(kp.sp5.domega, sp_ref.domega)
