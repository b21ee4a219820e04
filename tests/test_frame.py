import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vielbein import frame, kaluza
from vielbein.frame import (
    CoframeField,
    DegenerateFrameError,
    coordinate_oracle,
    curvature,
    curvature_to_coordinate,
    einstein_density,
    epsilon_pair,
    eval_entries,
    evaluate_coframe,
    frame_compound,
    kretschmann_scalar,
    spin_connection,
    spin_connection_via_christoffels,
    torsion_residual,
)
from vielbein.expr import eval_jet, parse
from vielbein.jets import jet_seed
from vielbein.jetlinalg import contract
from vielbein.kaluza import lift_coframe, lift_point
from vielbein.solutions import (
    minkowski,
    random_kaluza,
    random_polynomial,
    rindler,
    schwarzschild,
)
from vielbein.tensors import Signature

from conftest import (
    connection_via_metric,
    dense_epsilon_pair,
    dense_metric_inverse,
    metric,
    sigma,
)

RINDLER_PT = (0.3, 2.0, -0.5, 1.0)
SCHW_PT = (0.0, 4.0, math.pi / 2, 0.3)


def test_minkowski_coframe_point():
    cp = evaluate_coframe(minkowski().tetrad, (0.1, 0.2, 0.3, 0.4))
    assert np.array_equal(cp.e, np.eye(4))
    assert np.count_nonzero(cp.de) == 0
    assert np.count_nonzero(cp.E) == 0
    assert np.array_equal(metric(cp), np.diag([-1.0, 1, 1, 1]))
    sp = spin_connection(cp)
    assert np.count_nonzero(sp.omega) == 0
    assert np.count_nonzero(curvature(sp)) == 0
    assert np.count_nonzero(einstein_density(cp, curvature(sp))) == 0


def test_rindler_coframe_point():
    cp = evaluate_coframe(rindler().tetrad, RINDLER_PT)
    assert cp.e[0, 0] == 2.0
    assert cp.de[0, 0, 1] == 1.0
    # E^1_{12} = (d_2 e^1_1 - d_1 e^1_2) / 2
    assert cp.E[0, 0, 1] == 0.5
    g = metric(cp)
    assert g[0, 0] == -4.0
    assert np.array_equal(g[1:, 1:], np.eye(3))


def test_rindler_sigma_component():
    # Sigma^1_{21} = e^1_1 E^1_{12} = (1/2) * (1/2), by hand contraction
    cp = evaluate_coframe(rindler().tetrad, RINDLER_PT)
    s = sigma(cp)
    assert s[0, 1, 0] == pytest.approx(0.25, abs=1e-15)
    # antisymmetry in the lower pair, inherited from the derivative block
    assert np.allclose(s.swapaxes(1, 2), -s)


def test_rindler_spin_connection():
    # oracle: coordinate Christoffels of diag(-(x2)^2, 1, 1, 1) are
    # Gamma^1_{12} = 1/x2 and Gamma^2_{11} = x2, giving omega_1^{12} = 1
    cp = evaluate_coframe(rindler().tetrad, RINDLER_PT)
    sp = spin_connection(cp)
    assert sp.omega[0, 0, 1] == pytest.approx(1.0, abs=1e-14)
    nz = np.abs(sp.omega) > 1e-14
    assert nz.sum() == 2  # the antisymmetric pair only


def test_rindler_oracle_christoffels_and_flatness():
    orc = coordinate_oracle(rindler().tetrad, RINDLER_PT)
    x2 = RINDLER_PT[1]
    assert orc.gamma[0, 0, 1] == pytest.approx(1 / x2, abs=1e-14)
    assert orc.gamma[0, 1, 0] == pytest.approx(1 / x2, abs=1e-14)
    assert orc.gamma[1, 0, 0] == pytest.approx(x2, abs=1e-14)
    assert np.abs(orc.riemann).max() < 1e-13
    cp = evaluate_coframe(rindler().tetrad, RINDLER_PT)
    assert np.abs(curvature(spin_connection(cp))).max() < 1e-13


def test_degenerate_frame_rejected():
    entries = [[0.0] * 4 for _ in range(4)]
    entries[1][1] = entries[2][2] = entries[3][3] = 1.0
    field = CoframeField(entries, Signature(1, 3))
    with pytest.raises(DegenerateFrameError):
        evaluate_coframe(field, (0.0, 0.0, 0.0, 0.0))


def test_expression_domain_error_propagates():
    from vielbein.expr import EvalError

    with pytest.raises(EvalError):
        evaluate_coframe(schwarzschild(1.0).tetrad, (0.0, 1.0, 1.2, 0.3))


def test_inverse_identity_both_ways(rng):
    sol = random_polynomial(seed=12, amplitude=0.15, dim=5)
    for pt in sol.sample_points(rng, 5):
        cp = evaluate_coframe(sol.tetrad, pt)
        assert np.abs(cp.e @ cp.einv - np.eye(5)).max() < 1e-12
        assert np.abs(cp.einv @ cp.e - np.eye(5)).max() < 1e-12


def test_schwarzschild_metric_value():
    cp = evaluate_coframe(schwarzschild(1.0).tetrad, SCHW_PT)
    g = metric(cp)
    assert g[0, 0] == pytest.approx(-0.5, abs=1e-14)       # -(1 - 2M/r) at r=4
    assert g[1, 1] == pytest.approx(2.0, abs=1e-14)
    assert g[2, 2] == pytest.approx(16.0, abs=1e-13)
    gi = dense_metric_inverse(cp)
    assert np.allclose(gi @ g, np.eye(4), atol=1e-13)


def test_schwarzschild_vacuum_and_kretschmann():
    sol = schwarzschild(1.0)
    for r in np.linspace(3.0, 10.0, 5):
        pt = (0.0, float(r), 1.2, 0.3)
        cp = evaluate_coframe(sol.tetrad, pt)
        sp = spin_connection(cp)
        cv = curvature(sp)
        assert np.abs(einstein_density(cp, cv)).max() < 1e-8
        k = kretschmann_scalar(cp, cv)
        assert k == pytest.approx(48.0 / r**6, rel=1e-7)


def test_schwarzschild_connection_against_oracle():
    sol = schwarzschild(1.0)
    cp = evaluate_coframe(sol.tetrad, SCHW_PT)
    sp = spin_connection(cp)
    orc = coordinate_oracle(sol.tetrad, SCHW_PT)
    rebuilt = spin_connection_via_christoffels(cp, orc.gamma)
    assert np.abs(sp.omega - rebuilt).max() < 1e-12
    assert np.abs(curvature_to_coordinate(cp, curvature(sp)) - orc.riemann).max() < 1e-12


def test_schwarzschild_connection_textbook_components():
    # static tetrad: the azimuthal row carries the -cos(theta) pattern, the
    # polar row -sqrt(1 - 2M/r), the time row M/r^2
    pt = (0.0, 4.0, 1.2, 0.3)
    sp = spin_connection(evaluate_coframe(schwarzschild(1.0).tetrad, pt))
    r, th = pt[1], pt[2]
    assert sp.omega[3, 2, 3] == pytest.approx(-math.cos(th), abs=1e-13)
    assert sp.omega[2, 1, 2] == pytest.approx(-math.sqrt(1 - 2 / r), abs=1e-13)
    assert sp.omega[3, 1, 3] == pytest.approx(-math.sin(th) * math.sqrt(1 - 2 / r),
                                              abs=1e-13)
    assert sp.omega[0, 0, 1] == pytest.approx(1 / r**2, abs=1e-13)


def test_oracle_against_plain_finite_differences():
    # independent derivative route: central differences of raw metric values,
    # no jets anywhere in the differentiation path
    sol = schwarzschild(1.0)
    pt = np.array(SCHW_PT)
    orc = coordinate_oracle(sol.tetrad, SCHW_PT)

    def g_at(p):
        return metric(evaluate_coframe(sol.tetrad, tuple(p)))

    h = 1e-6
    dg = np.zeros((4, 4, 4))
    for k in range(4):
        dp, dm = pt.copy(), pt.copy()
        dp[k] += h
        dm[k] -= h
        dg[..., k] = (g_at(dp) - g_at(dm)) / (2 * h)
    s = dg.transpose(0, 2, 1) + dg - dg.transpose(2, 0, 1)
    gamma_fd = 0.5 * np.einsum("kl,lij->kij", np.linalg.inv(g_at(pt)), s)
    assert np.abs(gamma_fd - orc.gamma).max() < 1e-7

    def gamma_at(p):
        o = coordinate_oracle(sol.tetrad, tuple(p))
        return o.gamma

    dgam = np.zeros((4, 4, 4, 4))
    for k in range(4):
        dp, dm = pt.copy(), pt.copy()
        dp[k] += h
        dm[k] -= h
        dgam[..., k] = (gamma_at(dp) - gamma_at(dm)) / (2 * h)
    gam = orc.gamma
    riem_fd = (np.einsum("adbc->abcd", dgam) - np.einsum("acbd->abcd", dgam)
               + np.einsum("ace,edb->abcd", gam, gam)
               - np.einsum("ade,ecb->abcd", gam, gam))
    assert np.abs(riem_fd - orc.riemann).max() < 1e-6


def test_scalar_invariants_under_gauge(rng):
    # curvature invariants must not feel frame rotations or chart changes
    from vielbein.gauge import gauge_transform_frame
    from vielbein.solutions import random_gauge_element

    sol = schwarzschild(1.0)
    pt = (0.0, 5.0, 1.1, 0.7)
    cp = evaluate_coframe(sol.tetrad, pt)
    k0 = kretschmann_scalar(cp, curvature(spin_connection(cp)))
    for seed in range(4):
        ge = random_gauge_element(seed=800 + seed, sig=Signature(1, 3), kind="mixed")
        cpb = gauge_transform_frame(cp, ge)
        kb = kretschmann_scalar(cpb, curvature(spin_connection(cpb)))
        assert kb == pytest.approx(k0, rel=1e-9)


def test_torsion_roundtrip_random_frames(rng):
    sol = random_polynomial(seed=5, amplitude=0.12)
    for pt in sol.sample_points(rng, 20):
        cp = evaluate_coframe(sol.tetrad, pt)
        sp = spin_connection(cp)
        assert np.abs(torsion_residual(cp, sp)).max() < 1e-10


def test_torsion_residual_detects_perturbation():
    cp = evaluate_coframe(minkowski().tetrad, (0.0, 0.0, 0.0, 0.0))
    sp = spin_connection(cp)
    omega = sp.omega.copy()
    omega[2, 0, 1] += 0.1
    omega[2, 1, 0] -= 0.1
    bad = type(sp)(omega=omega, domega=sp.domega, signature=sp.signature)
    res = torsion_residual(cp, bad)
    # linear response: residual picks up -/+ 0.1 * e^nu_j on the perturbed slots
    assert res[0, 2, 1] == pytest.approx(-0.1, abs=1e-14)
    assert res[0, 1, 2] == pytest.approx(0.1, abs=1e-14)


def _metric_route_points(rng):
    """Frame points of random_polynomial entries at dims 3-5 (the dim-4
    entries also under signatures (0, 4) and (2, 2)) and of lifted
    random_kaluza configs."""
    for dim in (3, 4, 5):
        sol = random_polynomial(seed=40 + dim, amplitude=0.15, dim=dim)
        fields = [sol.tetrad]
        if dim == 4:
            fields += [CoframeField(sol.tetrad.entries, Signature(p, 4 - p))
                       for p in (0, 2)]
        for field in fields:
            for pt in sol.sample_points(rng, 3):
                yield evaluate_coframe(field, pt)
    for seed in range(4):
        cfg = random_kaluza(seed=seed, amplitude=0.12)
        for pt in rng.uniform(-0.8, 0.8, (2, 4)):
            yield evaluate_coframe(lift_coframe(cfg), lift_point(pt))


def test_connection_matches_metric_route(rng):
    signatures = set()
    for cp in _metric_route_points(rng):
        signatures.add((cp.signature.p, cp.signature.q))
        sp = spin_connection(cp)
        ref = connection_via_metric(cp)
        np.testing.assert_allclose(sp.omega, ref.val, rtol=0, atol=1e-13)
        np.testing.assert_allclose(sp.domega, ref.jac, rtol=0, atol=1e-13)
    assert signatures == {(1, 2), (1, 3), (0, 4), (2, 2), (1, 4)}


def test_connection_uses_no_metric_inverse(monkeypatch, rng):
    # the frame inverse is the only matrix inverse per point; the connection
    # is two jet contractions of the frame jets
    counts = {"jet_matinv": 0, "jet_einsum": 0}

    def counting(name):
        real = getattr(frame, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(frame, name, counting(name))
    sol = random_polynomial(seed=8, amplitude=0.15)
    cp = evaluate_coframe(sol.tetrad, sol.sample_points(rng, 1)[0])
    assert counts == {"jet_matinv": 1, "jet_einsum": 0}
    spin_connection(cp)
    assert counts == {"jet_matinv": 1, "jet_einsum": 2}


def test_omega_antisymmetry_exact(rng):
    sol = random_polynomial(seed=8, amplitude=0.15, dim=5)
    for pt in sol.sample_points(rng, 5):
        sp = spin_connection(evaluate_coframe(sol.tetrad, pt))
        assert np.abs(sp.omega + sp.omega.transpose(0, 2, 1)).max() == 0.0


def test_curvature_antisymmetries_and_bianchi(rng):
    sol = random_polynomial(seed=9, amplitude=0.15)
    for pt in sol.sample_points(rng, 5):
        cp = evaluate_coframe(sol.tetrad, pt)
        cv = curvature(spin_connection(cp))
        assert np.abs(cv + cv.transpose(1, 0, 2, 3)).max() == 0.0
        assert np.abs(cv + cv.transpose(0, 1, 3, 2)).max() < 1e-13
        rc = curvature_to_coordinate(cp, cv)
        cyc = rc + rc.transpose(0, 2, 3, 1) + rc.transpose(0, 3, 1, 2)
        assert np.abs(cyc).max() < 1e-9


def test_einstein_density_proportional_to_oracle(rng):
    # non-vacuum frame: density = det(e) * G^l_j e^j_rho with unit constant
    entries = [[1.0 if mu == i else 0.0 for i in range(4)] for mu in range(4)]
    entries[0][0] = parse("1 + 0.1*x2^2", 4)
    field = CoframeField(entries, Signature(1, 3))
    ratios = []
    for pt in [(0.0, 0.8, 0.0, 0.0), (0.0, -0.5, 0.2, 0.1), (0.3, 1.2, -0.4, 0.6)]:
        cp = evaluate_coframe(field, pt)
        dens = einstein_density(cp, curvature(spin_connection(cp)))
        orc = coordinate_oracle(field, pt)
        ref = np.linalg.det(cp.e) * np.einsum("lj,jr->lr", orc.einstein, cp.einv)
        mask = np.abs(ref) > 1e-10
        assert mask.any()
        ratios.extend((dens[mask] / ref[mask]).ravel())
    assert np.allclose(ratios, 1.0, atol=1e-9)


def test_oracle_connection_consistency_random(rng):
    # frame-side assembly against the Christoffel route on random frames
    for trial in range(8):
        sol = random_polynomial(seed=100 + trial, amplitude=0.12)
        pt = sol.sample_points(rng, 1)[0]
        cp = evaluate_coframe(sol.tetrad, pt)
        sp = spin_connection(cp)
        orc = coordinate_oracle(sol.tetrad, pt)
        assert np.abs(sp.omega - spin_connection_via_christoffels(cp, orc.gamma)).max() < 1e-9
        assert np.abs(curvature_to_coordinate(cp, curvature(sp)) - orc.riemann).max() < 1e-8


def test_einstein_density_needs_three_dimensions():
    entries = [[1.0, 0.0], [0.0, 1.0]]
    field = CoframeField(entries, Signature(0, 2))
    cp = evaluate_coframe(field, (0.0, 0.0))
    with pytest.raises(ValueError):
        einstein_density(cp, curvature(spin_connection(cp)))


def test_field_entry_validation():
    with pytest.raises(ValueError):
        CoframeField([[1.0, 0.0]], Signature(1, 1))
    field = CoframeField([[object(), 0.0], [0.0, 1.0]], Signature(0, 2))
    with pytest.raises(TypeError):
        evaluate_coframe(field, (0.0, 0.0))


@pytest.mark.parametrize("points", [(0.5, -1.5), [(0.5, -1.5), (2.0, 0.25), (-1.0, 3.0)]])
def test_eval_entries_equal_stacked_full_jets(points):
    # plain numbers (literal, constant expression, a callable's number, -0.0)
    # go into zeroed stacks; each entry's slice of the C-ordered stacks of
    # shape batch + (3, 3) + derivative axes equals its full jet, bit for bit
    # (a -0.0 entry reads +0.0, as in full_like)
    jets = jet_seed(np.array(points))
    batch = np.shape(jets[0].val)
    params = {"M": 2.0}
    entries = [parse("x1*x2", 2), 2.5, parse("3*M", 2), lambda js, p: 0.5,
               parse("sin(x2)", 2), -0.0, parse("-0", 2), lambda js, p: js[0] * p["M"],
               parse("x2", 2)]

    def full_jet(entry):
        out = (entry(jets, params) if callable(entry) else entry if isinstance(entry, float)
               else eval_jet(entry, jets, params))
        return jets[0].full_like(out) if isinstance(out, float) else out

    got = eval_entries(entries, jets, params, (3, 3))
    assert got.val.shape == batch + (3, 3)
    assert got.jac.shape == batch + (3, 3, 2) and got.hess.shape == batch + (3, 3, 2, 2)
    for a in (got.val, got.jac, got.hess):
        assert a.flags.c_contiguous
    for k, entry in enumerate(entries):
        want = full_jet(entry)
        r, c = divmod(k, 3)
        assert got.val[..., r, c].tobytes() == want.val.tobytes()
        assert got.jac[..., r, c, :].tobytes() == want.jac.tobytes()
        assert got.hess[..., r, c, :, :].tobytes() == want.hess.tobytes()
    with pytest.raises(ValueError):
        eval_entries(entries, jets, params, (2, 4))
    with pytest.raises(ValueError):
        eval_entries(entries, jets, params, (10,))


def test_block_arrays_are_c_contiguous():
    # every frame and potential array is laid out C-ordered, so contract
    # never copies one to restack it
    block = np.array([[0.1, 4.0, 1.2, 0.3], [0.2, 5.0, 1.4, -0.3], [0.0, 6.5, 2.0, 0.9]])
    cp = evaluate_coframe(schwarzschild(M=1.0).tetrad, block)
    for name in ("e", "de", "dde", "einv", "deinv", "E", "det"):
        assert getattr(cp, name).flags.c_contiguous, name
    cfg = random_kaluza(seed=3)
    for jet in kaluza.config_jets(cfg, jet_seed(block)):
        for a in (jet.val, jet.jac, jet.hess):
            assert a.flags.c_contiguous


def test_dimension_six_smoke(rng):
    # beyond the production dimensions, the assembly still closes
    sol = random_polynomial(seed=61, amplitude=0.08, dim=6)
    pt = sol.sample_points(rng, 1)[0]
    cp = evaluate_coframe(sol.tetrad, pt)
    sp = spin_connection(cp)
    assert np.abs(torsion_residual(cp, sp)).max() < 1e-10
    orc = coordinate_oracle(sol.tetrad, pt)
    assert np.abs(sp.omega - spin_connection_via_christoffels(cp, orc.gamma)).max() < 1e-9
    dens = einstein_density(cp, curvature(sp))
    ref = np.linalg.det(cp.e) * np.einsum("lj,jr->lr", orc.einstein, cp.einv)
    assert np.allclose(dens, ref, atol=1e-9)


@st.composite
def _epsilon_cases(draw):
    """An ``epsilon_pair`` call as the library makes them: dimension m,
    ``n_e`` tied frame factors, and every tail letter either kept in the
    output (at most three) or shared with one of up to three extra operands
    (at most four each), which may also share letters of their own (sizes
    1-3) among themselves; as in the library, no letter is summed inside one
    operand."""
    m = draw(st.integers(3, 5))
    n_e = draw(st.integers(0, m - 2))
    k = m - n_e
    letters = "".join(draw(st.permutations("ghijklnorstxyz")))
    coord_tail, frame_tail, own = letters[:k], letters[k:2 * k], letters[2 * k:2 * k + 2]
    sizes = dict.fromkeys(coord_tail + frame_tail, m)
    sizes.update(zip(own, draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))))
    tails = draw(st.permutations(coord_tail + frame_tail))
    n_out = draw(st.integers(max(0, 2 * k - 12), 3))
    out, shared = "".join(tails[:n_out]), tails[n_out:]
    # consecutive runs of at most four shared letters, one per extra operand
    n_x = draw(st.integers(max(1, -(-len(shared) // 4)), 3))
    extras = []
    for x in range(n_x):
        left = 4 * (n_x - x - 1)
        size = (len(shared) if x == n_x - 1 else
                draw(st.integers(max(0, len(shared) - left), min(4, len(shared)))))
        mine, shared = list(shared[:size]), shared[size:]
        mine += draw(st.lists(st.sampled_from(own), max_size=2, unique=True))
        extras.append(mine or [own[0]])
    # an own letter in one extra operand only is shared with the next one,
    # or dropped when there is no other (the last holds a tail letter)
    for c in own:
        holders = [x for x, mine in enumerate(extras) if c in mine]
        if len(holders) == 1 and n_x == 1:
            extras[0].remove(c)
        elif len(holders) == 1:
            extras[(holders[0] + 1) % n_x].append(c)
    extras = ["".join(draw(st.permutations(x))) for x in extras]
    return m, n_e, coord_tail, frame_tail, extras, out, sizes


@settings(deadline=None, max_examples=40)
@given(case=_epsilon_cases(), seed=st.integers(0, 2**16))
def test_epsilon_pair_matches_dense_symbols_and_is_batch_invariant(case, seed):
    # the sum over sorted slot subsets (frame minors against dual tables)
    # equals the dense two-symbol contraction, and each batch row equals the
    # unbatched call bit for bit
    m, n_e, coord_tail, frame_tail, extras, out, sizes = case
    args = (coord_tail, frame_tail, extras, out)
    rng = np.random.default_rng(seed)
    for n in (1, 3, 16):
        e = rng.standard_normal((n, m, m))
        ops = [rng.standard_normal((n,) + tuple(sizes[c] for c in x)) for x in extras]
        rows = epsilon_pair(e, *args, *ops)
        want = dense_epsilon_pair(e, n_e, *args, *ops) / math.factorial(n_e)
        bound = 1e-13 * dense_epsilon_pair(e, n_e, *args, *ops, absolute=True) / math.factorial(n_e)
        assert rows.shape == want.shape and np.all(np.abs(rows - want) <= bound)
        for row in range(n):
            one = epsilon_pair(e[row], *args, *[op[row] for op in ops])
            assert np.asarray(one).tobytes() == rows[row].tobytes(), (case, n, row)


def test_epsilon_pair_takes_any_number_of_frame_factors(rng):
    # m=7 with five tied frame factors: no limit on n_e
    e = rng.standard_normal((7, 7))
    u = rng.standard_normal((7, 7))
    got = epsilon_pair(e, "ij", "st", ["is"], "jt", u)
    want = dense_epsilon_pair(e, 5, "ij", "st", ["is"], "jt", u) / math.factorial(5)
    bound = 1e-13 * dense_epsilon_pair(e, 5, "ij", "st", ["is"], "jt", u,
                                       absolute=True) / math.factorial(5)
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("m,tail", [(2, "lij"), (1, "ij"), (4, "abcde")])
def test_epsilon_pair_refuses_a_tail_longer_than_the_dimension(m, tail):
    with pytest.raises(ValueError, match=f"tail '{tail}'.*m = {m}"):
        epsilon_pair(np.eye(m), tail, "rst"[:len(tail)], [], "")


@pytest.mark.parametrize("m", range(2, 7))
def test_frame_compound_equals_the_dense_dual_contraction(m, rng):
    # the frame side of epsilon_pair, one signed minor per entry, equals the
    # contraction of the dual table against the same minors for every n_e,
    # on a batch and at a point, a frame with exact zeros included; the sign
    # of a zero is the one difference allowed.  Each batch row is its point
    # alone, bit for bit
    frames = [rng.standard_normal((5, m, m)), rng.standard_normal((m, m)),
              np.diag(rng.uniform(0.5, 2.0, m))]
    for n_e in range(m + 1):
        dual, flat, sign, *_ = frame._compound_tables(m, n_e)
        tail = "abcdeg"[:m - n_e]
        subsets = list(itertools.combinations(range(m), n_e))
        for e in frames:
            terms = np.take(e.reshape(e.shape[:-2] + (m * m,)), flat, axis=-1)
            minors = (terms.prod(axis=-3) * sign).sum(axis=-3)     # [..., Q, F]
            dets = np.stack([np.stack([np.linalg.det(e[..., f, :][..., q]) if n_e
                                       else np.ones(e.shape[:-2]) for f in subsets], -1)
                             for q in subsets], -2)
            assert np.allclose(minors, dets, rtol=1e-12, atol=1e-12)
            want = contract(f"F{tail},...QF->...Q{tail}", dual, minors)
            got = frame_compound(e, n_e)
            assert got.shape == want.shape == e.shape[:-2] + (len(subsets),) + (m,) * len(tail)
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), (m, n_e, e.shape)
            for row in range(len(e) if e.ndim == 3 else 0):
                assert got[row].tobytes() == frame_compound(e[row], n_e).tobytes()


def test_frame_points_build_each_compound_once(monkeypatch):
    # a frame point caches its compound per n_e; epsilon_pair on the point
    # equals the call on its bare frame array bit for bit
    cp = evaluate_coframe(random_polynomial(seed=3).tetrad,
                          np.random.default_rng(2).uniform(-0.5, 0.5, (6, 4)))
    built, build = [], frame.frame_compound
    monkeypatch.setattr(frame, "frame_compound",
                        lambda e, n_e: built.append(n_e) or build(e, n_e))
    u = np.random.default_rng(3).standard_normal((6, 4, 4))
    cases = [("lij", "rst", ["jt"], "lirs"), ("li", "rs", ["ls"], "ir")] * 2
    got = [epsilon_pair(cp, *tails, u) for tails in cases]
    assert built == [1, 2] and cp.compound(1) is cp.compound(1)
    for tails, block in zip(cases, got):
        assert block.tobytes() == epsilon_pair(cp.e, *tails, u).tobytes()
