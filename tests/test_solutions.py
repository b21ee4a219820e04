import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vielbein import expr, kaluza
from vielbein.expr import Num, parse, polynomial, random_polys, to_text
from vielbein.frame import (
    CoframeField,
    curvature,
    einstein_density,
    evaluate_coframe,
    spin_connection,
)
from vielbein.jets import jet_seed
from vielbein.kaluza import SIG4, _KaluzaPoint, einstein_maxwell_residual, maxwell_residual
from vielbein.pcg import put_words, words
from vielbein.solutions import (
    Poly,
    SOLUTIONS,
    constant_F,
    make_solution,
    minkowski,
    random_kaluza,
    random_polynomial,
    random_so_generator,
    reissner_nordstrom,
    rindler,
    schwarzschild,
    _seeded_rng,
)
from vielbein.tensors import Signature

from conftest import (
    fd_grad,
    poly_value,
    reference_frame_entries,
    reference_random_poly,
    reference_shift,
    reference_so_generator,
)


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
            assert np.abs(curvature(spin_connection(cp))).max() < 1e-10


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


@pytest.mark.parametrize("name", sorted(SOLUTIONS))
def test_sample_points_keep_their_stream(name):
    # n rows of per-axis uniform(lo, hi) draws, from the package's generator
    # and from numpy's, as numpy draws an (n, m) array of them; perfbench
    # draws its grids with numpy's, so this pins its job configs
    sol, seed, n = make_solution(name), 97, 5
    lo, hi = np.array(sol.box).T
    want = [tuple(row) for row in np.random.default_rng(seed).uniform(lo, hi, (n, len(lo))).tolist()]
    assert sol.sample_points(_seeded_rng(seed), n) == want
    assert sol.sample_points(np.random.default_rng(seed), n) == want
    assert all(sol.contains(p) for p in want)


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


def test_one_polynomial_type():
    # the random fields hand the expression module's Poly, the one format
    # that polynomial() reads trees into and eval_polynomials takes
    assert Poly is expr.Poly
    assert type(polynomial(parse("1 + x1*x2", 2), 2)) is Poly
    entries = [e for row in random_polynomial(seed=1).tetrad.entries for e in row]
    assert all(type(e) is Poly for e in [*entries, *random_kaluza(seed=1).potential])


# Every kind of draw the library makes, interleaved: random Polys and SO
# generators (bounded draws on 32-bit halves, one buffered for the next), and
# scalar and matrix uniforms (53-bit doubles, which leave the buffered half).
_BOUNDS = st.floats(-1e300, 1e300)
_DRAWS = st.lists(st.one_of(
    st.tuples(st.just("poly"), st.integers(1, 5), st.integers(0, 4)),
    st.tuples(st.just("so"), st.integers(1, 2), st.integers(1, 3)),
    st.tuples(st.just("uniform"), _BOUNDS, _BOUNDS),
    st.tuples(st.just("matrix"), st.integers(1, 5), _BOUNDS)), max_size=40)


def _draw(rng, op, a, b, reference=False):
    """One draw from ``rng``; ``reference`` takes the Polys and generators
    from the call-by-call reference draws instead of the library's."""
    if op == "poly":
        return (reference_random_poly if reference else Poly.random)(rng, a, b, 0.5)
    if op == "so":
        return (reference_so_generator if reference else random_so_generator)(
            rng, Signature(a, b))
    if op == "uniform":   # numpy refuses high < low; min and max of equal zeros keep their order
        return float(rng.uniform(min(a, b), max(a, b)))
    return rng.uniform(-abs(b), abs(b), size=(a, a)).tolist()


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**256), draws=_DRAWS)
@example(seed=0, draws=[])
@example(seed=2**256, draws=[("poly", 5, 4), ("uniform", 0.0, 1.0), ("so", 2, 3),
                             ("matrix", 3, 1.0), ("poly", 3, 2)])
def test_seeded_rng_is_numpys_stream(seed, draws):
    # seeds up to 2^256 take up to nine 32-bit words, more than the pool's four
    ours, ref = _seeded_rng(seed), np.random.default_rng(seed)
    assert [_draw(ours, *d) for d in draws] == [_draw(ref, *d, reference=True) for d in draws]
    assert (Poly.random(ours, 4, degree=3, amplitude=0.1)
            == Poly.random(ref, 4, degree=3, amplitude=0.1))
    for sig in (Signature(1, 3), Signature(2, 3)):
        assert random_so_generator(ours, sig) == random_so_generator(ref, sig)


class _Drawn(Exception):
    pass


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**64), dim=st.sampled_from([3, 4, 5]),
       amplitude=st.sampled_from([0.0, 0.1, 0.7]))
@example(seed=11, dim=4, amplitude=0.1)
def test_random_fields_are_the_reference_draws(seed, dim, amplitude):
    # every random field holds the Polys that the reference draws call by call
    # from numpy's default_rng(seed); amplitude 0 makes every drawn
    # coefficient zero, which no Poly keeps
    frame = random_polynomial(seed, amplitude, dim).tetrad.entries
    assert [list(row) for row in frame] == reference_frame_entries(seed, amplitude, dim)
    cfg = random_kaluza(seed, amplitude)
    assert ([list(row) for row in cfg.tetrad.entries]
            == reference_frame_entries(seed + 104729, amplitude, 4))
    ref = np.random.default_rng(seed)
    assert list(cfg.potential) == [reference_random_poly(ref, 4, 3, amplitude) for _ in range(4)]
    for sig in (Signature(1, 3), Signature(2, 3)):
        assert (random_so_generator(_seeded_rng(seed), sig, amplitude)
                == reference_so_generator(np.random.default_rng(seed), sig, amplitude))
    # covariance_check draws its rotation generator, then its fiber shift
    point, drawn = (0.1, -0.2, 0.3, 0.05), []

    def spy(cfg, generator, f_poly):
        drawn.append((generator, f_poly))
        raise _Drawn

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kaluza, "transform_config", spy)
        with pytest.raises(_Drawn):
            kaluza.covariance_check(cfg, point, seed)
    s = 1.0 + max(map(abs, point))
    ref = np.random.default_rng(seed)
    generator = reference_so_generator(ref, SIG4, 0.25 / s ** 2, 2)
    assert drawn == [(generator, reference_random_poly(ref, 4, 3, 0.25 / s ** 3))]


@pytest.mark.parametrize("dim, degree", [(3, 2), (5, 4), (4, 3), (1, 0)])
def test_random_polys_redraw_as_numpy_does(dim, degree):
    # a buffered 32-bit half of 0 is one that Lemire's draw rejects for a
    # range of 3 or 5 and takes for a power of two; with it set on both
    # streams, the draw and every draw after it agree with numpy's
    ours, ref = _seeded_rng(9), np.random.default_rng(9)
    for rng in (ours, ref):
        put_words(rng, words(rng)[0], 0)
    polys = random_polys(ours, dim, degree, 0.5, (0.0, 2.0, 0.0))
    want = [reference_random_poly(ref, dim, degree, 0.5) for _ in range(3)]
    want[1] = reference_shift(want[1], 2.0)
    assert polys == want
    assert Poly.random(ours, 5, 2, 0.5) == reference_random_poly(ref, 5, 2, 0.5)
    assert ours.uniform(-1, 1) == ref.uniform(-1, 1)


def test_random_polys_refuse_what_they_cannot_draw():
    # the draw reads PCG64 state words: other bit generators, and objects
    # that only make the two draws, are refused
    for rng in (np.random.Generator(np.random.MT19937(1)), np.random.RandomState(1)):
        with pytest.raises(TypeError, match="PCG64"):
            Poly.random(rng, 4, 3, 0.1)
    for dim, degree in ((0, 3), (4, -1)):
        with pytest.raises(ValueError):
            Poly.random(_seeded_rng(1), dim, degree, 0.1)


def test_seeded_rng_refuses_what_numpy_refuses():
    ours, ref = _seeded_rng(5), np.random.default_rng(5)
    for rng in (ours, ref):
        for low, high in ((-1e308, 1e308), (0.0, float("inf")), (0.0, float("nan"))):
            with pytest.raises(OverflowError):
                rng.uniform(low, high)
        for low, high in ((1.0, 0.0), (0.0, -0.0)):
            with pytest.raises(ValueError):
                rng.uniform(low, high)
    for make in (_seeded_rng, np.random.default_rng):
        with pytest.raises(TypeError):
            make(3.0)
        with pytest.raises(ValueError):
            make(-3)


@pytest.mark.parametrize("make", [schwarzschild, reissner_nordstrom])
def test_named_solutions_walk_their_lapse_once(make, monkeypatch):
    # e^1 = 1/lapse divides by the lapse tree of e^0 itself, so one tetrad
    # evaluation, at a point, on a block and inside an appendix-chain block,
    # takes one sqrt; the jets are those of the entries parsed apart, bit for bit
    sol = make()
    sqrt, calls = expr._FUNCTIONS["sqrt"], []
    monkeypatch.setitem(expr._FUNCTIONS, "sqrt", lambda u: calls.append(u) or sqrt(u))
    apart = CoframeField([[e if isinstance(e, float) else parse(to_text(e), 4) for e in row]
                          for row in sol.tetrad.entries], sol.tetrad.signature, sol.params)
    points = sol.sample_points(_seeded_rng(5), 12)
    for pts in (points, points[0]):
        calls.clear()
        got = sol.tetrad.eval_jets(jet_seed(pts))
        assert len(calls) == 1
        want = apart.eval_jets(jet_seed(pts))
        assert len(calls) == 3
        for a, b in ((got.val, want.val), (got.jac, want.jac), (got.hess, want.hess)):
            assert a.tobytes() == b.tobytes()
    if sol.potential is not None:
        calls.clear()
        _KaluzaPoint(sol.kaluza_config(), points).chain()
        assert len(calls) == 1
