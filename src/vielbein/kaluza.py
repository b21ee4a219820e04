"""Constrained five-dimensional lift: gravity plus electromagnetism.

A four-dimensional tetrad and a potential A_i are packed into a 5x5 coframe
with fifth row (-k A_i, 1) and fifth column zero; the frame machinery then
runs at m=5 unchanged.  The cylinder condition (no dependence on the fifth
coordinate) holds by construction because entries never reference x5.

The module verifies, for arbitrary smooth configurations, that the 5D
torsion-free connection collapses to closed forms in the field strength
(reduction identities), and that the constrained field equations decompose
into the four-dimensional Einstein block sourced by the electromagnetic
stress tensor plus the Maxwell divergence block.

As in the frame layer, the checks (bar the covariance check) take any
leading batch shape, and each row equals that point's own result bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .expr import Expr
from .frame import (
    CoframePoint,
    SpinConnectionPoint,
    _coframe_point_from_jets,
    curvature,
    einstein_density,
    eval_entries,
    eval_entry,
    metric_inverse,
    omega_mixed,
    spin_connection,
)
from .gauge import GaugeElement, gauge_transform_frame
from .jets import JetArray, jet_seed
from .jetlinalg import contract, jet_einsum, jet_matexp
from .tensors import Signature, eta, levi_civita
from .variational import SectionPoint, el_residual_frame

__all__ = [
    "SIG4",
    "SIG5",
    "KaluzaConfig",
    "LiftedCoframeField",
    "lift_coframe",
    "config_jets",
    "FieldStrengthPoint",
    "field_strength",
    "StressTensorPoint",
    "em_stress",
    "einstein_maxwell_residual",
    "MaxwellResidual",
    "maxwell_residual",
    "ReductionReport",
    "reduction_check",
    "ChainReport",
    "appendix_chain_check",
    "restricted_gauge_element",
    "transform_config",
    "CovarianceReport",
    "covariance_check",
]

SIG4 = Signature(1, 3)
SIG5 = Signature(1, 4)


@dataclass(frozen=True)
class KaluzaConfig:
    """4D tetrad field, potential entries A_i, and coupling constant k.

    All entries are functions of x1..x4 only (cylinder condition by
    construction).
    """

    tetrad: object                      # coframe field provider, signature (1,3)
    potential: tuple                    # four entries (Expr / number / callable)
    k: float
    params: Mapping[str, float]

    def __post_init__(self):
        if self.tetrad.signature != SIG4:
            raise ValueError("tetrad must have signature (1,3)")
        if len(self.potential) != 4:
            raise ValueError("potential needs exactly four entries")


def config_jets(cfg: KaluzaConfig, jets: Sequence[JetArray]) -> tuple[JetArray, JetArray]:
    """The tetrad and the potential at the seeded jets, each evaluated once:
    tetrad val[..., mu, i] = e^mu_i, potential val[..., a] = A_a."""
    return (cfg.tetrad.eval_jets(jets),
            eval_entries(cfg.potential, jets, cfg.params, (4,)))


def _lift_jets(tet: JetArray, pot: JetArray, k: float, nd: int) -> JetArray:
    """5x5 coframe jets over ``nd`` base coordinates: tetrad block, fifth row
    (-k A_i, 1), fifth column zero.  Derivative slots past the operands' own
    stay zero, which is the cylinder condition."""
    n = tet.dim
    batch = np.shape(pot.val)[:-1]
    val = np.zeros(batch + (5, 5))
    jac = np.zeros(batch + (5, 5, nd))
    hess = np.zeros(batch + (5, 5, nd, nd))
    val[..., :4, :4] = tet.val
    jac[..., :4, :4, :n] = tet.jac
    hess[..., :4, :4, :n, :n] = tet.hess
    val[..., 4, :4] = -k * pot.val
    jac[..., 4, :4, :n] = -k * pot.jac
    hess[..., 4, :4, :n, :n] = -k * pot.hess
    val[..., 4, 4] = 1.0
    return JetArray(val, jac, hess)


class LiftedCoframeField:
    """5D coframe provider assembled from a Kaluza configuration."""

    signature = SIG5
    dim = 5

    def __init__(self, cfg: KaluzaConfig):
        self.cfg = cfg

    def eval_jets(self, jets: Sequence[JetArray]) -> JetArray:
        return _lift_jets(*config_jets(self.cfg, jets), self.cfg.k, jets[0].dim)


def lift_coframe(cfg: KaluzaConfig) -> LiftedCoframeField:
    return LiftedCoframeField(cfg)


def lift_point(point: Sequence[float], x5: float = 0.0) -> tuple[float, ...]:
    return tuple(float(c) for c in point) + (float(x5),)


@dataclass(frozen=True)
class FieldStrengthPoint:
    """F in both charts: f_coord[a, b] = d_b A_a - d_a A_b, with exact
    coordinate derivatives, frame components, and eta-raised variants."""

    f_coord: np.ndarray        # F_{ab}
    df_coord: np.ndarray       # d_c F_{ab}, derivative axis last
    f_frame: np.ndarray        # F_{mu nu}
    f_frame_up: np.ndarray     # F^{mu nu}
    f_frame_mixed: np.ndarray  # F^mu_nu

    @property
    def invariant(self) -> float | np.ndarray:
        """F_{mu nu} F^{mu nu}."""
        return contract("...mn,...mn->...", self.f_frame, self.f_frame_up)


@dataclass(frozen=True)
class StressTensorPoint:
    T: np.ndarray              # mixed: coordinate index up, frame index down


def em_stress(cp: CoframePoint, fs: FieldStrengthPoint) -> StressTensorPoint:
    """Electromagnetic stress: quarter-trace term plus the F.F contraction;
    traceless in four dimensions."""
    gi = metric_inverse(cp)
    f = fs.f_coord
    f_up = contract("...aj,...bi,...ji->...ab", gi, gi, f)
    fsq = contract("...ji,...ji->...", f, f_up)
    fmix = gi @ f                      # F^a_b
    t = (0.25 * fsq[..., None, None] * cp.einv
         + contract("...lj,...ji,...ir->...lr", fmix, fmix, cp.einv))
    return StressTensorPoint(T=t)


@dataclass(frozen=True)
class MaxwellResidual:
    raw: np.ndarray            # density-weighted residual, frame index up
    divergence: np.ndarray     # covariant divergence of F^{alpha beta}


@dataclass(frozen=True)
class ReductionReport:
    """Per-point max deviations of the 5D connection from its closed reduced forms."""

    fiber_fiber: float | np.ndarray     # omega_5^{rho 5} = 0
    fiber_rotation: float | np.ndarray  # omega_5^{rho lam} + k/2 F^{rho lam} = 0
    mixed_block: float | np.ndarray     # omega_j^{nu 5} + k/2 F^nu_rho e^rho_j = 0
    base_block: float | np.ndarray      # omega_i^{mu nu} - (4D omega + k^2/2 F^{mu nu} A_i) = 0
    vortex: np.ndarray                  # -2 d(e^5), coordinate 2-form coefficients

    @property
    def max_deviation(self) -> float | np.ndarray:
        return np.maximum.reduce([self.fiber_fiber, self.fiber_rotation,
                                  self.mixed_block, self.base_block])


@dataclass(frozen=True)
class ChainReport:
    """Three computational routes to each reduced block, pairwise compared.

    Route 1 evaluates the raw constrained 5D density block, route 2 its
    four-dimensional expansion in connection components, route 3 the final
    closed form (stress-sourced Einstein block / Maxwell divergence block).
    """

    einstein_forms: tuple[np.ndarray, np.ndarray, np.ndarray]
    maxwell_forms: tuple[np.ndarray, np.ndarray, np.ndarray]

    @staticmethod
    def _dev(forms, axes: tuple[int, ...]) -> tuple[float | np.ndarray, ...]:
        f1, f2, f3 = forms
        return tuple(np.abs(a - b).max(axis=axes) for a, b in ((f1, f2), (f1, f3), (f2, f3)))

    @property
    def einstein_deviations(self) -> tuple[float | np.ndarray, ...]:
        return self._dev(self.einstein_forms, (-2, -1))

    @property
    def maxwell_deviations(self) -> tuple[float | np.ndarray, ...]:
        return self._dev(self.maxwell_forms, (-1,))

    @property
    def max_deviation(self) -> float | np.ndarray:
        return np.maximum.reduce([*self.einstein_deviations, *self.maxwell_deviations])


class _KaluzaPoint:
    """A configuration at a point, or at each row of an array of points,
    built from a single evaluation of the tetrad and of each potential
    entry: the 4D frame, its connection and the field strength, and the
    lifted 5D frame and connection, each computed on first use."""

    def __init__(self, cfg: KaluzaConfig, point):
        self.cfg = cfg
        self.tet, self.pot = config_jets(cfg, jet_seed(point))
        self.cp = _coframe_point_from_jets(point, self.tet, SIG4)

    @cached_property
    def sp(self) -> SpinConnectionPoint:
        return spin_connection(self.cp)

    @cached_property
    def cp5(self) -> CoframePoint:
        # the entries never read x5, so padding the 4D jets with zero x5
        # derivatives equals evaluating the lifted field at 5D seeds
        ja = _lift_jets(self.tet, self.pot, self.cfg.k, 5)
        return _coframe_point_from_jets(np.insert(self.cp.x, 4, 0.0, axis=-1), ja, SIG5)

    @cached_property
    def sp5(self) -> SpinConnectionPoint:
        return spin_connection(self.cp5)

    @cached_property
    def fs(self) -> FieldStrengthPoint:
        da, dda = self.pot.jac, self.pot.hess
        f = da - da.swapaxes(-2, -1)
        df = dda - dda.swapaxes(-3, -2)
        einv = self.cp.einv
        et = eta(SIG4)
        f_frame = contract("...ji,...jm,...in->...mn", f, einv, einv)
        f_frame_up = et @ f_frame @ et
        return FieldStrengthPoint(
            f_coord=f, df_coord=df, f_frame=f_frame, f_frame_up=f_frame_up,
            f_frame_mixed=et @ f_frame,
        )

    def einstein_maxwell(self) -> np.ndarray:
        cp = self.cp
        dens = einstein_density(cp, curvature(self.sp))
        stress = em_stress(cp, self.fs)
        return dens + (0.5 * cp.det * self.cfg.k ** 2)[..., None, None] * stress.T

    def maxwell(self) -> MaxwellResidual:
        cp = self.cp
        et = eta(SIG4)
        f1 = JetArray(self.fs.f_coord, self.fs.df_coord)
        einv1 = JetArray(cp.einv, cp.deinv)
        fup1 = jet_einsum("am,bn,...ji,...jm,...in->...ab", et, et, f1, einv1, einv1)
        wmix = omega_mixed(self.sp)
        term = (fup1.jac
                + contract("...iae,...eb->...abi", wmix, fup1.val)
                + contract("...ibe,...ae->...abi", wmix, fup1.val))
        div = contract("...ib,...abi->...a", cp.einv, term)
        return MaxwellResidual(raw=(0.5 * cp.det * self.cfg.k)[..., None] * div,
                               divergence=div)

    def reduction(self) -> ReductionReport:
        w = self.sp5.omega
        fs = self.fs
        k = self.cfg.k

        dev_a = np.abs(w[..., 4, :4, 4]).max(axis=-1)
        dev_b = np.abs(w[..., 4, :4, :4] + 0.5 * k * fs.f_frame_up).max(axis=(-2, -1))
        target_c = -0.5 * k * contract("...nr,...rj->...jn", fs.f_frame_mixed, self.cp.e)
        dev_c = np.abs(w[..., :4, :4, 4] - target_c).max(axis=(-2, -1))
        target_d = self.sp.omega + 0.5 * k * k * contract("...mn,...i->...imn",
                                                           fs.f_frame_up, self.pot.val)
        dev_d = np.abs(w[..., :4, :4, :4] - target_d).max(axis=(-3, -2, -1))

        de5 = self.cp5.de[..., 4, :4, :4]
        vortex = -2.0 * (de5.swapaxes(-2, -1) - de5)     # -2 (d_a e5_b - d_b e5_a)
        return ReductionReport(fiber_fiber=dev_a, fiber_rotation=dev_b,
                               mixed_block=dev_c, base_block=dev_d, vortex=vortex)

    def chain(self) -> ChainReport:
        cp5, sp5 = self.cp5, self.sp5

        # route 1: raw 5D residual block, sliced into base and fiber rows
        elb5 = el_residual_frame(SectionPoint(cp5, sp5, holonomic=True))
        e_form1 = elb5[..., :4, :4]
        m_form1 = elb5[..., :4, 4]

        # route 2: expansion over 4D-ranged indices in 5D connection
        # components; terms sharing a contraction are summed before it
        w = sp5.omega
        dw = sp5.domega
        wmix = omega_mixed(sp5)
        w44 = w[..., :4, :4, :4]
        wmix44 = wmix[..., :4, :4, :4]
        w_col5 = w[..., :4, :4, 4]           # omega_j^{lam 5}
        w5_44 = w[..., 4, :4, :4]            # omega_5^{lam sig}
        wmix5_44 = wmix[..., 4, :4, :4]      # omega_5^lam_eta
        dw44 = np.einsum("...istj->...ijst", dw[..., :4, :4, :4, :4])
        dw5 = dw[..., 4, :4, :4, :4]         # d_j omega_5^{st} -> [s, t, j]
        e4 = cp5.e[..., :4, :4]
        e5row = cp5.e[..., 4, :4]
        eps4 = levi_civita(4)

        # quadratic block plus the cross term of the fifth column
        base = (dw44 + contract("...jse,...iet->...ijst", wmix44, w44)
                - contract("...js,...it->...ijst", w_col5, w_col5))
        # fiber block minus its back-reaction; the Maxwell column shares it
        fiber = (np.einsum("...stj->...jst", dw5)
                 + contract("...jse,...et->...jst", wmix44, w5_44)
                 - contract("...se,...jet->...jst", wmix5_44, w44))
        fifth = contract("...te,...je->...jt", wmix5_44, w_col5)
        e_form2 = (
            0.5 * contract("plij,nrst,...ijst,...np->...lr", eps4, eps4, base, e4)
            + 0.5 * contract("plij,nrst,...jst,...p,...ni->...lr", eps4, eps4, fiber,
                             e5row, e4)
            + 0.5 * contract("plij,nrst,...jt,...np,...si->...lr", eps4, eps4, fifth,
                             e4, e4))
        fiber_e = contract("qpli,mnst,...ist,...mq->...lnp", eps4, eps4, fiber, e4)
        m_form2 = -0.25 * contract("...lnp,...np->...l", fiber_e, e4)

        # route 3: stress-sourced Einstein block of the tetrad alone, and the
        # divergence form pulled back to a coordinate index
        e_form3 = self.einstein_maxwell()
        m_form3 = contract("...la,...a->...l", self.cp.einv, self.maxwell().raw)

        return ChainReport(
            einstein_forms=(e_form1, e_form2, e_form3),
            maxwell_forms=(m_form1, m_form2, m_form3),
        )


def field_strength(cfg: KaluzaConfig, point: Sequence[float]) -> FieldStrengthPoint:
    return _KaluzaPoint(cfg, point).fs


def einstein_maxwell_residual(cfg: KaluzaConfig, point: Sequence[float]) -> np.ndarray:
    """Curvature density of the tetrad minus the stress source term;
    vanishes on solutions of the coupled system."""
    return _KaluzaPoint(cfg, point).einstein_maxwell()


def maxwell_residual(cfg: KaluzaConfig, point: Sequence[float]) -> MaxwellResidual:
    return _KaluzaPoint(cfg, point).maxwell()


def reduction_check(cfg: KaluzaConfig, point: Sequence[float]) -> ReductionReport:
    """Two-path check: the 5D torsion-free connection of the lifted frame
    against closed forms built from the 4D connection and field strength."""
    return _KaluzaPoint(cfg, point).reduction()


def appendix_chain_check(cfg: KaluzaConfig, point: Sequence[float]) -> ChainReport:
    return _KaluzaPoint(cfg, point).chain()


def restricted_gauge_element(lam4_generator, fiber_shift: Expr | None,
                             base_linear: np.ndarray | None = None) -> GaugeElement:
    """5D gauge element of the block form preserving the constraint: the
    frame rotation acts on the tetrad block only, the chart moves the base
    linearly (optional) and shifts the fiber by f(x1..x4)."""
    from .expr import BinOp, Coord, Num

    gen5 = [[0.0] * 5 for _ in range(5)]
    for i in range(4):
        for j in range(4):
            gen5[i][j] = lam4_generator[i][j]

    coord_map = None
    if fiber_shift is not None or base_linear is not None:
        rows: list[Expr] = []
        for a in range(4):
            if base_linear is None:
                rows.append(Coord(a + 1))
            else:
                node: Expr = Num(0.0)
                for i in range(4):
                    node = BinOp("+", node, BinOp("*", Num(float(base_linear[a, i])),
                                                  Coord(i + 1)))
                rows.append(node)
        fifth: Expr = Coord(5)
        if fiber_shift is not None:
            fifth = BinOp("+", fifth, fiber_shift)
        rows.append(fifth)
        coord_map = tuple(rows)
    return GaugeElement(signature=SIG5, generator=tuple(tuple(r) for r in gen5),
                        coord_map=coord_map)


def _affine_pullback(jets: Sequence[JetArray],
                     lin_inv: np.ndarray | None) -> list[JetArray]:
    """Jets of the source coordinates x = L^-1 xbar, expressed in the new chart."""
    if lin_inv is None:
        return list(jets[:4])
    out = []
    for i in range(4):
        acc = jets[0] * lin_inv[i, 0]
        for a in range(1, 4):
            acc = acc + jets[a] * lin_inv[i, a]
        out.append(acc)
    return out


class _RotatedTetradField:
    """Tetrad transformed by a pointwise rotation and an affine base change,
    evaluated directly in the new chart.  Takes the jets of one point: the
    rotation goes through :func:`jet_matexp`, which has no batch axes."""

    signature = SIG4
    dim = 4

    def __init__(self, base, generator, params, lin_inv: np.ndarray | None):
        self.base = base
        self.generator = generator
        self.params = dict(params)
        self.lin_inv = lin_inv

    def eval_jets(self, jets: Sequence[JetArray]) -> JetArray:
        xjets = _affine_pullback(jets, self.lin_inv)
        tet = self.base.eval_jets(xjets)
        gen = eval_entries(chain.from_iterable(self.generator), xjets, self.params, (4, 4))
        lam = jet_matexp(gen)
        out = jet_einsum("ms,si->mi", lam, tet)
        if self.lin_inv is not None:
            out = jet_einsum("mi,ij->mj", out, self.lin_inv)
        return out


def transform_config(cfg: KaluzaConfig, lam4_generator, fiber_shift_poly,
                     base_linear: np.ndarray | None = None) -> KaluzaConfig:
    """Field-level action of a restricted gauge element on a configuration:
    rotated tetrad, potential shifted by the fiber gradient (a pure gauge
    term), base chart moved linearly when requested."""
    lin_inv = None if base_linear is None else np.linalg.inv(base_linear)
    tetrad = _RotatedTetradField(cfg.tetrad, lam4_generator, cfg.params, lin_inv)

    grads = [fiber_shift_poly.grad(i).to_expr() for i in range(4)]
    pot = tuple(cfg.potential)
    params = dict(cfg.params)
    k = cfg.k

    def make_entry(j: int):
        def entry(jets, prms):
            xjets = _affine_pullback(jets, lin_inv)
            total = None
            for i in range(4):
                weight = float(i == j) if lin_inv is None else lin_inv[i, j]
                if weight == 0.0:
                    continue
                contrib = (eval_entry(pot[i], xjets, params)
                           + eval_entry(grads[i], xjets, params) * (1.0 / k)) * weight
                total = contrib if total is None else total + contrib
            return total if total is not None else jets[0] * 0.0

        return entry

    new_pot = tuple(make_entry(j) for j in range(4))
    return KaluzaConfig(tetrad=tetrad, potential=new_pot, k=k, params=params)


@dataclass(frozen=True)
class CovarianceReport:
    field_strength: float      # coordinate F two-path deviation
    einstein_block: float      # saturated Einstein residual two-path deviation
    maxwell_block: float       # saturated Maxwell residual two-path deviation
    constraint: float          # fifth row/column preservation (point path)
    potential: float           # field-level vs point-level fifth row

    @property
    def max_deviation(self) -> float:
        return max(self.field_strength, self.einstein_block,
                   self.maxwell_block, self.constraint, self.potential)


def covariance_check(cfg: KaluzaConfig, point: Sequence[float],
                     seed: int) -> CovarianceReport:
    """Invariance of observables under a random restricted gauge element
    (position-dependent tetrad rotation plus fiber shift, identity base)."""
    from .solutions import Poly, random_so_generator

    rng = np.random.default_rng(seed)
    amp = 0.25     # perfbench.layers.gauge_element_for draws the same element
    lam4_gen = random_so_generator(rng, SIG4, amplitude=amp, degree=2)
    f_poly = Poly.random(rng, 4, degree=3, amplitude=amp)
    cfg2 = transform_config(cfg, lam4_gen, f_poly)

    kp1 = _KaluzaPoint(cfg, point)
    kp2 = _KaluzaPoint(cfg2, point)
    dev_f = float(np.abs(kp1.fs.f_coord - kp2.fs.f_coord).max())

    em1 = contract("lr,rm->lm", kp1.einstein_maxwell(), kp1.cp.e)
    em2 = contract("lr,rm->lm", kp2.einstein_maxwell(), kp2.cp.e)
    dev_em = float(np.abs(em1 - em2).max())

    mx1 = contract("la,a->l", kp1.cp.einv, kp1.maxwell().raw)
    mx2 = contract("la,a->l", kp2.cp.einv, kp2.maxwell().raw)
    dev_mx = float(np.abs(mx1 - mx2).max())

    # point-level path through the 5D blocked gauge element
    ge5 = restricted_gauge_element(lam4_gen, f_poly.to_expr())
    cp5bar = gauge_transform_frame(kp1.cp5, ge5)
    dev_constraint = max(abs(cp5bar.e[4, 4] - 1.0), float(np.abs(cp5bar.e[:4, 4]).max()))
    dev_pot = float(np.abs(cp5bar.e[4, :4] + cfg.k * kp2.pot.val).max())

    return CovarianceReport(field_strength=dev_f, einstein_block=dev_em,
                            maxwell_block=dev_mx, constraint=dev_constraint,
                            potential=dev_pot)
