"""Traced replay of a workload's inputs through each layer's public functions.

Spans are opened here, in the benchmark, around calls into the library; the
library itself is not instrumented.  Expression evaluation inside a layer
becomes visible through pass-through proxies: a coframe field whose
``eval_jets`` and potential entries whose evaluation only delegate, record a
child span and count the call.  They return the very objects the wrapped
field returns, so no residual changes (tests check this bit for bit).
"""

from __future__ import annotations

import numpy as np

from vielbein.frame import (
    coordinate_oracle,
    curvature,
    curvature_to_coordinate,
    einstein_density,
    eval_entry,
    evaluate_coframe,
    spin_connection,
    spin_connection_via_christoffels,
    torsion_residual,
)
from vielbein.gauge import gauge_transform_frame
from vielbein.jets import jet_seed
from vielbein.jetlinalg import JetArray, jet_einsum, jet_matinv
from vielbein.kaluza import (
    SIG4,
    KaluzaConfig,
    appendix_chain_check,
    covariance_check,
    einstein_maxwell_residual,
    field_strength,
    lift_coframe,
    lift_point,
    maxwell_residual,
    reduction_check,
    restricted_gauge_element,
)
from vielbein.solutions import Poly, random_so_generator
from vielbein.tensors import eta
from vielbein.variational import (
    SectionPoint,
    contact_pullback,
    el_residual_frame,
    omega_shuffle_identity,
)


class CountingField:
    """Coframe provider that delegates to ``field`` and records each
    ``eval_jets`` call as a span named ``span_name``."""

    def __init__(self, field, tracer, span_name: str):
        self._field = field
        self._tracer = tracer
        self._span_name = span_name
        self.signature = field.signature
        self.calls = 0

    @property
    def dim(self) -> int:
        return self._field.dim

    def eval_jets(self, jets):
        self.calls += 1
        with self._tracer.span(self._span_name):
            return self._field.eval_jets(jets)


class CountingEntry:
    """Potential entry that delegates to ``eval_entry`` on the wrapped entry."""

    def __init__(self, entry, tracer, span_name: str):
        self._entry = entry
        self._tracer = tracer
        self._span_name = span_name
        self.calls = 0

    def __call__(self, jets, params):
        self.calls += 1
        with self._tracer.span(self._span_name):
            return eval_entry(self._entry, jets, params)


def counting_config(cfg: KaluzaConfig, tracer) -> KaluzaConfig:
    return KaluzaConfig(
        tetrad=CountingField(cfg.tetrad, tracer, "kaluza.tetrad_jets"),
        potential=tuple(CountingEntry(a, tracer, "kaluza.potential_jets")
                        for a in cfg.potential),
        k=cfg.k, params=cfg.params)


def potential_evals(cfg: KaluzaConfig) -> float:
    """Whole-potential evaluations so far (every path evaluates all entries)."""
    return sum(a.calls for a in cfg.potential) / len(cfg.potential)


def replay_check(kind: str, field, kcfg, x, tr) -> dict[str, np.ndarray]:
    """The residual arrays the CLI computes for one point, by the same calls
    ``vielbein.cli`` makes, each layer call inside its own span."""
    if kind == "appendixA":
        with tr.span("kaluza.appendix_chain_check"):
            rep = appendix_chain_check(kcfg, x)
        return {"chain_einstein": np.array(rep.einstein_deviations),
                "chain_maxwell": np.array(rep.maxwell_deviations)}
    with tr.span("frame.evaluate_coframe"):
        cp = evaluate_coframe(field, x)
    with tr.span("frame.spin_connection"):
        sp = spin_connection(cp)
    if kind == "vacuum":
        with tr.span("frame.curvature"):
            curv = curvature(sp)
        with tr.span("frame.einstein_density"):
            return {"vacuum": einstein_density(cp, curv)}
    if kind != "identities":
        raise ValueError(f"no replay for check {kind!r}")
    sec = SectionPoint(cp, sp, holonomic=True)
    with tr.span("frame.coordinate_oracle"):
        orc = coordinate_oracle(field, x)
    with tr.span("frame.curvature"):
        curv = curvature(sp)
    with tr.span("frame.cross_checks"):
        omega_dev = sp.omega - spin_connection_via_christoffels(cp, orc.gamma)
        riem_dev = curvature_to_coordinate(cp, curv) - orc.riemann
        torsion = torsion_residual(cp, sp)
    with tr.span("variational.identities"):
        contact = contact_pullback(sec)
        shuffle = np.array([omega_shuffle_identity(sec)])
    return {"torsion": torsion, "contact": contact, "omega_vs_oracle": omega_dev,
            "curvature_vs_oracle": riem_dev, "shuffle_identity": shuffle}


def norms(named: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-check max-abs norms, computed as the CLI computes them."""
    return {k: float(np.abs(np.atleast_1d(np.asarray(v, dtype=float))).max())
            for k, v in named.items()}


_METRIC_SPEC = "mn,mi,nj->ij"   # the metric contraction of the frame jets


def frame_sweep(field, x, tr) -> None:
    """Every frame-side layer on one point of the workload's own frame,
    including the jet kernels on that frame's jets."""
    with tr.span("frame.evaluate_coframe"):
        cp = evaluate_coframe(field, x)
    with tr.span("frame.spin_connection"):
        sp = spin_connection(cp)
    with tr.span("frame.curvature"):
        curv = curvature(sp)
    with tr.span("frame.einstein_density"):
        einstein_density(cp, curv)
    with tr.span("frame.coordinate_oracle"):
        orc = coordinate_oracle(field, x)
    with tr.span("frame.cross_checks"):
        spin_connection_via_christoffels(cp, orc.gamma)
        curvature_to_coordinate(cp, curv)
        torsion_residual(cp, sp)
    sec = SectionPoint(cp, sp, holonomic=True)
    with tr.span("variational.identities"):
        contact_pullback(sec)
        omega_shuffle_identity(sec)
    e1 = JetArray(cp.e, cp.de)
    et = eta(cp.signature)
    for _ in range(3):
        with tr.span("jetlinalg.jet_matinv"):
            jet_matinv(e1)
        with tr.span("jetlinalg.jet_einsum"):
            jet_einsum(_METRIC_SPEC, et, e1, e1)


def gauge_element_for(seed: int, amplitude: float = 0.25):
    """The restricted 5D gauge element ``covariance_check`` draws for ``seed``."""
    rng = np.random.default_rng(seed)
    lam4_gen = random_so_generator(rng, SIG4, amplitude=amplitude, degree=2)
    f_poly = Poly.random(rng, 4, degree=3, amplitude=amplitude)
    return restricted_gauge_element(lam4_gen, f_poly.to_expr())


# Sub-calls of appendix_chain_check, timed separately on the same point; the
# chain's own time is its duration minus the sum of these.
CHAIN_SUBCALLS = ("kaluza.chain.lift", "kaluza.chain.spin_connection5",
                  "variational.el_residual_frame", "kaluza.einstein_maxwell_residual",
                  "kaluza.chain.evaluate_coframe4", "kaluza.maxwell_residual")


def kaluza_sweep(cfg: KaluzaConfig, x, cov_seed: int, ge5, tr) -> dict[str, float]:
    """Every kaluza/gauge layer on one point; returns the exact evaluation
    counts of one appendix_chain_check call."""
    with tr.span("kaluza.lift_coframe"):
        lift_coframe(cfg).eval_jets(jet_seed(lift_point(x)))
    with tr.span("kaluza.field_strength"):
        field_strength(cfg, x)
    tet0, pot0 = cfg.tetrad.calls, potential_evals(cfg)
    with tr.span("kaluza.appendix_chain_check"):
        appendix_chain_check(cfg, x)
    counts = {"kaluza.tetrad_evals_per_point": float(cfg.tetrad.calls - tet0),
              "kaluza.potential_evals_per_point": potential_evals(cfg) - pot0}
    with tr.span("kaluza.chain.lift"):
        cp5 = evaluate_coframe(lift_coframe(cfg), lift_point(x))
    with tr.span("kaluza.chain.spin_connection5"):
        sp5 = spin_connection(cp5)
    with tr.span("variational.el_residual_frame"):
        el_residual_frame(SectionPoint(cp5, sp5, holonomic=True))
    with tr.span("kaluza.einstein_maxwell_residual"):
        einstein_maxwell_residual(cfg, x)
    with tr.span("kaluza.chain.evaluate_coframe4"):
        evaluate_coframe(cfg.tetrad, x)
    with tr.span("kaluza.maxwell_residual"):
        maxwell_residual(cfg, x)
    with tr.span("kaluza.reduction_check"):
        reduction_check(cfg, x)
    with tr.span("kaluza.covariance_check"):
        covariance_check(cfg, x, seed=cov_seed)
    with tr.span("gauge.gauge_transform_frame"):
        gauge_transform_frame(cp5, ge5)
    return counts
