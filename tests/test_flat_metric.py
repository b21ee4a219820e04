"""The flat metric applied as its sign vector equals the dense eta contraction.

Multiplying by eta = diag(-1 x p, +1 x q) only flips signs along one axis, so
the library's sign-vector formulas must equal the dense-eta references in
``conftest`` bit for bit, up to the sign of zero (``np.array_equal``
compares -0.0 and 0.0 as equal).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import (
    dense_christoffel_omega,
    dense_connection,
    dense_curvature_to_coordinate,
    dense_field_strength_up,
    dense_fup1,
    dense_kretschmann,
    dense_omega_mixed,
)
from vielbein.frame import (
    CoframeField,
    curvature,
    curvature_to_coordinate,
    evaluate_coframe,
    kretschmann_scalar,
    oracle_from_coframe,
    spin_connection,
    spin_connection_via_christoffels,
)
from vielbein.kaluza import _KaluzaPoint
from vielbein.solutions import random_kaluza, random_polynomial
from vielbein.tensors import Signature

SIGNATURES = [(1, 3), (1, 4), (0, 4), (2, 2)]


def _points(data, n: int, m: int) -> np.ndarray:
    flat = data.draw(st.lists(st.tuples(*[st.floats(-0.6, 0.6)] * m),
                              min_size=n, max_size=n))
    return np.array(flat)


@settings(deadline=None, max_examples=25)
@given(sig=st.sampled_from(SIGNATURES), seed=st.integers(0, 2**16),
       n=st.sampled_from([1, 3]), data=st.data())
def test_frame_sign_vector_equals_dense_eta(sig, seed, n, data):
    m = sum(sig)
    base = random_polynomial(seed=seed, amplitude=0.15, dim=m).tetrad
    field = CoframeField(base.entries, Signature(*sig), base.params)
    cp = evaluate_coframe(field, _points(data, n, m))
    sp = spin_connection(cp)
    ref = dense_connection(cp)
    curv = curvature(sp)
    gamma = oracle_from_coframe(cp).gamma
    pairs = {
        "omega": (sp.omega, ref.val),
        "domega": (sp.domega, ref.jac),
        "omega_mixed": (sp.omega_mixed, dense_omega_mixed(sp)),
        "kretschmann": (kretschmann_scalar(cp, curv), dense_kretschmann(cp, curv)),
        "christoffel_omega": (spin_connection_via_christoffels(cp, gamma),
                              dense_christoffel_omega(cp, gamma)),
        "curvature_to_coordinate": (curvature_to_coordinate(cp, curv),
                                    dense_curvature_to_coordinate(cp, curv)),
    }
    for name, (got, want) in pairs.items():
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 2**16), n=st.sampled_from([1, 3]), data=st.data())
def test_field_strength_sign_vector_equals_dense_eta(seed, n, data):
    kp = _KaluzaPoint(random_kaluza(seed=seed, amplitude=0.15), _points(data, n, 4))
    fs = kp.fs
    up, mixed = dense_field_strength_up(fs.f_frame, kp.cp.signature)
    assert np.array_equal(fs.f_frame_up, up)
    assert np.array_equal(fs.f_frame_mixed, mixed)
    # the raised field strength with its derivatives, which maxwell() reads
    ref = dense_fup1(kp.cp, fs)
    assert np.array_equal(fs.f_frame_up, ref.val)
    assert np.array_equal(fs.df_frame_up, ref.jac)
