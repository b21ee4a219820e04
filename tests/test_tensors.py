import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vielbein.tensors import Signature, eta, eta_signs, levi_civita


def perm_sign(perm):
    """Independent parity oracle: sign of the product of pairwise differences."""
    prod = 1
    for i, j in itertools.combinations(range(len(perm)), 2):
        prod *= np.sign(perm[j] - perm[i])
    return prod


def test_eta_examples():
    assert np.array_equal(eta(Signature(1, 3)), np.diag([-1.0, 1, 1, 1]))
    assert np.array_equal(eta(Signature(1, 4)), np.diag([-1.0, 1, 1, 1, 1]))
    assert np.array_equal(eta(Signature(0, 2)), np.eye(2))


@pytest.mark.parametrize("p,q", [(1, 3), (1, 4), (0, 2), (2, 3)])
def test_eta_is_its_own_inverse(p, q):
    e = eta(Signature(p, q))
    assert np.array_equal(e @ e, np.eye(p + q))


@pytest.mark.parametrize("p,q", [(1, 3), (1, 4), (0, 4), (2, 2)])
def test_eta_signs_are_the_diagonal_of_eta(p, q):
    s = eta_signs(Signature(p, q))
    assert np.array_equal(s, np.diag(eta(Signature(p, q))))
    assert s is eta_signs(Signature(p, q)) and not s.flags.writeable


def test_invalid_signature():
    with pytest.raises(ValueError):
        Signature(-1, 2)
    with pytest.raises(ValueError):
        Signature(0, 0)


def test_levi_civita_dimension_bounds():
    with pytest.raises(ValueError):
        levi_civita(0)
    with pytest.raises(ValueError):
        levi_civita(9)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_levi_civita_matches_parity_oracle(m):
    eps = levi_civita(m)
    # identity permutation has value +1
    assert eps[tuple(range(m))] == 1.0
    for perm in itertools.permutations(range(m)):
        assert eps[perm] == perm_sign(perm)
    # any repeated index vanishes; exactly m! nonzero entries
    idx = [0] * m
    assert eps[tuple(idx)] == 0.0
    assert float(np.abs(eps).sum()) == float(np.prod(range(1, m + 1)))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@given(data=st.data())
def test_levi_civita_antisymmetry(m, data):
    eps = levi_civita(m)
    perm = data.draw(st.permutations(range(m)))
    i, j = data.draw(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)))
    if i == j:
        return
    swapped = list(perm)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert eps[tuple(perm)] == -eps[tuple(swapped)]


def test_epsilon_contract_m2_outer():
    eps = levi_civita(2)
    out = np.einsum("ij,kl->ijkl", eps, eps)
    assert out[0, 1, 0, 1] == 1.0
    assert out[1, 0, 0, 1] == -1.0


def test_epsilon_contract_m3_two_pair():
    # eps^{ijk} eps_{ljk} = 2 delta^i_l, checked against a brute-force sum
    eps = levi_civita(3)
    out = np.einsum("ijk,ljk->il", eps, eps)
    brute = np.zeros((3, 3))
    for i, l in itertools.product(range(3), repeat=2):
        for j, k in itertools.product(range(3), repeat=2):
            pi = perm_sign((i, j, k)) if len({i, j, k}) == 3 else 0
            pl = perm_sign((l, j, k)) if len({l, j, k}) == 3 else 0
            brute[i, l] += pi * pl
    assert np.array_equal(out, brute)
    assert np.array_equal(out, 2 * np.eye(3))


def test_epsilon_contract_m4_two_pair_table():
    # eps^{qpij} eps_{qp l s}: full component table against brute force
    eps = levi_civita(4)
    out = np.einsum("qpij,qpls->ijls", eps, eps)
    brute = np.zeros((4, 4, 4, 4))
    for i, j, l, s in itertools.product(range(4), repeat=4):
        for q, p in itertools.product(range(4), repeat=2):
            a = (q, p, i, j)
            b = (q, p, l, s)
            pa = perm_sign(a) if len(set(a)) == 4 else 0
            pb = perm_sign(b) if len(set(b)) == 4 else 0
            brute[i, j, l, s] += pa * pb
    assert np.array_equal(out, brute)
    # antisymmetrized Kronecker pattern: 2! * 2 * delta^[i_l delta^j]_s
    delta = np.eye(4)
    expect = 2.0 * (np.einsum("il,js->ijls", delta, delta)
                    - np.einsum("is,jl->ijls", delta, delta))
    assert np.array_equal(out, expect)


def test_epsilon_kills_symmetric_pairs(rng):
    for m in (2, 3, 4, 5):
        eps = levi_civita(m)
        sym = rng.standard_normal((m, m))
        sym = sym + sym.T
        spec = "".join(chr(97 + k) for k in range(m))
        out = np.einsum(f"{spec},{spec[-2:]}->{spec[:-2]}", eps, sym)
        assert np.abs(out).max() == 0.0
