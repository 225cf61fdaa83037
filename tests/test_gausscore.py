import numpy as np
import pytest
from scipy.special import logsumexp, softmax

from gatgmm.errors import InvalidInput, NotPsd
from gatgmm.gausscore import (
    SeededRng,
    inv_sqrtm_psd,
    lse_softmax,
    random_orthogonal,
    sqrtm_psd,
    sym_eigen,
    symmetrize,
)


def test_sym_eigen_diagonal():
    dec = sym_eigen(np.diag([3.0, 1.0]))
    assert np.allclose(dec.values, [3.0, 1.0])
    assert np.allclose(np.abs(dec.vectors), np.eye(2))


def test_sym_eigen_identity():
    dec = sym_eigen(np.eye(5))
    assert np.allclose(dec.values, np.ones(5))


def test_sym_eigen_hand_case():
    # characteristic polynomial of [[2,1],[1,2]]: (2-w)^2 - 1 = 0 -> w = 3, 1
    dec = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(dec.values, [3.0, 1.0])
    v0 = dec.vectors[:, 0]
    v1 = dec.vectors[:, 1]
    assert np.allclose(np.abs(v0), np.full(2, 1 / np.sqrt(2)), atol=1e-12)
    assert np.allclose(np.abs(v1 @ np.array([1.0, -1.0])), np.sqrt(2), atol=1e-12)


def test_sym_eigen_rejects_bad_input():
    with pytest.raises(InvalidInput):
        sym_eigen(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(InvalidInput):
        sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("d", [2, 4, 8])
def test_sym_eigen_reconstruction_random(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        m = symmetrize(rng.uniform(-1, 1, (d, d)))
        dec = sym_eigen(m)
        rec = (dec.vectors * dec.values) @ dec.vectors.T
        assert np.max(np.abs(rec - m)) <= 1e-8
        assert np.max(np.abs(dec.vectors.T @ dec.vectors - np.eye(d))) <= 1e-10
        assert np.all(np.diff(dec.values) <= 1e-14)


def test_sqrtm_trivial_cases():
    assert np.allclose(sqrtm_psd(np.eye(3)), np.eye(3))
    assert np.allclose(sqrtm_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(sqrtm_psd(np.zeros((2, 2))), np.zeros((2, 2)))


def test_sqrtm_square_property():
    rng = np.random.default_rng(7)
    for d in (2, 3, 6):
        b = rng.standard_normal((d, d))
        m = symmetrize(b @ b.T)
        r = sqrtm_psd(m)
        assert np.max(np.abs(r @ r - m)) <= 1e-8 * (1 + np.max(np.abs(m)))
        assert np.array_equal(r, r.T)


def test_sqrtm_scaling():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((4, 4))
    m = symmetrize(b @ b.T)
    for c in (0.5, 2.0, 10.0):
        assert np.max(np.abs(sqrtm_psd(c * m) - np.sqrt(c) * sqrtm_psd(m))) <= 1e-8


def test_sqrtm_rejects_indefinite():
    with pytest.raises(NotPsd):
        sqrtm_psd(np.diag([1.0, -0.5]))


def test_inv_sqrtm_rejects_singular():
    with pytest.raises(NotPsd):
        inv_sqrtm_psd(np.diag([1.0, 0.0]))


def test_sqrtm_clamps_tiny_negative():
    m = np.diag([1.0, -1e-12])
    r = sqrtm_psd(m)
    assert r[1, 1] == 0.0


def test_random_orthogonal_1d():
    q = random_orthogonal(1, SeededRng(0))
    assert q.shape == (1, 1)
    assert np.isclose(abs(q[0, 0]), 1.0)


@pytest.mark.parametrize("d", [2, 5, 20])
def test_random_orthogonal_properties(d):
    q = random_orthogonal(d, SeededRng(11))
    assert np.max(np.abs(q.T @ q - np.eye(d))) <= 1e-10
    assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-8


def test_random_orthogonal_deterministic():
    a = random_orthogonal(3, SeededRng(42))
    b = random_orthogonal(3, SeededRng(42))
    assert np.array_equal(a, b)


def test_random_orthogonal_rejects_bad_dim():
    with pytest.raises(InvalidInput):
        random_orthogonal(0, SeededRng(0))


def test_rng_streams_differ_and_replay():
    r1 = SeededRng(5, 1).gen.standard_normal(8)
    r1b = SeededRng(5, 1).gen.standard_normal(8)
    r2 = SeededRng(5, 2).gen.standard_normal(8)
    assert np.array_equal(r1, r1b)
    assert not np.array_equal(r1, r2)
    c1 = SeededRng(5).split(3)
    c2 = SeededRng(5).split(3)
    assert np.array_equal(c1.gen.standard_normal(4), c2.gen.standard_normal(4))


def test_rng_takes_negative_and_numpy_integer_seeds():
    # a negative seed keys Philox by its 64-bit two's complement
    assert SeededRng(-1).seed == 2 ** 64 - 1
    assert np.array_equal(SeededRng(np.int64(7)).gen.standard_normal(4),
                          SeededRng(7).gen.standard_normal(4))


# --- row log-sum-exp and softmax ---------------------------------------------


def _lse_softmax_rows(a):
    """Reference: the per-sample formulas on a sample-major (n, k) block, each
    reduction along the short axis 1."""
    m = np.max(a, axis=1, keepdims=True)
    e = np.exp(a - m)
    s = np.sum(e, axis=1, keepdims=True)
    return (m + np.log(s))[:, 0], e / s


def _kernel_rows(a):
    """lse_softmax on the slot-major copy of a sample-major block, with the
    weights given back sample-major."""
    lse, w = lse_softmax(np.ascontiguousarray(a.T))
    return lse, w.T


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("n", [1, 640, 20000])
@pytest.mark.parametrize("k", [1, 2, 4, 7, 8, 64])
def test_lse_softmax_matches_row_formulas_and_scipy(k, n):
    a = 3.0 * np.random.default_rng(k * n).standard_normal((n, k))
    lse, w = _kernel_rows(a)
    ref_lse, ref_w = _lse_softmax_rows(a)
    assert lse.shape == (n,) and w.shape == (n, k)
    if k <= 7:  # the slot sums add in the same order
        assert np.array_equal(lse, ref_lse) and np.array_equal(w, ref_w)
    else:  # a row sum of 8 or more terms is pairwise
        assert _rel(lse, ref_lse) <= 1e-15 and _rel(w, ref_w) <= 1e-15
    np.testing.assert_allclose(lse, logsumexp(a, axis=1), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(w, softmax(a, axis=1), rtol=1e-12, atol=1e-300)


def test_lse_softmax_batches_groups():
    # a (2, k, n) block is two independent slot-major blocks
    s = np.random.default_rng(5).standard_normal((2, 4, 30))
    lse, w = lse_softmax(s)
    for i in range(2):
        lse_i, w_i = lse_softmax(s[i])
        assert np.array_equal(lse[i], lse_i) and np.array_equal(w[i], w_i)


def test_lse_softmax_zero_weight_slot():
    # EM's log of a zero mixture weight is a -inf logit: weight exactly 0
    a = np.array([[-np.inf, 0.3, -1.2], [0.5, -np.inf, 2.0], [1.0, 1.0, 1.0]])
    with np.errstate(all="raise"):
        lse, w = _kernel_rows(a)
    ref_lse, ref_w = _lse_softmax_rows(a)
    assert np.array_equal(lse, ref_lse) and np.array_equal(w, ref_w)
    assert w[0, 0] == 0.0 and w[1, 1] == 0.0
    np.testing.assert_allclose(lse, logsumexp(a, axis=1), rtol=1e-14)
    np.testing.assert_allclose(w, softmax(a, axis=1), rtol=1e-14)


def test_lse_softmax_extreme_logits_do_not_overflow():
    # exp() of a logit near +-800 overflows or underflows unless each sample
    # is max-subtracted
    rng = np.random.default_rng(8)
    a = np.array([800.0, -790.0, 795.0, -805.0]) + rng.standard_normal((50, 4))
    with np.errstate(over="raise", invalid="raise"):
        lse, w = _kernel_rows(a)
    assert np.all(np.isfinite(lse)) and np.all(np.isfinite(w))
    ref_lse, ref_w = _lse_softmax_rows(a)
    assert np.array_equal(lse, ref_lse) and np.array_equal(w, ref_w)
    np.testing.assert_allclose(lse, logsumexp(a, axis=1), rtol=1e-14)
    np.testing.assert_allclose(w, softmax(a, axis=1), rtol=1e-12, atol=1e-300)


def test_lse_softmax_nan_propagates_per_sample():
    # a NaN logit makes its own sample NaN and leaves the others alone; so
    # does an all -inf sample (its max-subtraction is -inf - -inf)
    a = np.array([[0.1, np.nan, 0.4], [0.2, 0.3, -0.5], [-np.inf, -np.inf, -np.inf]])
    with np.errstate(invalid="ignore"):
        lse, w = _kernel_rows(a)
        ref_lse, ref_w = _lse_softmax_rows(a)
    np.testing.assert_array_equal(lse, ref_lse)
    np.testing.assert_array_equal(w, ref_w)
    assert np.isnan(lse[[0, 2]]).all() and np.isnan(w[[0, 2]]).all()
    assert np.isfinite(lse[1]) and np.isfinite(w[1]).all()
