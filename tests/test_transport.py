from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatgmm import transport
from gatgmm.datagen import make_rotated
from gatgmm.em import GmmParams
from gatgmm.errors import InvalidInput, TooLarge
from gatgmm.gausscore import SeededRng, sqrtm_psd
from gatgmm.transport import (
    TransportPair,
    bayes_error,
    duality_gap_1d,
    posterior_batch,
    psi_map_batch,
    psi_randomized,
    sample_mixture,
    duality_gap_bound_terms,
    w2_1d_exact,
    w2_assignment_exact,
)


def sym_pair_1d(mu_s, sig_s, mu_t, sig_t):
    source = GmmParams.symmetric2(np.array([mu_s]), np.array([[sig_s ** 2]]))
    target = GmmParams.symmetric2(np.array([mu_t]), np.array([[sig_t ** 2]]))
    return TransportPair.build(source, target)


# --- posterior --------------------------------------------------------------


def test_posterior_symmetric_origin():
    p = GmmParams.symmetric2(np.array([1.0]), np.array([[1.0]]))
    assert np.allclose(posterior_batch(p, [[0.0]]), [[0.5, 0.5]])


def test_posterior_scalar_logistic():
    p = GmmParams.symmetric2(np.array([1.0]), np.array([[1.0]]))
    post = posterior_batch(p, [[1.0]])[0]
    assert post[0] == pytest.approx(1 / (1 + np.exp(-2.0)), abs=1e-12)


def test_posterior_separation_limit():
    p = GmmParams.symmetric2(np.array([1.0, 0.0]), 0.01 * np.eye(2))
    post = posterior_batch(p, [[1.0, 0.0]])[0]
    assert post[0] >= 1 - 1e-6


def test_posterior_rows_sum_to_one():
    rng = np.random.default_rng(0)
    p = GmmParams(weights=np.array([0.3, 0.5, 0.2]),
                  means=rng.standard_normal((3, 2)),
                  covs=np.stack([np.eye(2)] * 3))
    xs = rng.standard_normal((40, 2))
    assert np.allclose(posterior_batch(p, xs).sum(axis=1), 1.0, atol=1e-12)


# --- transport maps ----------------------------------------------------------


def test_psi_identity_transport():
    p = GmmParams.symmetric2(np.array([1.0, -0.5]), 0.3 * np.eye(2))
    tp = TransportPair.build(p, p)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(2)
        assert np.allclose(psi_map_batch(tp, [x])[0], x, atol=1e-10)
        assert np.allclose(psi_randomized(tp, x, 0), x, atol=1e-10)


def test_gamma_converts_commuting_covariances():
    # Gamma Sigma Gamma^T = Sigma~ whenever the two covariances commute
    rng = np.random.default_rng(12)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    cs = q @ np.diag([0.5, 1.0, 2.0]) @ q.T
    ct = q @ np.diag([1.5, 0.3, 0.9]) @ q.T
    src = GmmParams(weights=np.array([1.0]), means=np.zeros((1, 3)),
                    covs=np.array([0.5 * (cs + cs.T)]))
    tgt = GmmParams(weights=np.array([1.0]), means=np.zeros((1, 3)),
                    covs=np.array([0.5 * (ct + ct.T)]))
    tp = TransportPair.build(src, tgt)
    gam = tp.gammas[0]
    assert np.max(np.abs(gam @ src.covs[0] @ gam.T - tgt.covs[0])) <= 1e-8


def test_build_warns_on_noncommuting_covariances():
    src = GmmParams(weights=np.array([1.0]), means=np.zeros((1, 2)),
                    covs=np.array([np.diag([1.0, 4.0])]))
    rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    tgt_cov = rot @ np.diag([1.0, 4.0]) @ rot.T
    tgt = GmmParams(weights=np.array([1.0]), means=np.zeros((1, 2)),
                    covs=np.array([0.5 * (tgt_cov + tgt_cov.T)]))
    with pytest.warns(RuntimeWarning, match="commute"):
        tp = TransportPair.build(src, tgt)
    assert tp.gammas.shape == (1, 2, 2)


def test_psi_single_component():
    src = GmmParams(weights=np.array([1.0]), means=np.array([[1.0, 0.0]]),
                    covs=np.array([np.eye(2)]))
    tgt = GmmParams(weights=np.array([1.0]), means=np.array([[3.0, 2.0]]),
                    covs=np.array([4.0 * np.eye(2)]))
    tp = TransportPair.build(src, tgt)
    x = np.array([2.0, 1.0])
    expect = 2.0 * (x - src.means[0]) + tgt.means[0]
    assert np.allclose(psi_map_batch(tp, [x])[0], expect, atol=1e-10)


def test_psi_separated_sends_mean_to_mean():
    tp = sym_pair_1d(4.0, 0.5, 6.0, 0.7)
    assert abs(psi_map_batch(tp, [[4.0]])[0, 0] - 6.0) <= 1e-4


def test_psi_map_is_posterior_average_of_randomized():
    tp = sym_pair_1d(2.0, 1.0, 3.0, 0.8)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal(1) * 3
        post = posterior_batch(tp.source, [x])[0]
        avg = sum(post[i] * psi_randomized(tp, x, i) for i in range(2))
        assert np.allclose(psi_map_batch(tp, [x])[0], avg, atol=1e-12)


def test_psi_randomized_label_range():
    tp = sym_pair_1d(2.0, 1.0, 3.0, 0.8)
    with pytest.raises(InvalidInput):
        psi_randomized(tp, np.array([0.0]), 2)


def test_psi_randomized_pushforward():
    rng = np.random.default_rng(3)
    src = GmmParams.symmetric2(np.array([3.0, 0.0]), 0.5 * np.eye(2))
    tgt = GmmParams.symmetric2(np.array([5.0, 1.0]), 0.25 * np.eye(2))
    tp = TransportPair.build(src, tgt)
    n = 100000
    xs, labels = sample_mixture(src, n, SeededRng(4))
    moved = np.empty_like(xs)
    for i in range(2):
        sel = labels == i
        moved[sel] = (xs[sel] - src.means[i]) @ tp.gammas[i].T + tgt.means[i]
    for i in range(2):
        sel = labels == i
        emp_mean = moved[sel].mean(axis=0)
        sigma = np.sqrt(np.trace(tgt.covs[i]) / 2)
        assert np.linalg.norm(emp_mean - tgt.means[i]) <= 5 * sigma / np.sqrt(sel.sum())


# --- Bayes error ---------------------------------------------------------------


def test_bayes_error_identical_components():
    p = GmmParams(weights=np.array([0.5, 0.5]), means=np.zeros((2, 1)),
                  covs=np.ones((2, 1, 1)))
    n = 40000
    est = bayes_error(p, n, SeededRng(5))
    assert abs(est - 0.5) <= 3 / np.sqrt(n)


def test_bayes_error_gaussian_tail():
    from scipy.stats import norm
    p = GmmParams.symmetric2(np.array([2.0]), np.array([[1.0]]))
    n = 200000
    est = bayes_error(p, n, SeededRng(6))
    expect = norm.cdf(-2.0)
    assert abs(est - expect) <= 4 * np.sqrt(expect * (1 - expect) / n)


def test_bayes_error_separated_atoms():
    p = GmmParams.symmetric2(np.array([100.0]), np.array([[1e-6]]))
    assert bayes_error(p, 2000, SeededRng(7)) == 0.0


# --- approximation-error bound ----------------------------------------------------------


def test_bound_collapses_for_identity_pair():
    p = GmmParams.symmetric2(np.array([2.0]), np.array([[0.5]]))
    tp = TransportPair.build(p, p)
    m1, m2, bound = duality_gap_bound_terms(tp, pe=0.04, ex_norm2=4.5, ex_norm4=30.0)
    assert m2 == pytest.approx(0.0, abs=1e-12)
    assert bound == pytest.approx(1.5 * m1 * np.sqrt(0.04))


def test_bound_zero_error():
    tp = sym_pair_1d(2.0, 1.0, 3.0, 0.8)
    assert duality_gap_bound_terms(tp, 0.0, 5.0, 40.0)[2] == 0.0


# --- exact OT oracles ----------------------------------------------------------------


def test_w2_1d_identical():
    a = np.array([0.3, -1.0, 2.0])
    assert w2_1d_exact(a, a) == 0.0


def test_w2_1d_hand_case():
    assert w2_1d_exact([0.0, 2.0], [1.0, 3.0]) == pytest.approx(0.5)


def test_w2_1d_translation_invariance():
    rng = np.random.default_rng(8)
    a = rng.standard_normal(50)
    b = rng.standard_normal(50)
    assert w2_1d_exact(a + 3.7, b + 3.7) == pytest.approx(w2_1d_exact(a, b), abs=1e-12)


def test_w2_1d_validates():
    with pytest.raises(InvalidInput):
        w2_1d_exact([1.0], [1.0, 2.0])


def test_assignment_zero_on_permutation():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((10, 3))
    perm = rng.permutation(10)
    assert w2_assignment_exact(a, a[perm]) == pytest.approx(0.0, abs=1e-12)


def test_assignment_matches_1d_oracle():
    rng = np.random.default_rng(10)
    a = rng.standard_normal(20)
    b = rng.standard_normal(20)
    assert w2_assignment_exact(a[:, None], b[:, None]) == pytest.approx(
        w2_1d_exact(a, b), abs=1e-12)


def test_assignment_matches_brute_force():
    rng = np.random.default_rng(11)
    for n in (3, 4, 5):
        a = rng.standard_normal((n, 2))
        b = rng.standard_normal((n, 2))
        brute = min(
            np.mean([0.5 * np.sum((a[i] - b[p[i]]) ** 2) for i in range(n)])
            for p in permutations(range(n)))
        assert w2_assignment_exact(a, b) == pytest.approx(brute, abs=1e-12)


def test_assignment_size_limit():
    big = np.zeros((65, 2))
    with pytest.raises(TooLarge):
        w2_assignment_exact(big, big)


# --- duality sandwich ----------------------------------------------------------


def test_duality_identity_pair_dual_vanishes():
    # identical laws: the surrogate potential is constant, so the dual value
    # is exactly zero; the empirical W2 keeps a small finite-sample excess
    # (label-count imbalance forces a few cross-mode matches)
    res = duality_gap_1d(3.0, 1.0, 3.0, 1.0, seed=1)
    assert abs(res.dual) <= 1e-8
    assert 0.0 <= res.w2 <= 0.5
    assert res.gap <= res.bound


def test_duality_sandwich_separations():
    results = {sep: duality_gap_1d(sep, 1.0, sep + 0.3, 0.8, seed=7)
               for sep in (2.0, 3.0, 4.0, 5.0)}
    for sep, res in results.items():
        assert res.dual <= res.w2 + 2 * res.se, f"sep {sep}"
        assert res.gap <= res.bound, f"sep {sep}"
    assert results[5.0].gap <= results[2.0].gap


@pytest.mark.parametrize("kwargs", [
    {"sigma_tgt": -1.0}, {"sigma_src": 0.0}, {"mu_src": float("nan")},
    {"mu_tgt": float("inf")}, {"sigma_src": float("inf")}, {"sigma_tgt": float("nan")},
    {"seed": -1.5},
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_duality_rejects_bad_inputs(kwargs):
    args = {"mu_src": 2.0, "sigma_src": 1.0, "mu_tgt": 2.3, "sigma_tgt": 0.8, **kwargs}
    with pytest.raises(InvalidInput):
        duality_gap_1d(**args)


# --- grid c-transform ------------------------------------------------------------


def exhaustive_c_transform(grid, values, chunk=256):
    """Reference: max over every grid point, in row chunks."""
    out = np.empty_like(values)
    for start in range(0, grid.size, chunk):
        sl = grid[start:start + chunk, None]
        out[start:start + chunk] = np.max(values[None, :] - 0.5 * (sl - grid[None, :]) ** 2,
                                          axis=1)
    return out


@pytest.mark.parametrize("args", [(sep, 1.0, sep + 0.3, 0.8) for sep in (2.0, 3.0, 4.0, 5.0)]
                         + [(3.0, 1.0, 3.0, 1.0)])
def test_grid_c_transform_matches_exhaustive_on_duality_grids(monkeypatch, args):
    windowed = transport._grid_c_transform
    calls = []

    def spy(grid, values):
        out = windowed(grid, values)
        calls.append((grid, values, out))
        return out

    monkeypatch.setattr(transport, "_grid_c_transform", spy)
    duality_gap_1d(*args, seed=7)
    (grid, values, out), = calls
    assert grid.size == 4001
    assert np.array_equal(out, exhaustive_c_transform(grid, values))


def _grid(kind, n, rng):
    scale = 10.0 ** rng.uniform(-2, 2)
    if kind == "linspace":
        return np.linspace(-scale, scale, n)
    if kind == "ties":  # few distinct points, many repeats
        return np.sort(rng.integers(-5, 6, n) * scale / 5)
    if kind == "narrow":  # squared gaps at the rounding level of the values
        return np.sort(rng.uniform(-1.0, 1.0) + rng.uniform(0.0, 10.0 ** rng.uniform(-7, -6), n))
    return np.sort(rng.uniform(-scale, scale, n))


def _values(kind, grid, rng):
    n = grid.size
    if kind == "flat":
        return np.full(n, rng.uniform(-3.0, 3.0))
    if kind == "rounded":
        return np.round(rng.uniform(-3.0, 3.0, n))
    if kind == "near-ties":  # differences about as small as the quadratic term
        return rng.uniform(-3.0, 3.0) + rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-16, -13)
    if kind == "convex":  # shaped like the duality potentials
        return 0.5 * grid ** 2 - np.cumsum(rng.standard_normal(n)) * 1e-2
    return rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3, 3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 900), chunk=st.sampled_from([1, 7, 64]),
       grid_kind=st.sampled_from(["linspace", "uniform", "ties", "narrow"]),
       values_kind=st.sampled_from(["random", "flat", "rounded", "near-ties", "convex"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_grid_c_transform_matches_exhaustive(n, chunk, grid_kind, values_kind, seed):
    rng = np.random.default_rng(seed)
    grid = _grid(grid_kind, n, rng)
    values = _values(values_kind, grid, rng)
    assert np.array_equal(transport._grid_c_transform(grid, values, chunk),
                          exhaustive_c_transform(grid, values))


# --- mixture sampling ----------------------------------------------------------


def einsum_sample_mixture(p, n, rng):
    """Reference: gather every draw's factor, then one batched product."""
    labels = rng.gen.choice(p.k, size=n, p=p.weights)
    z = rng.gen.standard_normal((n, p.d))
    factors = np.stack([sqrtm_psd(p.covs[i]) for i in range(p.k)])
    return p.means[labels] + np.einsum("nij,nj->ni", factors[labels], z), labels


@pytest.mark.parametrize("p", [
    GmmParams.symmetric2(np.array([1.5]), np.array([[0.7]])),
    GmmParams(weights=np.array([0.2, 0.3, 0.5]), means=np.array([[-2.0], [0.0], [3.0]]),
              covs=np.array([[[0.5]], [[1.0]], [[2.0]]])),
    make_rotated(d=100, n=16, seed=1).meta.truth,
    GmmParams(weights=np.array([0.5, 0.25, 0.25]), means=np.arange(9.0).reshape(3, 3),
              covs=np.stack([np.diag([1.0, 2.0, 3.0]), 0.5 * np.eye(3),
                             np.diag([4.0, 0.1, 1.0])])),
], ids=["d1-k2", "d1-k3", "d100-k2", "d3-k3"])
def test_sample_mixture_matches_einsum_form(p):
    xs, labels = sample_mixture(p, 500, SeededRng(11))
    ref, ref_labels = einsum_sample_mixture(p, 500, SeededRng(11))
    assert np.array_equal(labels, ref_labels)
    if p.d == 1:
        assert np.array_equal(xs, ref)
    else:
        assert np.max(np.abs(xs - ref)) <= 1e-12 * np.max(np.abs(ref))
