import warnings

import numpy as np
import pytest
import scipy.linalg

from gatgmm import em
from gatgmm.em import GmmParams, em_fit, gmm_loglik
from gatgmm.errors import InvalidInput, NotPsd, SingularCovariance
from gatgmm.gausscore import SeededRng, lse_softmax, symmetrize


def test_gmm_params_validates_weights():
    with pytest.raises(InvalidInput):
        GmmParams(weights=np.array([0.6, 0.6]), means=np.zeros((2, 2)),
                  covs=np.stack([np.eye(2), np.eye(2)]))


def test_symmetric2_constructor():
    p = GmmParams.symmetric2(np.array([1.0, 2.0]), np.eye(2))
    assert np.allclose(p.means[1], -p.means[0])
    assert np.allclose(p.weights, 0.5)


@pytest.mark.parametrize("means, covs, symmetric", [
    ([[1.0, -2.0], [-1.0, 2.0]], [np.eye(2)] * 2, True),
    ([[1.0, -2.0], [-1.0, 2.0 + 1e-10]], [np.eye(2), np.eye(2) + 1e-10], True),
    ([[1.0, 0.0], [0.0, 1.0]], [np.eye(2)] * 2, False),
    ([[1.0, -2.0], [-1.0, 2.0]], [np.eye(2), 2.0 * np.eye(2)], False),
    ([[1.0, -2.0], [-1.0, 2.0], [0.0, 0.0]], [np.eye(2)] * 3, False),
], ids=["mirrored", "within-1e-9", "unmirrored", "two-covariances", "three-components"])
def test_is_symmetric2(means, covs, symmetric):
    k = len(means)
    p = GmmParams(weights=np.full(k, 1.0 / k), means=np.array(means), covs=np.stack(covs))
    assert p.is_symmetric2 is symmetric
    assert p.__dict__["is_symmetric2"] is symmetric  # computed once per instance


def test_loglik_standard_normal():
    p = GmmParams(weights=np.array([1.0]), means=np.zeros((1, 1)),
                  covs=np.ones((1, 1, 1)))
    assert gmm_loglik(p, np.zeros((1, 1))) == pytest.approx(-0.5 * np.log(2 * np.pi))


def test_loglik_symmetric_mixture_at_origin():
    p = GmmParams.symmetric2(np.array([1.0]), np.array([[1.0]]))
    # both components contribute phi(1): log density = log(phi(1))
    expect = np.log(np.exp(-0.5) / np.sqrt(2 * np.pi))
    assert gmm_loglik(p, np.zeros((1, 1))) == pytest.approx(expect, abs=1e-12)


def test_loglik_translation_invariance():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((50, 3))
    mu = rng.standard_normal((2, 3))
    covs = np.stack([np.eye(3) * 0.5, np.eye(3) * 2.0])
    p = GmmParams(weights=np.array([0.4, 0.6]), means=mu, covs=covs)
    shift = rng.standard_normal(3)
    p2 = GmmParams(weights=p.weights, means=mu + shift, covs=covs)
    assert gmm_loglik(p, xs) == pytest.approx(gmm_loglik(p2, xs + shift), abs=1e-10)


def test_em_single_component_closed_form():
    rng = np.random.default_rng(1)
    xs = rng.standard_normal((200, 3)) * 1.5 + np.array([1.0, -2.0, 0.5])
    p, trace = em_fit(xs, k=1, seed=0)
    assert np.allclose(p.means[0], xs.mean(axis=0), atol=1e-6)
    diff = xs - xs.mean(axis=0)
    mle = diff.T @ diff / len(xs)
    assert np.allclose(p.covs[0], mle, atol=1e-5)


def test_em_symmetric_atoms():
    v = np.array([2.0, -1.0])
    xs = np.concatenate([np.tile(v, (30, 1)), np.tile(-v, (30, 1))])
    p, trace = em_fit(xs, k=2, symmetric2=True, seed=0)
    assert np.allclose(np.abs(p.means[0]), np.abs(v), atol=1e-6)
    floor = 1e-8 * np.trace(np.cov(xs, rowvar=False, bias=True)) / 2
    assert np.allclose(p.covs[0], floor * np.eye(2), atol=floor)


def test_em_monotone_loglik():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 2, 300) * 2 - 1
    xs = labels[:, None] * np.array([1.5, 0.0]) + 0.4 * rng.standard_normal((300, 2))
    p, trace = em_fit(xs, k=2, symmetric2=True, seed=0)
    diffs = np.diff(trace)
    assert np.all(diffs >= -1e-9)
    assert trace[-1] == pytest.approx(gmm_loglik(p, xs), abs=1e-9)


def test_em_unconstrained_monotone_and_weights():
    rng = np.random.default_rng(3)
    comp = rng.integers(0, 3, 400)
    centers = np.array([[4.0, 0.0], [-4.0, 1.0], [0.0, 5.0]])
    xs = centers[comp] + 0.5 * rng.standard_normal((400, 2))
    p, trace = em_fit(xs, k=3, seed=1)
    assert np.all(np.diff(trace) >= -1e-9)
    assert p.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_em_symmetric_matches_unconstrained_on_symmetric_data():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 2, 600) * 2 - 1
    mu = np.array([2.0, -1.0, 0.5])
    xs = labels[:, None] * mu + 0.3 * rng.standard_normal((600, 3))
    from gatgmm.em import GmmParams as GP
    from gatgmm.metrics import gmm_objective

    ps, _ = em_fit(xs, k=2, symmetric2=True, seed=0)
    pu, _ = em_fit(xs, k=2, shared_cov=True, seed=0)
    truth_like = GP.symmetric2(ps.means[0], ps.covs[0])
    # compare the unconstrained fit's components against the symmetric fit
    val = gmm_objective(truth_like, pu.means[0], pu.covs[0])
    assert val <= 0.05


def test_em_requires_enough_samples():
    with pytest.raises(InvalidInput):
        em_fit(np.zeros((1, 2)), k=2)


def test_gmm_params_json_roundtrip():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((2, 2))
    p = GmmParams(weights=np.array([0.25, 0.75]), means=rng.standard_normal((2, 2)),
                  covs=np.stack([np.eye(2), a @ a.T + 0.1 * np.eye(2)]))
    back = GmmParams.from_json(p.to_json())
    assert np.array_equal(back.weights, p.weights)
    assert np.array_equal(back.means, p.means)
    assert np.array_equal(back.covs, p.covs)


def test_gmm_params_json_ignores_an_old_shared_cov_key():
    # mixture files once carried a shared_cov flag that no code read
    p = GmmParams.symmetric2(np.ones(2), np.eye(2))
    assert "shared_cov" not in p.to_json()
    back = GmmParams.from_json(p.to_json() | {"shared_cov": "true"})
    assert np.array_equal(back.covs, p.covs) and np.array_equal(back.means, p.means)


@pytest.mark.parametrize("xs, symmetric2", [
    ([[1e300], [-1e300], [1.0], [2.0]], True),
    ([[1e300], [-1e300], [1.0], [2.0]], False),
    # a finite covariance (spread 1e150) whose second moment (1e320) overflows
    ([[1e160], [1e160 + 1e150], [1e160 - 1e150], [1e160 + 2e150]], True),
], ids=["True", "False", "True-second-moment"])
def test_em_on_overflowing_data_is_a_numerical_failure(xs, symmetric2):
    # the data's covariance or the symmetric fit's second moment overflows: a
    # typed error, not a ValueError from scipy's solve or from the k-means++
    # draw, and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPsd, match="overflows"):  # exit 3 from the CLI
            em_fit(xs, 2, symmetric2=symmetric2)


def test_em_deterministic():
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((100, 2))
    p1, t1 = em_fit(xs, k=2, seed=9)
    p2, t2 = em_fit(xs, k=2, seed=9)
    assert np.array_equal(p1.means, p2.means)
    assert t1 == t2


def _two_blobs(n=60, seed=3):
    rng = np.random.default_rng(seed)
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return signs[:, None] * np.array([2.0, 0.0]) + rng.standard_normal((n, 2))


def test_em_stops_at_max_iters_with_the_fit_loglik_last():
    xs = _two_blobs()
    p, trace = em_fit(xs, k=2, max_iters=3, tol=0.0, seed=0)
    assert len(trace) == 3 + 1
    assert trace[-1] == gmm_loglik(p, xs)


@pytest.mark.parametrize("shared_cov", [False, True])
def test_em_reseeds_a_collapsed_component(monkeypatch, caplog, shared_cov):
    init = em._kmeanspp_means

    def one_far_center(xs, k, rng):  # the last center is far from every point
        return np.concatenate([init(xs, k - 1, rng), np.full((1, xs.shape[1]), 1e3)])

    monkeypatch.setattr(em, "_kmeanspp_means", one_far_center)
    xs = _two_blobs()
    p, trace = em_fit(xs, k=3, shared_cov=shared_cov, max_iters=50, seed=0)
    assert "component 2 collapsed" in caplog.text
    assert np.all(np.abs(p.means) < 10.0) and np.all(p.weights > 0)
    assert np.all(np.diff(trace) >= -1e-9)
    assert trace[-1] == pytest.approx(gmm_loglik(p, xs), abs=1e-12)


def test_kmeanspp_with_fewer_distinct_points_than_k():
    pts = np.repeat(np.array([[0.0, 1.0], [2.0, 0.0]]), 5, axis=0)
    centers = em._kmeanspp_means(pts, 4, SeededRng(0, 17))
    assert centers.shape == (4, 2)
    assert {tuple(c) for c in centers} == {(0.0, 1.0), (2.0, 0.0)}


def _log_joint_ref(p, xs):
    """The per-component formula: each component's own Cholesky factor and a
    solve of x - mu_i."""
    d = xs.shape[1]
    rows = []
    for w, mu, cov in zip(p.weights, p.means, p.covs):
        chol = np.linalg.cholesky(cov)
        y = scipy.linalg.solve_triangular(chol, (xs - mu).T, lower=True)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        rows.append(np.log(w) - 0.5 * (d * np.log(2.0 * np.pi) + logdet + np.sum(y ** 2, axis=0)))
    return np.stack(rows)


@pytest.mark.parametrize("shared", [True, False])
def test_log_joint_factors_each_covariance_once(monkeypatch, shared):
    rng = np.random.default_rng(4)
    k, d = 4, 3
    covs = np.stack([symmetrize(a @ a.T / d + 0.2 * np.eye(d))
                     for a in rng.standard_normal((k, d, d))])
    p = GmmParams(weights=np.array([0.1, 0.2, 0.3, 0.4]), means=2.0 * rng.standard_normal((k, d)),
                  covs=covs[0] if shared else covs)
    xs = 2.0 * rng.standard_normal((300, d))
    calls = []
    factor = em._cholesky_logdet
    monkeypatch.setattr(em, "_cholesky_logdet", lambda cov: calls.append(1) or factor(cov))
    lj = em._log_joint(p, xs)
    assert len(calls) == (1 if shared else k)
    ref = _log_joint_ref(p, xs)
    assert np.max(np.abs(lj - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_log_joint_of_a_zero_weight_component_is_minus_inf():
    p = GmmParams(weights=np.array([0.5, 0.0, 0.5]), means=np.array([[-1.0], [0.0], [1.0]]),
                  covs=np.ones((3, 1, 1)))
    lj = em._log_joint(p, np.linspace(-3.0, 3.0, 61)[:, None])
    assert np.all(lj[1] == -np.inf) and np.isfinite(lj[[0, 2]]).all()
    assert not np.any(np.argmax(lj, axis=0) == 1)  # even at 0, its own mean


def _overlapping(n=200, d=3, seed=7):
    """Mirrored components N(+-0.3 * 1, I) that overlap, so tanh does not saturate."""
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, n) * 2 - 1
    return signs[:, None] * np.full(d, 0.3) + rng.standard_normal((n, d))


def _symmetric_step_ref(xs, p, ridge):
    """One symmetric EM iteration from p by the reference formulas: the loglik
    and responsibilities of the log joint, then the two-pass reflected M-step."""
    n = xs.shape[0]
    lj = em._log_joint(p, xs)
    row_lse = lse_softmax(lj)[0]
    resp = np.exp(lj - row_lse).T
    mu = (resp[:, 0] - resp[:, 1]) @ xs / n
    dp, dm = xs - mu, xs + mu
    cov = (dp.T @ (resp[:, :1] * dp) + dm.T @ (resp[:, 1:] * dm)) / n
    return float(np.mean(row_lse)), resp, mu, symmetrize(cov) + ridge


def test_symmetric_iterations_match_reference_formulas():
    # iteration j + 1 from the iterate em_fit returns after j iterations
    xs = _overlapping()
    d = xs.shape[1]
    ridge = 1e-8 * np.trace(np.cov(xs, rowvar=False, bias=True)) / d * np.eye(d)
    for j in range(4):
        p, trace = em_fit(xs, k=2, symmetric2=True, max_iters=j, tol=0.0)
        ll, resp, mu, cov = _symmetric_step_ref(xs, p, ridge)
        if j:  # from the far init most of tanh saturates; later, most does not
            assert np.median(np.abs(resp[:, 0] - resp[:, 1])) < 0.9
        nxt, nxt_trace = em_fit(xs, k=2, symmetric2=True, max_iters=j + 1, tol=0.0)
        assert abs(nxt_trace[j] - ll) <= 1e-10
        assert np.max(np.abs(nxt.means[0] - mu)) <= 1e-10
        assert np.max(np.abs(nxt.covs[0] - cov)) <= 1e-10
        assert np.array_equal(nxt.means[1], -nxt.means[0])
        assert np.array_equal(nxt.covs[1], nxt.covs[0])


def test_symmetric_trace_scores_each_iterate():
    # em_fit stopped after j iterations returns the iterate trace entry j scores
    xs = _overlapping()
    _, trace = em_fit(xs, k=2, symmetric2=True, max_iters=6, tol=0.0)
    assert np.all(np.diff(trace) >= -1e-9)
    for j in range(7):
        p, head = em_fit(xs, k=2, symmetric2=True, max_iters=j, tol=0.0)
        assert head == trace[:j + 1]
        assert abs(head[-1] - gmm_loglik(p, xs)) <= 1e-10


def test_symmetric_singular_covariance_is_typed():
    with pytest.raises(SingularCovariance):
        em_fit(np.zeros((4, 2)), k=2, symmetric2=True)


def test_symmetric_fit_needs_no_per_sample_density(monkeypatch):
    # the symmetric path works on X^T X and one projection per sample: it
    # must not fall back to the O(n d^2) log joint densities
    xs = _overlapping()
    want, want_trace = em_fit(xs, k=2, symmetric2=True, max_iters=20)

    def forbidden(*args, **kwargs):
        raise AssertionError("symmetric EM evaluated per-sample Gaussian densities")

    monkeypatch.setattr(em, "_log_joint", forbidden)
    # em imports it at the call, so patching scipy's own name covers that path
    monkeypatch.setattr(scipy.linalg, "solve_triangular", forbidden)
    p, trace = em_fit(xs, k=2, symmetric2=True, max_iters=20)
    assert trace == want_trace
    assert np.array_equal(p.means, want.means) and np.array_equal(p.covs, want.covs)
