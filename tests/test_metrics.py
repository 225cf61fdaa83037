from itertools import permutations

import numpy as np
import pytest

from gatgmm import metrics
from gatgmm.em import GmmParams
from gatgmm.errors import InsufficientSamples, InvalidInput
from gatgmm.gausscore import SeededRng, random_orthogonal, symmetrize
from gatgmm.metrics import (
    bures_w2,
    condition1_check,
    fit_score,
    gmm_objective,
    gmm_objective_matched,
    gmm_objective_orthant,
    principal_direction,
)


def test_bures_identical():
    mu = np.array([1.0, -2.0])
    cov = np.array([[0.5, 0.1], [0.1, 0.3]])
    assert bures_w2(mu, cov, mu, cov) == pytest.approx(0.0, abs=1e-10)


def test_bures_commuting_diagonal():
    assert bures_w2(np.zeros(2), 4 * np.eye(2), np.zeros(2), np.eye(2)) == pytest.approx(2.0)


def test_bures_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        c1, c2 = symmetrize(a @ a.T), symmetrize(b @ b.T)
        m1, m2 = rng.standard_normal(3), rng.standard_normal(3)
        assert bures_w2(m1, c1, m2, c2) == pytest.approx(bures_w2(m2, c2, m1, c1), abs=1e-10)


def test_bures_identity_of_indiscernibles():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    cov = symmetrize(a @ a.T) + 0.1 * np.eye(3)
    mu = rng.standard_normal(3)
    assert bures_w2(mu, cov, mu + 1e-7, cov + 1e-7 * np.eye(3)) <= 1e-8
    assert bures_w2(mu, cov, mu + 0.1, cov) > 1e-3


def test_bures_sqrt_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(100):
        mats = [symmetrize(m @ m.T) + 0.05 * np.eye(2)
                for m in rng.standard_normal((3, 2, 2))]
        mus = rng.standard_normal((3, 2))
        dab = np.sqrt(bures_w2(mus[0], mats[0], mus[1], mats[1]))
        dbc = np.sqrt(bures_w2(mus[1], mats[1], mus[2], mats[2]))
        dac = np.sqrt(bures_w2(mus[0], mats[0], mus[2], mats[2]))
        assert dac <= dab + dbc + 1e-8


def test_gmm_objective_sign_invariance():
    truth = GmmParams.symmetric2(np.array([1.0, 2.0]), 0.2 * np.eye(2))
    cov = 0.25 * np.eye(2)
    mu = np.array([1.1, 1.9])
    assert gmm_objective(truth, mu, cov) == gmm_objective(truth, -mu, cov)
    assert gmm_objective(truth, truth.means[0], truth.covs[0]) == pytest.approx(0.0, abs=1e-10)
    assert gmm_objective(truth, -truth.means[0], truth.covs[0]) == pytest.approx(0.0, abs=1e-10)


def _kmix(seed, k=4, d=3):
    rng = np.random.default_rng(seed)
    covs = []
    for _ in range(k):
        a = rng.standard_normal((d, d))
        covs.append(symmetrize(a @ a.T / d + 0.1 * np.eye(d)))
    return GmmParams(weights=np.full(k, 1.0 / k), means=3.0 * rng.standard_normal((k, d)),
                     covs=np.stack(covs))


def test_gmm_objective_matched_zero_at_truth_in_any_order():
    truth = _kmix(0)
    perm = [2, 0, 3, 1]
    shuffled = GmmParams(weights=truth.weights[perm], means=truth.means[perm],
                         covs=truth.covs[perm])
    assert gmm_objective_matched(truth, truth) == pytest.approx(0.0, abs=1e-10)
    assert gmm_objective_matched(truth, shuffled) == pytest.approx(0.0, abs=1e-10)


def test_gmm_objective_matched_is_the_best_pairing():
    truth, fit = _kmix(1), _kmix(2)
    cost = [[bures_w2(truth.means[i], truth.covs[i], fit.means[j], fit.covs[j])
             for j in range(4)] for i in range(4)]
    brute = min(np.mean([cost[i][p[i]] for i in range(4)]) for p in permutations(range(4)))
    assert gmm_objective_matched(truth, fit) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("shared", [True, False])
def test_gmm_objective_matched_takes_each_covariance_pair_once(monkeypatch, shared):
    # one covariance term per distinct (truth cov, fit cov) pair, and the same
    # number as the k^2 bures_w2 calls give
    truth, fit = _kmix(3), _kmix(4)
    if shared:
        truth, fit = (GmmParams(weights=p.weights, means=p.means, covs=p.covs[0])
                      for p in (truth, fit))
    cost = np.array([[bures_w2(truth.means[i], truth.covs[i], fit.means[j], fit.covs[j])
                      for j in range(4)] for i in range(4)])
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    calls = []
    term = metrics._cov_term
    monkeypatch.setattr(metrics, "_cov_term", lambda a, b: calls.append(1) or term(a, b))
    assert gmm_objective_matched(truth, fit) == float(cost[rows, cols].mean())
    assert len(calls) == (1 if shared else 16)


def test_gmm_objective_matched_equals_sign_minimized_for_two_components():
    truth = GmmParams.symmetric2(np.array([1.0, -0.5]), np.array([[0.3, 0.1], [0.1, 0.2]]))
    fit = GmmParams.symmetric2(np.array([-0.8, 0.6]), np.array([[0.2, 0.0], [0.0, 0.4]]))
    assert gmm_objective_matched(truth, fit) == pytest.approx(
        gmm_objective(truth, fit.means[0], fit.covs[0]), rel=1e-12)


def test_gmm_objective_matched_rejects_component_mismatch():
    with pytest.raises(InvalidInput):
        gmm_objective_matched(_kmix(0, k=4), _kmix(0, k=3))


def test_gmm_objective_requires_symmetric_truth():
    bad = GmmParams(weights=np.array([0.5, 0.5]),
                    means=np.array([[1.0, 0.0], [0.5, 0.0]]),
                    covs=np.stack([np.eye(2)] * 2))
    with pytest.raises(InvalidInput):
        gmm_objective(bad, np.zeros(2), np.eye(2))
    with pytest.raises(InvalidInput):
        gmm_objective_orthant(bad, np.random.default_rng(4).standard_normal((40, 2)),
                              np.array([1.0, 0.0]))


def test_fit_score_matches_components_of_an_unmirrored_two_component_truth():
    # two components, but not the symmetric law: scored by the matched form
    truth = GmmParams(weights=np.array([0.5, 0.5]), means=np.array([[1.0, 0.0], [0.0, 1.0]]),
                      covs=np.stack([0.1 * np.eye(2)] * 2))
    fit = GmmParams(weights=np.array([0.5, 0.5]), means=np.array([[0.1, 0.9], [0.8, 0.1]]),
                    covs=np.stack([0.2 * np.eye(2)] * 2))
    assert fit_score(truth, fit) == pytest.approx(gmm_objective_matched(truth, fit), rel=1e-15)
    assert fit_score(truth, truth) == pytest.approx(0.0, abs=1e-12)


def test_fit_score_is_nan_when_the_component_counts_differ():
    truth = GmmParams.symmetric2(np.array([1.0, -0.5]), 0.1 * np.eye(2))
    fit = GmmParams(weights=np.full(4, 0.25), means=np.array([[1.0, -0.5], [-1.0, 0.5],
                                                              [0.0, 1.0], [0.0, -1.0]]),
                    covs=0.1 * np.eye(2))
    assert np.isnan(fit_score(truth, fit))
    assert np.isnan(fit_score(None, fit))
    assert fit_score(truth, truth) == gmm_objective(truth, truth.means[0], truth.covs[0])


def test_orthant_estimate_on_atoms():
    mu = np.array([2.0, 1.0])
    cov = 0.3 * np.eye(2)
    truth = GmmParams.symmetric2(mu, cov)
    samples = np.concatenate([np.tile(mu, (50, 1)), np.tile(-mu, (50, 1))])
    val = gmm_objective_orthant(truth, samples, mu)
    # zero empirical covariance: mean term 0, trace term = Tr(cov)
    assert val == pytest.approx(np.trace(cov), abs=1e-10)


def test_orthant_split_dir_sign_invariance():
    rng = np.random.default_rng(3)
    truth = GmmParams.symmetric2(np.array([1.5, 0.0]), 0.1 * np.eye(2))
    labels = rng.integers(0, 2, 400) * 2 - 1
    xs = labels[:, None] * truth.means[0] + 0.3 * rng.standard_normal((400, 2))
    v = np.array([1.0, 0.2])
    assert gmm_objective_orthant(truth, xs, v) == pytest.approx(
        gmm_objective_orthant(truth, xs, -v), abs=1e-12)


def test_orthant_converges_to_per_half_mle():
    from gatgmm.datagen import make_isotropic
    truth = make_isotropic(seed=0).meta.truth
    prev = None
    for n in (1000, 10000, 100000):
        ds = make_isotropic(n=n, seed=5)
        val = gmm_objective_orthant(truth, ds.samples, np.ones(20))
        if prev is not None:
            assert val <= prev * 2  # nonincreasing up to MC noise
        prev = val
    assert prev <= 0.05


def test_orthant_insufficient_samples():
    truth = GmmParams.symmetric2(np.array([1.0, 0.0]), 0.1 * np.eye(2))
    xs = np.tile([1.0, 0.0], (10, 1))  # nothing lands on the negative side
    with pytest.raises(InsufficientSamples):
        gmm_objective_orthant(truth, xs, np.array([1.0, 0.0]))


def test_condition1_isotropic_parameters():
    d = 20
    mu = np.ones(d)
    cov = 0.03 * np.eye(d)
    direction = np.ones(d) / np.sqrt(d)
    holds, margin = condition1_check(mu, cov, direction)
    assert holds
    assert margin == pytest.approx(np.sqrt(20) - 0.06 - np.sqrt(0.03), abs=1e-9)


def test_condition1_orthogonal_fails():
    holds, margin = condition1_check(np.array([1.0, 0.0]), 0.5 * np.eye(2),
                                     np.array([0.0, 1.0]))
    assert not holds
    assert margin < 0


def test_condition1_not_scale_invariant():
    mu = np.array([3.0, 0.0])
    cov = 0.2 * np.eye(2)
    _, m1 = condition1_check(mu, cov, np.array([1.0, 0.0]))
    _, m2 = condition1_check(mu, cov, np.array([2.0, 0.0]))
    assert m1 != pytest.approx(m2)


def test_condition1_rejects_zero_direction():
    with pytest.raises(InvalidInput):
        condition1_check(np.ones(2), np.eye(2), np.zeros(2))


def test_principal_direction_line():
    v = np.array([3.0, -4.0])
    ts = np.linspace(-2, 2, 50)[:, None]
    xs = ts * v
    direction = principal_direction(xs)
    assert np.allclose(np.abs(direction), np.abs(v) / 5.0, atol=1e-10)
    assert direction[0] > 0  # sign convention


def test_principal_direction_isotropic_dataset():
    from gatgmm.datagen import make_isotropic
    ds = make_isotropic(n=20000, seed=3)
    direction = principal_direction(ds.samples)
    target = np.ones(20) / np.sqrt(20)
    angle = np.degrees(np.arccos(np.clip(abs(direction @ target), -1, 1)))
    assert angle <= 5.0


def test_principal_direction_deterministic_sign():
    rng = np.random.default_rng(4)
    xs = rng.standard_normal((100, 3)) @ np.diag([3.0, 1.0, 0.5])
    d1 = principal_direction(xs)
    d2 = principal_direction(xs.copy())
    assert np.array_equal(d1, d2)
    nz = np.nonzero(np.abs(d1) > 1e-12)[0]
    assert d1[nz[0]] > 0
