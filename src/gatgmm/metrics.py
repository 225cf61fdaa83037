"""Evaluation metrics: Gaussian transport distance, its sign-minimized form
against a symmetric truth (``GmmParams.is_symmetric2``), its matched
k-component form, the rule that picks one to score a fit (:func:`fit_score`),
the orthant-split sample estimate, NLL, and the anchors' separability margin.

The Gaussian distance here is the full squared 2-Wasserstein value

    Tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2}) + ||mu1 - mu2||^2

(no 1/2 on the cost), while the transport oracles in
:mod:`gatgmm.transport` use half-quadratic cost; the two scales are kept
deliberately distinct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .em import GmmParams
from .errors import InsufficientSamples, InvalidInput
from .gausscore import as_gaussian, as_points, second_moment, sqrtm_psd, sym_eigen, symmetrize

__all__ = [
    "MetricsRecord",
    "bures_w2",
    "gmm_objective",
    "gmm_objective_matched",
    "fit_score",
    "gmm_objective_orthant",
    "condition1_check",
    "principal_direction",
]


@dataclass(frozen=True)
class MetricsRecord:
    gmm_objective: float
    nll: float
    condition1_holds: bool
    condition1_margin: float

    def to_json(self) -> dict:
        return {
            "gmm_objective": self.gmm_objective,
            "nll": self.nll,
            "condition1_holds": self.condition1_holds,
            "condition1_margin": self.condition1_margin,
        }


def _trace_term(cov1: np.ndarray, cov2: np.ndarray) -> float:
    root = sqrtm_psd(cov1)
    cross = sqrtm_psd(symmetrize(root @ cov2 @ root))
    return float(np.trace(cov1) + np.trace(cov2) - 2.0 * np.trace(cross))


def bures_w2(mu1, cov1, mu2, cov2) -> float:
    """Squared 2-Wasserstein distance between two Gaussians."""
    mu1, cov1 = as_gaussian(mu1, cov1)
    mu2, cov2 = as_gaussian(mu2, cov2, mu1.size)
    val = _trace_term(cov1, cov2) + float(np.sum((mu1 - mu2) ** 2))
    if -1e-8 < val < 0.0:
        return 0.0
    return val


def _sign_min_mean_term(mu: np.ndarray, fitted_mu: np.ndarray) -> float:
    return float(min(np.sum((mu - fitted_mu) ** 2), np.sum((mu + fitted_mu) ** 2)))


def gmm_objective(truth: GmmParams, fitted_mu, fitted_cov) -> float:
    """Sign-minimized Gaussian transport distance of a fitted component pair
    against a symmetric two-component truth."""
    if not truth.is_symmetric2:
        raise InvalidInput("truth must be a symmetric two-component mixture")
    fitted_mu, fitted_cov = as_gaussian(fitted_mu, fitted_cov, truth.d)
    val = _trace_term(truth.covs[0], fitted_cov) + _sign_min_mean_term(truth.means[0], fitted_mu)
    if -1e-8 < val < 0.0:
        return 0.0
    return val


def gmm_objective_matched(truth: GmmParams, fit: GmmParams) -> float:
    """Mean Gaussian transport distance over truth/fit component pairs
    matched by optimal assignment: the k-component score (weights are not
    compared)."""
    if truth.k != fit.k or truth.d != fit.d:
        raise InvalidInput(f"truth is {truth.k} x d={truth.d}, fit is {fit.k} x d={fit.d}")
    cost = np.array([[bures_w2(truth.means[i], truth.covs[i], fit.means[j], fit.covs[j])
                      for j in range(fit.k)] for i in range(truth.k)])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def fit_score(truth: GmmParams | None, fit: GmmParams) -> float:
    """A fit's score: ``gmm_objective`` of a two-component fit against a
    symmetric two-component truth (``GmmParams.is_symmetric2``),
    ``gmm_objective_matched`` against any other truth with the fit's k, and
    nan without a truth or when the component counts differ."""
    if truth is not None and truth.is_symmetric2 and fit.k == 2:
        return gmm_objective(truth, fit.means[0], fit.covs[0])
    if truth is not None and truth.k == fit.k:
        return gmm_objective_matched(truth, fit)
    return float("nan")


def gmm_objective_orthant(truth: GmmParams, samples: np.ndarray,
                          split_dir: np.ndarray) -> float:
    """Sample estimate: split by the sign of the projection onto split_dir,
    fit a Gaussian per half (biased MLE), and average the two halves'
    ``gmm_objective`` against the truth."""
    if not truth.is_symmetric2:
        raise InvalidInput("truth must be a symmetric two-component mixture")
    d = truth.d
    xs = as_points(samples, d)
    split_dir = as_points(split_dir, d, "split direction").ravel()
    if split_dir.shape != (d,) or np.linalg.norm(split_dir) == 0:
        raise InvalidInput(f"split direction must be a nonzero vector of length {d}")
    proj = xs @ split_dir
    total = 0.0
    for half in (xs[proj >= 0], xs[proj < 0]):
        if half.shape[0] < d + 1:
            raise InsufficientSamples(
                f"orthant half has {half.shape[0]} samples; need at least {d + 1}")
        m_hat = half.mean(axis=0)
        total += gmm_objective(truth, m_hat, second_moment(half - m_hat))
    return 0.5 * total


def condition1_check(mu, cov, direction) -> tuple[bool, float]:
    """Separability margin |mu . d| - 2 d' cov d - sqrt(d' cov d) along d."""
    mu, cov = as_gaussian(mu, cov)
    direction = as_points(direction, mu.size, "direction").ravel()
    if direction.shape != mu.shape or np.linalg.norm(direction) == 0:
        raise InvalidInput(f"direction must be a nonzero vector of length {mu.size}")
    var = float(direction @ cov @ direction)
    margin = abs(float(mu @ direction)) - 2.0 * var - np.sqrt(max(var, 0.0))
    return margin >= 0.0, float(margin)


def principal_direction(samples: np.ndarray) -> np.ndarray:
    """Unit top eigenvector of the empirical second moment; sign fixed so the
    first coordinate with magnitude above 1e-12 is positive."""
    xs = as_points(samples)
    second = second_moment(xs)
    vec = sym_eigen(second).vectors[:, 0]
    vec = vec / np.linalg.norm(vec)
    nz = np.nonzero(np.abs(vec) > 1e-12)[0]
    if nz.size and vec[nz[0]] < 0:
        vec = -vec
    return vec
