"""Expectation-maximization baseline for k-component Gaussian mixtures.

Supports per-component covariances, a shared covariance, and the
constrained symmetric two-component mode (means mirrored through the
origin, equal weights, shared covariance), whose M-step pools the
reflected sufficient statistics of the two components.

A constant diagonal ridge (1e-8 * tr(total data covariance) / d by
default) is added at every covariance update so the fit cannot collapse
on near-atomic data.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InvalidInput, SingularCovariance
from .gausscore import SeededRng, as_gaussian, as_points, symmetrize
from .model import SYMMETRIC2

__all__ = ["GmmParams", "em_fit", "gmm_loglik"]

log = logging.getLogger(__name__)

_EMPTY_MASS = 1e-12


@dataclass(frozen=True)
class GmmParams:
    """Mixture weights, component means, and component covariances."""

    weights: np.ndarray  # (k,)
    means: np.ndarray    # (k, d)
    covs: np.ndarray     # (k, d, d)
    shared_cov: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        mu = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        cv = np.asarray(self.covs, dtype=np.float64)
        if cv.ndim == 2:
            cv = cv[None, :, :]
        if cv.shape[0] == 1 and mu.shape[0] > 1:
            cv = np.repeat(cv, mu.shape[0], axis=0)
        cv = 0.5 * (cv + np.transpose(cv, (0, 2, 1)))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covs", cv)
        k, d = mu.shape
        if w.shape[0] != k or cv.shape != (k, d, d):
            raise InvalidInput("inconsistent mixture parameter shapes")
        if abs(w.sum() - 1.0) > 1e-12 or np.any(w < 0):
            raise InvalidInput("weights must be a probability vector (sum 1 within 1e-12)")

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @staticmethod
    def symmetric2(mu: np.ndarray, cov: np.ndarray) -> "GmmParams":
        mu, cov = as_gaussian(mu, cov)
        return GmmParams(weights=np.array([0.5, 0.5]), means=np.stack([mu, -mu]),
                         covs=np.stack([cov, cov]), shared_cov=True)

    @staticmethod
    def from_generator(g) -> "GmmParams":
        """The mixture a GeneratorParams samples from: uniform weights and
        the shared covariance C C^T."""
        cov = g.cov_factor @ g.cov_factor.T
        if g.mode == SYMMETRIC2:
            return GmmParams.symmetric2(g.means[0], cov)
        return GmmParams(weights=np.full(g.k, 1.0 / g.k), means=g.means, covs=cov,
                         shared_cov=True)

    def to_json(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covs": self.covs.tolist(),
            "shared_cov": bool(self.shared_cov),
        }

    @staticmethod
    def from_json(obj: dict) -> "GmmParams":
        return GmmParams(weights=np.array(obj["weights"], dtype=np.float64),
                         means=np.array(obj["means"], dtype=np.float64),
                         covs=np.array(obj["covs"], dtype=np.float64),
                         shared_cov=bool(obj.get("shared_cov", False)))


def _component_log_dens(xs: np.ndarray, mu: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = xs.shape[1]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"component covariance is singular: {exc}") from exc
    diff = xs - mu
    y = solve_triangular(chol, diff.T, lower=True).T
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + np.sum(y ** 2, axis=1))


def _log_joint(p: GmmParams, xs: np.ndarray) -> np.ndarray:
    cols = []
    with np.errstate(divide="ignore"):
        logw = np.log(p.weights)
    for i in range(p.k):
        cols.append(logw[i] + _component_log_dens(xs, p.means[i], p.covs[i]))
    return np.stack(cols, axis=1)


def _lse_rows(a: np.ndarray) -> np.ndarray:
    m = np.max(a, axis=1, keepdims=True)
    return (m + np.log(np.sum(np.exp(a - m), axis=1, keepdims=True)))[:, 0]


def gmm_loglik(p: GmmParams, data) -> float:
    """Mean log density (1/n) sum_i log p(x_i); NLL is the negation."""
    xs = as_points(data, p.d, "data")
    return float(np.mean(_lse_rows(_log_joint(p, xs))))


def _kmeanspp_means(xs: np.ndarray, k: int, rng: SeededRng) -> np.ndarray:
    n = xs.shape[0]
    centers = [xs[int(rng.gen.integers(0, n))]]
    for _ in range(1, k):
        d2 = np.min(np.stack([np.sum((xs - c) ** 2, axis=1) for c in centers]), axis=0)
        total = d2.sum()
        if total <= 0:
            centers.append(xs[int(rng.gen.integers(0, n))])
            continue
        probs = d2 / total
        centers.append(xs[int(rng.gen.choice(n, p=probs))])
    return np.stack(centers)


def em_fit(
    data,
    k: int,
    *,
    shared_cov: bool = False,
    symmetric2: bool = False,
    max_iters: int = 500,
    tol: float = 1e-8,
    cov_floor: float | None = None,
    seed: int = 0,
) -> tuple[GmmParams, list[float]]:
    """Fit a k-component GMM; returns the parameters and the loglik trace.

    The trace is nondecreasing within 1e-9 and its last entry is the mean
    log-likelihood of the returned parameters.  Empty components (posterior
    mass below 1e-12) are reseeded from a random data point, not an error.
    """
    xs = as_points(data, what="data")
    n, d = xs.shape
    if n < k:
        raise InvalidInput(f"need at least k={k} samples, got {n}")
    if symmetric2 and k != 2:
        raise InvalidInput("symmetric2 mode is a 2-component constraint")

    total_cov = symmetrize(np.cov(xs, rowvar=False, bias=True).reshape(d, d))
    floor = cov_floor if cov_floor is not None else 1e-8 * float(np.trace(total_cov)) / d
    ridge = floor * np.eye(d)
    rng = SeededRng(seed, stream=17)

    # spherical covariance init: a full-covariance start makes the first
    # posterior noise-dominated when n is small relative to d
    sphere = (float(np.trace(total_cov)) / d) * np.eye(d) + ridge
    if symmetric2:
        mu = xs[int(np.argmax(np.sum(xs ** 2, axis=1)))]
        params = GmmParams.symmetric2(mu, sphere)
    else:
        means = _kmeanspp_means(xs, k, rng)
        covs = np.repeat(sphere[None], k, axis=0)
        params = GmmParams(weights=np.full(k, 1.0 / k), means=means, covs=covs,
                           shared_cov=shared_cov or symmetric2)

    trace: list[float] = []
    for _ in range(max_iters):
        lj = _log_joint(params, xs)
        row_lse = _lse_rows(lj)
        trace.append(float(np.mean(row_lse)))
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol:
            return params, trace

        resp = np.exp(lj - row_lse[:, None])
        mass = resp.sum(axis=0)

        if symmetric2:
            w = resp[:, 0] - resp[:, 1]
            mu = (w @ xs) / n
            dp = xs - mu
            dm = xs + mu
            cov = (dp.T @ (resp[:, 0:1] * dp) + dm.T @ (resp[:, 1:2] * dm)) / n
            params = GmmParams.symmetric2(mu, symmetrize(cov) + ridge)
            continue

        new_means = params.means.copy()
        new_covs = params.covs.copy()
        new_w = params.weights.copy()
        pooled = np.zeros((d, d))
        for i in range(k):
            if mass[i] < _EMPTY_MASS:
                log.warning("component %d collapsed; reseeding from a random data point", i)
                new_means[i] = xs[int(rng.gen.integers(0, n))]
                new_covs[i] = total_cov + ridge
                new_w[i] = 1.0 / n
                pooled += mass[i] * new_covs[i]
                continue
            mu_i = resp[:, i] @ xs / mass[i]
            diff = xs - mu_i
            cov_i = symmetrize(diff.T @ (resp[:, i:i + 1] * diff) / mass[i])
            new_means[i] = mu_i
            new_covs[i] = cov_i + ridge
            new_w[i] = mass[i] / n
            pooled += mass[i] * cov_i
        new_w = new_w / new_w.sum()
        if shared_cov:
            shared = symmetrize(pooled / n) + ridge
            new_covs = np.repeat(shared[None], k, axis=0)
        params = GmmParams(weights=new_w, means=new_means, covs=new_covs,
                           shared_cov=shared_cov)

    trace.append(gmm_loglik(params, xs))
    return params, trace
