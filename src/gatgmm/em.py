"""Expectation-maximization baseline for k-component Gaussian mixtures.

Supports per-component covariances, a shared covariance, and the
constrained symmetric two-component mode (means mirrored through the
origin, equal weights, shared covariance).

In the symmetric mode EM is a tanh fixed point on the data's second moment
S = X^T X / n, computed once.  With equal weights the responsibility gap is
r+ - r- = tanh(x^T Sigma^{-1} mu), and since r+ + r- = 1 the pooled
reflected scatter is S - mu' mu'^T, so an iteration is

    mu'    = X^T tanh(X Sigma^{-1} mu) / n
    Sigma' = sym(S - mu' mu'^T) + ridge

scored by the mean log-likelihood
-(d log 2 pi + log det Sigma + tr(Sigma^{-1} S) + mu^T Sigma^{-1} mu) / 2
+ mean log cosh(X Sigma^{-1} mu).  One Cholesky factor of Sigma serves both,
so an iteration costs O(d^3 + n d) where the generic E and M steps cost
O(n d^2).

A constant diagonal ridge, 1e-8 * tr(total data covariance) / d, is added
at every covariance update so the fit cannot collapse on near-atomic data.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, SingularCovariance
from .gausscore import (
    SeededRng,
    as_count,
    as_gaussian,
    as_points,
    as_real,
    logcosh,
    lse_softmax,
    second_moment,
    symmetrize,
)
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
        mu = as_points(self.means, what="mixture means")
        k, d = mu.shape
        w = as_points(self.weights, what="mixture weights").ravel()
        try:
            cv = np.asarray(self.covs, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"mixture covariances must be numeric: {exc}") from exc
        if cv.ndim == 2:
            cv = cv[None, :, :]
        if w.shape[0] != k or cv.ndim != 3 or len(cv) not in (1, k):
            raise InvalidInput("inconsistent mixture parameter shapes")
        # one covariance shared by all components or one each; every (mean,
        # covariance) pair is checked to be finite and d x d, and symmetrized
        cv = np.stack([as_gaussian(m, c, d)[1]
                       for m, c in zip(mu, np.broadcast_to(cv, (k,) + cv.shape[1:]))])
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covs", cv)
        if abs(w.sum() - 1.0) > 1e-12 or np.any(w < 0):
            raise InvalidInput("weights must be a probability vector (sum 1 within 1e-12)")

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @cached_property
    def is_symmetric2(self) -> bool:
        """Whether this is (1/2) N(mu, S) + (1/2) N(-mu, S) to 1e-9, the law the
        paper's guarantees hold for: the one test of it."""
        return bool(self.k == 2 and np.allclose(self.means[1], -self.means[0], atol=1e-9)
                    and np.allclose(self.covs[0], self.covs[1], atol=1e-9))

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


def _cholesky_logdet(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """The lower Cholesky factor L of cov and log det cov = 2 sum log diag L."""
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"component covariance is singular: {exc}") from exc
    return chol, 2.0 * float(np.sum(np.log(np.diag(chol))))


def _component_log_dens(xs: np.ndarray, mu: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = xs.shape[1]
    chol, logdet = _cholesky_logdet(cov)
    diff = xs - mu
    from scipy.linalg import solve_triangular
    y = solve_triangular(chol, diff.T, lower=True).T
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + np.sum(y ** 2, axis=1))


def _log_joint(p: GmmParams, xs: np.ndarray) -> np.ndarray:
    """Slot-major (k, n) log joint densities log w_i + log N(x; mu_i, Sigma_i)."""
    with np.errstate(divide="ignore"):
        logw = np.log(p.weights)
    return np.stack([logw[i] + _component_log_dens(xs, p.means[i], p.covs[i])
                     for i in range(p.k)])


def gmm_loglik(p: GmmParams, data) -> float:
    """Mean log density (1/n) sum_i log p(x_i); NLL is the negation."""
    xs = as_points(data, p.d, "data")
    return float(np.mean(lse_softmax(_log_joint(p, xs))[0]))


def _symmetric_loglik(xs: np.ndarray, second: np.ndarray, mu: np.ndarray,
                      cov: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean log-likelihood of (1/2) N(mu, cov) + (1/2) N(-mu, cov) on xs, whose
    second moment is ``second``, and the projections t = xs cov^{-1} mu."""
    d = xs.shape[1]
    chol, logdet = _cholesky_logdet(cov)
    from scipy.linalg import cho_solve
    sol = cho_solve((chol, True), np.column_stack([second, mu]))
    a = sol[:, d]
    t = xs @ a
    quad = float(np.trace(sol[:, :d])) + float(mu @ a)
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + quad) + float(np.mean(logcosh(t))), t


def _symmetric_fit(xs: np.ndarray, mu: np.ndarray, cov: np.ndarray, ridge: np.ndarray,
                   max_iters: int, tol: float) -> tuple[GmmParams, list[float]]:
    """Symmetric EM from (mu, cov) as the tanh fixed point on S = X^T X / n."""
    n = xs.shape[0]
    second = second_moment(xs)
    trace: list[float] = []
    for it in range(max_iters + 1):
        ll, t = _symmetric_loglik(xs, second, mu, cov)
        trace.append(ll)
        if it == max_iters or (len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol):
            break
        mu = np.tanh(t) @ xs / n
        cov = symmetrize(second - np.outer(mu, mu)) + ridge
    return GmmParams.symmetric2(mu, cov), trace


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
    seed: int = 0,
) -> tuple[GmmParams, list[float]]:
    """Fit a k-component GMM; returns the parameters and the loglik trace.

    The trace is nondecreasing within 1e-9 and its last entry is the mean
    log-likelihood of the returned parameters (``gmm_loglik`` within 1e-9;
    the symmetric mode computes it in its own closed form).  Empty
    components (posterior mass below 1e-12) are reseeded from a random data
    point, not an error.
    """
    xs = as_points(data, what="data")
    n, d = xs.shape
    k, max_iters = as_count(k, "k"), as_count(max_iters, "max_iters", 0)
    if as_real(tol, "tol") < 0:
        raise InvalidInput(f"tol must be >= 0, got {tol!r}")
    if n < k:
        raise InvalidInput(f"need at least k={k} samples, got {n}")
    if symmetric2 and k != 2:
        raise InvalidInput("symmetric2 mode is a 2-component constraint")

    total_cov = symmetrize(np.cov(xs, rowvar=False, bias=True).reshape(d, d))
    ridge = 1e-8 * float(np.trace(total_cov)) / d * np.eye(d)
    rng = SeededRng(seed, stream=17)

    # spherical covariance init: a full-covariance start makes the first
    # posterior noise-dominated when n is small relative to d
    sphere = (float(np.trace(total_cov)) / d) * np.eye(d) + ridge
    if symmetric2:  # from the largest-norm point
        mu = xs[int(np.argmax(np.sum(xs ** 2, axis=1)))]
        return _symmetric_fit(xs, mu, sphere, ridge, max_iters, tol)
    means = _kmeanspp_means(xs, k, rng)
    covs = np.repeat(sphere[None], k, axis=0)
    params = GmmParams(weights=np.full(k, 1.0 / k), means=means, covs=covs,
                       shared_cov=shared_cov)

    trace: list[float] = []
    for _ in range(max_iters):
        lj = _log_joint(params, xs)
        row_lse = lse_softmax(lj)[0]
        trace.append(float(np.mean(row_lse)))
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol:
            return params, trace

        # sample-major, so each component's mass sums in sample order
        resp = np.ascontiguousarray(np.exp(lj - row_lse).T)
        mass = resp.sum(axis=0)

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
