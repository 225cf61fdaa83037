"""Transport maps between mixtures, Bayes error, and exact small-scale
quadratic-cost OT oracles.

The randomized map sends a source point with component label y to
Gamma_y (x - mu_y) + mu~_y, where Gamma_i converts the i-th covariance
(target-sqrt times source-inverse-sqrt); averaging it against the source
posterior gives the deterministic conditional-expectation map.

Exact oracles use the cost c(x, x') = ||x - x'||^2 / 2, so all values
here live on the half-squared-Wasserstein scale; the Gaussian evaluation
metric in :mod:`gatgmm.metrics` uses the plain squared distance instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .em import GmmParams, _log_joint
from .errors import InvalidInput, TooLarge
from .gausscore import (SeededRng, as_count, as_points, as_real, inv_sqrtm_psd,
                        lse_softmax, sqrtm_psd)

__all__ = [
    "TransportPair",
    "posterior",
    "posterior_batch",
    "psi_map",
    "psi_map_batch",
    "psi_randomized",
    "bayes_error",
    "duality_gap_bound_terms",
    "w2_1d_exact",
    "w2_assignment_exact",
    "Duality1DResult",
    "duality_gap_1d",
]

_ASSIGN_MAX = 64


@dataclass(frozen=True)
class TransportPair:
    """Source/target mixtures plus the per-component conversion matrices."""

    source: GmmParams
    target: GmmParams
    gammas: np.ndarray  # (k, d, d)

    @staticmethod
    def build(source: GmmParams, target: GmmParams) -> "TransportPair":
        if source.k != target.k:
            raise InvalidInput("source and target must have the same component count")
        uniform = np.full(source.k, 1.0 / source.k)
        if not (np.allclose(source.weights, uniform, atol=1e-12)
                and np.allclose(target.weights, uniform, atol=1e-12)):
            raise InvalidInput("transport pair requires uniform weights on both sides")
        gammas = []
        for i in range(source.k):
            cs, ct = source.covs[i], target.covs[i]
            comm = cs @ ct - ct @ cs
            scale = max(np.max(np.abs(cs)) * np.max(np.abs(ct)), 1e-300)
            if np.max(np.abs(comm)) > 1e-8 * scale:
                warnings.warn(
                    f"component {i}: source/target covariances do not commute "
                    f"(residual {np.max(np.abs(comm)):.3g}); the conversion matrix "
                    "is still well-defined", RuntimeWarning)
            gammas.append(sqrtm_psd(ct) @ inv_sqrtm_psd(cs))
        return TransportPair(source=source, target=target, gammas=np.stack(gammas))

    @property
    def k(self) -> int:
        return self.source.k


def posterior_batch(p: GmmParams, xs: np.ndarray) -> np.ndarray:
    """Bayes posterior over component labels, one row per sample."""
    lj = _log_joint(p, as_points(xs, p.d))
    return np.exp(lj - lse_softmax(lj)[0]).T


def posterior(p: GmmParams, x: np.ndarray) -> np.ndarray:
    return posterior_batch(p, [x])[0]


def psi_randomized(tp: TransportPair, x: np.ndarray, y: int) -> np.ndarray:
    """Label-indexed affine map Gamma_y (x - mu_y) + mu~_y."""
    x = as_points([x], tp.source.d, "point")[0]
    i = as_count(y, "label", 0)
    if i >= tp.k:
        raise InvalidInput(f"label {y} out of range 0..{tp.k - 1}")
    return tp.gammas[i] @ (x - tp.source.means[i]) + tp.target.means[i]


def psi_map_batch(tp: TransportPair, xs: np.ndarray) -> np.ndarray:
    xs = as_points(xs, tp.source.d)
    post = posterior_batch(tp.source, xs)
    out = np.zeros_like(xs)
    for i in range(tp.k):
        moved = (xs - tp.source.means[i]) @ tp.gammas[i].T + tp.target.means[i]
        out += post[:, i:i + 1] * moved
    return out


def psi_map(tp: TransportPair, x: np.ndarray) -> np.ndarray:
    """Posterior-weighted conditional expectation of the randomized map."""
    return psi_map_batch(tp, [x])[0]


def sample_mixture(p: GmmParams, n: int, rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """Draw n labeled samples from the mixture; returns (points, labels)."""
    n = as_count(n, "n")
    labels = rng.gen.choice(p.k, size=n, p=p.weights)
    z = rng.gen.standard_normal((n, p.d))
    # one n x d product per component, kept on that component's rows; a
    # gather of per-draw factors would build an n x d x d array
    shift = z @ sqrtm_psd(p.covs[0]).T
    for i in range(1, p.k):
        shift = np.where((labels == i)[:, None], z @ sqrtm_psd(p.covs[i]).T, shift)
    return p.means[labels] + shift, labels


def bayes_error(p: GmmParams, n_mc: int, rng: SeededRng) -> float:
    """Monte Carlo misclassification rate of the posterior argmax classifier."""
    xs, labels = sample_mixture(p, as_count(n_mc, "n_mc"), rng)
    predicted = np.argmax(posterior_batch(p, xs), axis=1)
    return float(np.mean(predicted != labels))


def duality_gap_bound_terms(tp: TransportPair, pe: float, ex_norm2: float,
                   ex_norm4: float) -> tuple[float, float, float]:
    """Approximation-error bound pieces (M1, M2, bound) for the map pair.

    bound = (3/2 M1 + sqrt(M1 M2)) sqrt(pe) + sqrt(M1 M2) pe^(1/4), for a real
    pe in [0, 1] and finite moments E||X||^2, E||X||^4 >= 0, else InvalidInput.
    """
    pe, ex_norm2, ex_norm4 = (as_real(pe, "pe"), as_real(ex_norm2, "ex_norm2"),
                              as_real(ex_norm4, "ex_norm4"))
    if not 0.0 <= pe <= 1.0:
        raise InvalidInput("pe must lie in [0, 1]")
    if min(ex_norm2, ex_norm4) < 0.0:
        raise InvalidInput("the moments ex_norm2 and ex_norm4 must be >= 0")
    spec = [np.linalg.norm(gam, 2) for gam in tp.gammas]
    shift = [np.linalg.norm(tp.gammas[i] @ tp.source.means[i] - tp.target.means[i])
             for i in range(tp.k)]
    dev = [np.linalg.norm(gam - np.eye(gam.shape[0]), 2) for gam in tp.gammas]
    max_shift_sq = max(s ** 2 for s in shift)
    m1 = 8.0 * max(s ** 2 for s in spec) * np.sqrt(ex_norm4) + 8.0 * np.sqrt(pe) * max_shift_sq
    m2 = 2.0 * max(s ** 2 for s in dev) * ex_norm2 + 2.0 * max_shift_sq
    cross = np.sqrt(m1 * m2)
    bound = (1.5 * m1 + cross) * np.sqrt(pe) + cross * pe ** 0.25
    return float(m1), float(m2), float(bound)


def w2_1d_exact(a, b) -> float:
    """Exact half-squared-quadratic OT between equal-size 1-D samples
    (sorted matching): (1/n) sum ||a_(i) - b_(i)||^2 / 2."""
    # a 1-D sample of n values is read as one point of width n
    a, b = as_points(a, what="sample a").ravel(), as_points(b, what="sample b").ravel()
    if a.size != b.size:
        raise InvalidInput(f"samples must have equal length, got {a.size} and {b.size}")
    return float(np.mean(0.5 * (np.sort(a) - np.sort(b)) ** 2))


def w2_assignment_exact(a: np.ndarray, b: np.ndarray) -> float:
    """Exact OT between small equal-size empirical measures via optimal
    assignment; refuses n > 64."""
    a, b = as_points(a, what="cloud a"), as_points(b, what="cloud b")
    if a.shape != b.shape:
        raise InvalidInput("point clouds must have identical shapes")
    n = a.shape[0]
    if n > _ASSIGN_MAX:
        raise TooLarge(f"assignment oracle limited to n <= {_ASSIGN_MAX}, got {n}")
    diff = a[:, None, :] - b[None, :, :]
    cost = 0.5 * np.sum(diff ** 2, axis=2)
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


# ---------------------------------------------------------------------------
# 1-D duality sandwich machinery


@dataclass(frozen=True)
class Duality1DResult:
    """Surrogate dual value vs exact empirical transport cost in one dimension."""

    dual: float        # E[D~(X)] - E[D~^c(X~)] on the paired samples
    w2: float          # w2_1d_exact on the same samples
    gap: float         # w2 - dual (>= 0 up to sampling noise)
    se: float          # Monte Carlo standard error of (w2 - dual)
    bound: float       # approximation-error bound with MC-estimated inputs
    pe: float          # MC Bayes error of the source mixture


def _grid_c_transform(grid: np.ndarray, values: np.ndarray, chunk: int = 64) -> np.ndarray:
    """Grid c-transform out[i] = max_j values[j] - (grid[i] - grid[j])^2 / 2.

    ``grid`` must be ascending, ties allowed (``duality_gap_1d`` passes a
    linspace), and both arrays finite.  On an ascending grid the cost
    -(x - x')^2/2 has increasing differences, so the first maximizer j*(i) is
    nondecreasing in i for any ``values`` (Topkis).  Every row of a chunk
    therefore has its maximizer between j* of the chunk's first row and j* of
    the next chunk's first row (of the last grid point, for the last chunk):
    only those rows are searched in full, and each chunk takes the same
    expression's max over that column window, which is the exhaustive float
    maximum.  Rounding moves each computed entry at most eta from its exact
    value, so a column outside the window can tie or win only within
    reach = 4 eta / (smallest positive gap) of it; the window is widened by
    reach (about 3e-10 on the duality grids, far below one gap).  The work is
    about N^2/chunk + N*chunk entries instead of N^2.
    """
    n = grid.size
    starts = np.arange(0, n, chunk)
    rows = np.append(starts, n - 1)
    args = np.argmax(values[None, :] - 0.5 * (grid[rows, None] - grid[None, :]) ** 2, axis=1)
    gaps = np.diff(grid)
    gaps = gaps[gaps > 0]
    eta = 2.0 ** -52 * (np.max(np.abs(values)) + 3.0 * (grid[-1] - grid[0]) ** 2)
    reach = 4.0 * eta / gaps.min() if gaps.size else 0.0
    los = np.searchsorted(grid, grid[args[:-1]] - reach, side="left")
    his = np.searchsorted(grid, grid[args[1:]] + reach, side="right")
    out = np.empty_like(values)
    for start, lo, hi in zip(starts, los, his):
        sl = grid[start:start + chunk, None]
        cols = slice(lo, hi)
        out[start:start + chunk] = np.max(values[None, cols] - 0.5 * (sl - grid[None, cols]) ** 2,
                                          axis=1)
    return out


# duality_gap_1d's sample pairs, source draws, grid points and grid pad in scales
_DUALITY_PAIRS = 2000
_DUALITY_MC = 100_000
_DUALITY_GRID = 4001
_DUALITY_PAD = 8.0


def duality_gap_1d(mu_src: float, sigma_src: float, mu_tgt: float, sigma_tgt: float,
                   seed: int = 0) -> Duality1DResult:
    """Desk-scale duality check between two symmetric 1-D two-component mixtures.

    The surrogate potential integrates the conditional-expectation map on a
    uniform grid of 4001 points over +-(max |mu| + 8 max sigma)
    (D~ = x^2/2 - phi with phi' = psi), its c-transform is the exact grid
    maximum (:func:`_grid_c_transform`), and both sides of the weak-duality
    inequality are then estimated on 2000 fresh samples per measure; the
    Bayes error and the bound's moments use 100 000 draws of the source.
    A mean or scale that is not a finite real, a scale <= 0 and a seed that
    is not an integer raise InvalidInput.
    """
    mu_src, mu_tgt = as_real(mu_src, "mu_src"), as_real(mu_tgt, "mu_tgt")
    sigma_src = as_real(sigma_src, "sigma_src", positive=True)
    sigma_tgt = as_real(sigma_tgt, "sigma_tgt", positive=True)
    rng = SeededRng(seed, stream=101)
    source = GmmParams.symmetric2(np.array([mu_src]), np.array([[sigma_src ** 2]]))
    target = GmmParams.symmetric2(np.array([mu_tgt]), np.array([[sigma_tgt ** 2]]))
    tp = TransportPair.build(source, target)

    lim = max(abs(mu_src), abs(mu_tgt)) + _DUALITY_PAD * max(sigma_src, sigma_tgt)
    grid = np.linspace(-lim, lim, _DUALITY_GRID)
    psi_vals = psi_map_batch(tp, grid[:, None])[:, 0]
    # scipy's cumulative_trapezoid(psi_vals, grid, initial=0.0), term for term
    phi = np.concatenate([[0.0], np.cumsum(np.diff(grid) * (psi_vals[1:] + psi_vals[:-1]) / 2.0)])
    dtilde = 0.5 * grid ** 2 - phi
    dtilde_c = _grid_c_transform(grid, dtilde)

    # paired draws: one shared label sequence so the per-mode counts of the
    # two samples match exactly (otherwise the sorted matching is forced to
    # pair a few points across modes and the empirical cost picks up an
    # O(separation^2 / sqrt(n)) excess)
    signs = rng.split(1).gen.integers(0, 2, size=_DUALITY_PAIRS) * 2 - 1
    xs = signs * (mu_src + sigma_src * rng.split(2).gen.standard_normal(_DUALITY_PAIRS))
    xt = signs * (mu_tgt + sigma_tgt * rng.split(3).gen.standard_normal(_DUALITY_PAIRS))

    dvals = np.interp(xs, grid, dtilde)
    cvals = np.interp(xt, grid, dtilde_c)
    dual = float(np.mean(dvals) - np.mean(cvals))
    w2 = w2_1d_exact(xs, xt)
    pair_costs = 0.5 * (np.sort(xs) - np.sort(xt)) ** 2
    se = float(np.sqrt((dvals.var() + cvals.var() + pair_costs.var()) / _DUALITY_PAIRS))

    mc, labels = sample_mixture(source, _DUALITY_MC, rng.split(4))
    predicted = np.argmax(posterior_batch(source, mc), axis=1)
    # rule-of-three floor: a zero miscount only bounds pe above by ~3/n
    pe = max(float(np.mean(predicted != labels)), 3.0 / _DUALITY_MC)
    norms2 = np.sum(mc ** 2, axis=1)
    bound = duality_gap_bound_terms(tp, pe, float(norms2.mean()), float((norms2 ** 2).mean()))[2]

    return Duality1DResult(dual=dual, w2=w2, gap=w2 - dual, se=se, bound=bound, pe=pe)
