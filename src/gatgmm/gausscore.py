"""Dense symmetric linear algebra and seeded Gaussian sampling.

All floating point is 64-bit.  Every operation here is a pure function of
its inputs; the only stateful object is :class:`SeededRng`, which wraps a
counter-based Philox bit generator so that a (seed, stream) pair yields a
bit-identical sample sequence across runs and platforms.  Callers never
share one SeededRng between independent purposes; they split child streams
instead (data stream, latent stream, init stream, ...).

:func:`second_moment` is the one sample second moment X^T X / n.
:func:`lse_softmax` is the one row log-sum-exp and softmax: of the
discriminator's two logit groups and of EM's log joint densities.
:func:`logcosh` is the one stable log cosh: of the quadrature kinds, the
moment oracles and the symmetric EM fit.

:func:`as_points` is the one check of a sample-batch argument (a Dataset, a
matrix or one point), :func:`as_gaussian` of a (mean, covariance) pair,
:func:`as_count` of a count and :func:`as_real` of a real scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import InvalidInput, NotPsd

__all__ = [
    "SeededRng",
    "as_points",
    "as_gaussian",
    "as_count",
    "as_real",
    "lse_softmax",
    "logcosh",
    "EigenDecomp",
    "symmetrize",
    "second_moment",
    "check_symmetric",
    "sym_eigen",
    "sqrtm_psd",
    "inv_sqrtm_psd",
    "random_orthogonal",
]

_MIX64 = 0x9E3779B97F4A7C15  # golden-ratio constant for stream derivation
_MASK64 = 0xFFFFFFFFFFFFFFFF
_FLOAT_MAX = float(np.finfo(np.float64).max)  # a larger int has no float
_RCOND = 1e-12  # inv_sqrtm_psd: an eigenvalue <= _RCOND * max |eigenvalue| is rank deficient


class SeededRng:
    """Reproducible random source keyed by (seed, stream).

    The Philox key is exactly the (seed, stream) pair, so equal pairs give
    equal bit streams regardless of construction order.  ``gen`` exposes the
    underlying numpy Generator.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed, self.stream = _key(seed, "seed"), _key(stream, "stream")
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, child: int) -> "SeededRng":
        """Derive an independent child stream; deterministic in (stream, child)."""
        return SeededRng(self.seed, (self.stream * _MIX64 + _key(child, "child") + 1) & _MASK64)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SeededRng(seed={self.seed}, stream={self.stream})"


def _key(n, what: str) -> int:
    """An integer (not a bool), negative ones included, as its 64-bit two's
    complement; anything else raises InvalidInput."""
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise InvalidInput(f"{what} must be an integer, got {n!r}")
    return int(n) & _MASK64


def as_points(xs, d: int | None = None, what: str = "samples") -> np.ndarray:
    """A Dataset (its ``samples``), an (n, d) matrix or one point as a finite
    float64 (n, d) array with n, d >= 1, of width ``d`` when given; anything
    else raises InvalidInput.  A float64 array comes back without a copy."""
    try:
        xs = np.asarray(getattr(xs, "samples", xs), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{what} must be numeric: {exc}") from exc
    xs = xs[None, :] if xs.ndim == 1 else xs
    if xs.ndim != 2 or 0 in xs.shape or d not in (None, xs.shape[1]) \
            or not np.isfinite(xs).all():
        raise InvalidInput(f"{what} must be one point or a nonempty (n, {d or 'd'}) matrix "
                           f"of finite numbers, got shape {xs.shape}")
    return xs


def as_gaussian(mu, cov, d: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(mu, cov) as a flat finite float64 mean and a symmetrized finite
    covariance of one dimension, ``d`` when given; anything else raises
    InvalidInput."""
    try:
        mu, cov = np.asarray(mu, dtype=np.float64).ravel(), np.asarray(cov, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"mean and covariance must be numeric: {exc}") from exc
    d = mu.size if d is None else d
    if mu.size != d or cov.shape != (d, d):
        raise InvalidInput(f"need a mean of length {d} and a {d} x {d} covariance, got shapes "
                           f"{mu.shape} and {cov.shape}")
    if not (np.isfinite(mu).all() and np.isfinite(cov).all()):
        raise InvalidInput("mean and covariance must be finite")
    return mu, symmetrize(cov)


def as_count(n, what: str, least: int = 1) -> int:
    """An integer n >= least as an int (a bool is not a count); anything else
    raises InvalidInput."""
    if isinstance(n, bool) or not (isinstance(n, Integral) and n >= least):
        raise InvalidInput(f"{what} must be an integer >= {least}, got {n!r}")
    return int(n)


def as_real(x, what: str, positive: bool = False) -> float:
    """A finite real (a bool is not one), > 0 when ``positive``, as a float."""
    if isinstance(x, bool) or not (isinstance(x, Real) and abs(x) <= _FLOAT_MAX
                                   and (x > 0 or not positive)):
        raise InvalidInput(f"{what} must be a finite real{' > 0' if positive else ''}, got {x!r}")
    return float(x)


def lse_softmax(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-sum-exp (..., n) and softmax weights (..., k, n) over the slot
    axis of a slot-major (..., k, n) block: n samples with k logits each.

    Each sample is max-subtracted, so logits near +-800 do not overflow; a
    -inf logit gets weight 0 and a NaN makes its sample NaN.  The reductions
    run across the k slots as vectorized passes over the n samples, adding
    slot after slot: for k <= 7 that is the order of numpy's row sum of the
    sample-major (n, k) block, which turns pairwise from 8 terms on.
    """
    m = s.max(axis=-2, keepdims=True)
    e = np.exp(s - m)
    tot = e.sum(axis=-2, keepdims=True)
    return (m + np.log(tot))[..., 0, :], e / tot


def logcosh(t: np.ndarray) -> np.ndarray:
    """log cosh(t) elementwise as |t| + log1p(exp(-2|t|)) - log 2, which does
    not overflow for large |t|."""
    a = np.abs(t)
    return a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)


@dataclass(frozen=True)
class EigenDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues sorted descending."""

    values: np.ndarray   # (d,)
    vectors: np.ndarray  # (d, d), columns are eigenvectors


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return (m + m.T)/2 as a new float64 array."""
    m = np.asarray(m, dtype=np.float64)
    return 0.5 * (m + m.T)


def second_moment(xs: np.ndarray) -> np.ndarray:
    """The sample second moment X^T X / n of an (n, d) batch, symmetrized."""
    return symmetrize(xs.T @ xs / xs.shape[0])


def check_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput(f"{name} has non-finite entries")
    if not np.array_equal(m, m.T):
        raise InvalidInput(f"{name} is not exactly symmetric; use symmetrize() first")
    return m


def sym_eigen(m: np.ndarray) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix with descending eigenvalues.

    Satisfies ``V diag(w) V.T == m`` to within 1e-8 * (1 + max|m|) and
    ``V.T V == I`` to within 1e-10.
    """
    m = check_symmetric(m)
    w, v = np.linalg.eigh(m)
    order = np.argsort(w)[::-1]
    return EigenDecomp(values=w[order].copy(), vectors=v[:, order].copy())


def sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of a near-PSD symmetric matrix.

    Eigenvalues in [-1e-10 * ||m||_2, 0) are clamped to zero; anything more
    negative raises NotPsd.
    """
    dec = sym_eigen(m)
    w = dec.values
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    tol = 1e-10 * scale
    if np.any(w < -tol):
        raise NotPsd(f"eigenvalue {w.min():.6g} below -1e-10*||m|| = {-tol:.6g}")
    w = np.clip(w, 0.0, None)
    root = (dec.vectors * np.sqrt(w)) @ dec.vectors.T
    return symmetrize(root)


def inv_sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root; raises NotPsd on rank deficiency."""
    dec = sym_eigen(m)
    w = dec.values
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if scale == 0.0 or np.any(w <= _RCOND * scale):
        raise NotPsd("matrix is singular to working precision; cannot invert square root")
    root = (dec.vectors / np.sqrt(w)) @ dec.vectors.T
    return symmetrize(root)


def random_orthogonal(d: int, rng: SeededRng) -> np.ndarray:
    """Haar-distributed orthogonal matrix: QR of a Gaussian with sign-fixed R diagonal."""
    d = as_count(d, "dimension")
    g = rng.gen.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs
