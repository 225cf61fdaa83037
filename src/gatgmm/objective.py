"""Regularized minimax objective, exact inner maximization, and c-transform.

Empirical objective
-------------------
    F(gen, disc) = mean_i D(x_i) - mean_j D(G(z_j, y_j))
                   - (lam/2) * ( ||A||_F^2
                                 + sum_j ||b_j - d_{j mod k}||^2
                                 + sum_j (c_j - e_{j mod k})^2 )

over the 2k logit slots.  In the symmetric two-component mode the anchor
list is [d, -d], which reproduces the alternating-sign penalty pattern,
and the tied constraint b2 = -b1, b4 = -b3 merges the four logit penalties
into lam * (||b1 - d||^2 + ||b3 - d||^2).

Inner maximization and its decomposition
----------------------------------------
The maximization decouples across blocks.  The quadratic block has the
closed form A* = (Sx - Sg) / (2 lam) with Sx, Sg the two second moments;
the logit block is smooth and strongly concave whenever
lam > E||X||^2 + E||G||^2 and is solved by fixed-step gradient ascent from
the anchors.  The decomposed optimum is reported as

    l1 = ||Sx - Sg||_F^2 / (2 lam)     (second-moment mismatch)
    l2 = logit-block value at its maximum
    total = l1 + l2,

both blocks nonnegative, and the Danskin envelope gradient exposed here
differentiates this same total.  The total is not F at its maximizer D*:
F's quadratic block (1/2) x^T A x - (lam/2) ||A||^2 peaks at
||Sx - Sg||_F^2 / (8 lam) = l1 / 4, so F(gen, D*) = l2 + l1 / 4.

Solvers
-------
The tied logit block, the general logit block and the per-point c-transform
share ``_ascend``: ascent with a fixed step, a scalar or a d x d matrix, that
rejects a tol <= 0 or a max_iters that is not an integer >= 1, stops once
every independent problem's gradient norm is <= tol, returns the number of
steps it took, and warns when it reaches max_iters.  Two of the steps make
one ascent step an exact contraction:

* c-transform.  With D(v) = v^T A v / 2 + LR(v) and the step (I - A)^{-1},
  a step is the fixed-point map v <- (I - A)^{-1} (x + grad LR(v)), which
  contracts at rate 2 max_i ||b_i||^2 / (1 - lambda_max(A)) < 1 exactly when
  the curvature bound eta < 1.
* tied logit block.  With the step 1/(2 lam), a step is the map
  b <- d +- grad delta(b) / (2 lam), which contracts at rate
  (E||X||^2 + E||G||^2) / (2 lam) < 1/2 whenever the margin check passes.

The general logit block keeps the step 1/(lam + E||X||^2 + E||G||^2 (+ 2)):
its trained constants add curvature the margin check does not bound.

Population (evaluation-mode) expectations use Gauss-Hermite quadrature on
one-dimensional projections: for a symmetric two-component law every
integrand appearing here (logcosh, its tanh moments) is even, so the
mixture expectation equals the single-component Gaussian expectation and
reduces to an integral over b^T X ~ N(b^T mu, b^T Sigma b).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np

from .errors import InvalidInput, NotCConcave, NotStronglyConcave
from .gausscore import as_count, as_gaussian, as_points, symmetrize
from .model import (
    SHARED_COV,
    SYMMETRIC2,
    DiscriminatorParams,
    GeneratorParams,
    GradPack,
    check_latents,
    disc_grad_x_batch,
    disc_smoothness_bound,
    disc_value_batch,
    gen_apply,
    gen_second_moment,
    group_log_ratio,
)

__all__ = [
    "Anchors",
    "ObjectiveValue",
    "gh_expect",
    "SampleMoments",
    "MixtureMoments",
    "GeneratorMoments",
    "LatentMoments",
    "TiedGame",
    "BatchGame",
    "minimax_value_and_grads",
    "disc_block_value_and_grads",
    "gen_block_grads",
    "l1_value",
    "inner_max_solve",
    "inner_max_solve_population",
    "envelope_generator_grad",
    "c_transform",
    "c_transform_batch",
    "c_transform_upper_bound",
    "penalty_value",
]


# ---------------------------------------------------------------------------
# Gauss-Hermite expectations of tanh-family nonlinearities


def _logcosh(t: np.ndarray) -> np.ndarray:
    a = np.abs(t)
    return a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)


def _tanh_prime(t):
    return 1.0 - np.tanh(t) ** 2


def _tanh_pp(t):
    th = np.tanh(t)
    return -2.0 * th * (1.0 - th ** 2)


def _tanh_ppp(t):
    th2 = np.tanh(t) ** 2
    return -2.0 * (1.0 - th2) * (1.0 - 3.0 * th2)


_KINDS = {
    "tanh": np.tanh,
    "tanh_prime": _tanh_prime,
    "tanh_pp": _tanh_pp,
    "tanh_ppp": _tanh_ppp,
    "logcosh": _logcosh,
}


@lru_cache(maxsize=None)
def _gh_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    if not (isinstance(order, Real) and float(order).is_integer() and 10 <= order <= 200):
        raise InvalidInput(f"quadrature order must be an integer in [10, 200], got {order!r}")
    # physicists' Hermite; change of variables so sum(w) = 1 and
    # E[f(Z)] ~= w @ f(x) for standard normal Z
    x, w = np.polynomial.hermite.hermgauss(int(order))
    return x * np.sqrt(2.0), w / np.sqrt(np.pi)


def _gh_points(mean, std, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes mean + std*x on a trailing axis, per entry of mean and std, and
    the weights: E[f(mean + std*Z)] ~= f(nodes) @ weights."""
    x, w = _gh_nodes(order)
    return np.asarray(mean)[..., None] + np.asarray(std)[..., None] * x, w


def _gh(mean, std, kind: str, order: int):
    """E[f(mean + std*Z)] for each entry of the arrays (or scalars) mean, std."""
    t, w = _gh_points(mean, std, order)
    return _KINDS[kind](t) @ w


def gh_expect(mean: float, std: float, kind: str, order: int = 64) -> float:
    """E[f(mean + std*Z)], Z standard normal, by Gauss-Hermite quadrature."""
    if not std >= 0:
        raise InvalidInput(f"std must be >= 0, got {std!r}")
    if kind not in _KINDS:
        raise InvalidInput(f"unknown kind {kind!r}; one of {sorted(_KINDS)}")
    return float(_gh(mean, std, kind, order))


# ---------------------------------------------------------------------------
# anchors and penalty


@dataclass(frozen=True)
class Anchors:
    """Fixed regularization centers (d_i, e_i) and the weight lam."""

    d_vecs: np.ndarray   # (k, d)
    e_consts: np.ndarray  # (k,)
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "d_vecs", as_points(self.d_vecs, what="anchor vectors"))
        # one constant per anchor vector, read as one point
        object.__setattr__(self, "e_consts", as_points(self.e_consts, self.k, "e_consts")[0])
        if not self.lam > 0:
            raise InvalidInput("anchor weight lam must be > 0")

    @property
    def k(self) -> int:
        return self.d_vecs.shape[0]

    @property
    def d(self) -> int:
        return self.d_vecs.shape[1]

    @staticmethod
    def symmetric(d_vec: np.ndarray, lam: float) -> "Anchors":
        """Symmetric-mode anchors: pattern (d, -d, d, -d) over the four slots."""
        d_vec = np.asarray(d_vec, dtype=np.float64)
        return Anchors(d_vecs=np.stack([d_vec, -d_vec]), e_consts=np.zeros(2), lam=lam)

    def slot_vectors(self) -> np.ndarray:
        """Anchor for logit slot j is d_{j mod k}; rows for j = 0..2k-1."""
        return np.concatenate([self.d_vecs, self.d_vecs])

    def slot_consts(self) -> np.ndarray:
        return np.concatenate([self.e_consts, self.e_consts])


def penalty_value(dd: DiscriminatorParams, anchors: Anchors) -> float:
    """||A||_F^2 + sum_j ||b_j - anchor_j||^2 + sum_j (c_j - e_j)^2."""
    if anchors.k != dd.k:
        raise InvalidInput("anchor count does not match discriminator slot count")
    sv = anchors.slot_vectors()
    se = anchors.slot_consts()
    return float(np.sum(dd.quad ** 2)
                 + np.sum((dd.logits - sv) ** 2)
                 + np.sum((dd.consts - se) ** 2))


@dataclass(frozen=True)
class ObjectiveValue:
    """Decomposed inner-maximum value: total = l1 + l2.  ``total`` is not F
    at the maximizer D*: F(gen, D*) = l2 + l1 / 4 (see the module docstring)."""

    l1: float
    l2: float

    @property
    def total(self) -> float:
        return self.l1 + self.l2


# ---------------------------------------------------------------------------
# moment oracles (x-side and generator-side expectations)
# Each has ``second`` = E[X X^T], ``mean_sq`` = E||X||^2, and, for a d x r
# direction stack B (a (d,) vector drops the r axis), logcosh_expect(B) =
# E logcosh(X^T B) and logcosh_grad(B) = E X tanh(X^T B).  Generator-side
# oracles (G = y (C z + mu)) add cross = E[G (y z)^T], gbar = E[y G] and
# tanh_moments(B) = (E[y z tanh(G^T B)], E[y tanh(G^T B)]).


class SampleMoments:
    """Empirical expectations over a fixed sample batch."""

    def __init__(self, xs: np.ndarray):
        self.xs = xs = as_points(xs)
        self.n = xs.shape[0]
        self.second = symmetrize(xs.T @ xs / self.n)
        self.mean_sq = float(np.trace(self.second))

    def logcosh_expect(self, b: np.ndarray) -> np.ndarray:
        return np.mean(_logcosh(self.xs @ b), axis=0)

    def logcosh_grad(self, b: np.ndarray) -> np.ndarray:
        return self.xs.T @ np.tanh(self.xs @ b) / self.n


class MixtureMoments:
    """Population expectations for the symmetric two-component mixture
    (1/2) N(mu, cov) + (1/2) N(-mu, cov), via 1-D quadrature."""

    def __init__(self, mu: np.ndarray, cov: np.ndarray, order: int = 64):
        self.mu, self.cov = as_gaussian(mu, cov)
        self.order = order
        self.second = symmetrize(self.cov + np.outer(self.mu, self.mu))
        self.mean_sq = float(np.trace(self.second))

    def _proj(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and std of b^T W, W ~ N(mu, cov), per column of b."""
        s2 = np.sum(b * (self.cov @ b), axis=0)
        return self.mu @ b, np.sqrt(np.maximum(s2, 0.0))

    def logcosh_expect(self, b: np.ndarray) -> np.ndarray:
        return _gh(*self._proj(b), "logcosh", self.order)

    def _tanh_pair(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(E[tanh(b^T W)], E[tanh'(b^T W)]) per column of b, from one tanh
        pass at the quadrature nodes (tanh' = 1 - tanh^2, as ``_tanh_prime``)."""
        t, w = _gh_points(*self._proj(b), self.order)
        th = np.tanh(t)
        return th @ w, (1.0 - th ** 2) @ w

    def logcosh_grad(self, b: np.ndarray) -> np.ndarray:
        # Stein: E[X tanh(b'X)] = mu E[tanh] + cov b E[tanh'] on one component
        e_tanh, e_prime = self._tanh_pair(b)
        return np.multiply.outer(self.mu, e_tanh) + self.cov @ b * e_prime


class GeneratorMoments(MixtureMoments):
    """Population expectations of the symmetric generator law; by Stein's
    lemma in z, cross = C, gbar = mu and E[y z tanh(b^T G)] = E[tanh'] C^T b."""

    def __init__(self, g: GeneratorParams, order: int = 64):
        if g.mode != SYMMETRIC2:
            raise InvalidInput("quadrature generator moments require symmetric2 mode")
        super().__init__(g.means[0], g.cov_factor @ g.cov_factor.T, order)
        self.cross, self.gbar = g.cov_factor, self.mu

    def tanh_moments(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        e_tanh, e_prime = self._tanh_pair(b)
        return self.cross.T @ b * e_prime, e_tanh


class LatentMoments:
    """Sampled expectations of G = y (C z + mu) over a latent batch (z, labels),
    never forming the m x d batch G: with sz = z^T z / m and the latent mean
    zbar, cross = C sz + mu zbar^T, gbar = C zbar + mu, E[G G^T] = cross C^T +
    gbar mu^T, E[G t] = C z^T (y t) / m + mu mean(y t), G^T B = y (z C^T + mu^T) B."""

    def __init__(self, cov: np.ndarray, mu: np.ndarray, z: np.ndarray, labels: np.ndarray):
        m = z.shape[0]
        self.cov, self.mu, self.z = cov, mu, z
        self.y = np.asarray(labels, dtype=np.float64)[:, None]
        zbar = np.sum(z, axis=0) / m
        self.cross = cov @ (z.T @ z / m) + np.outer(mu, zbar)
        self.gbar = cov @ zbar + mu
        self.second = symmetrize(self.cross @ cov.T + np.outer(self.gbar, mu))

    @property
    def mean_sq(self) -> float:  # a property: GDA rounds never read it
        return float(np.trace(self.second))

    def _proj(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = self.y if b.ndim == 2 else self.y[:, 0]
        return y, y * (self.z @ (b.T @ self.cov).T + b.T @ self.mu)

    def logcosh_expect(self, b: np.ndarray) -> np.ndarray:
        return np.mean(_logcosh(self._proj(b)[1]), axis=0)

    def tanh_moments(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y, proj = self._proj(b)
        yt = y * np.tanh(proj)
        m = yt.shape[0]
        return self.z.T @ yt / m, np.sum(yt, axis=0) / m

    def logcosh_grad(self, b: np.ndarray) -> np.ndarray:
        zt, yt_mean = self.tanh_moments(b)
        return self.cov @ zt + np.multiply.outer(self.mu, yt_mean)


# ---------------------------------------------------------------------------
# empirical minimax value and gradients (the GDA workhorse)


# D has + lse(numerator) - lse(denominator); tied, + logcosh(b1'x) - logcosh(b3'x)
_GROUP_SIGNS = np.array([[1.0], [-1.0]])


def _logit_block(rows: np.ndarray, consts: np.ndarray, anchors: Anchors, xs: np.ndarray,
                 gx: np.ndarray, train_consts: bool):
    """Logit block of F: the mean log-ratio gap E_X - E_G, and its ascent
    gradients in the 2k rows and (when trained, else None) the constants,
    with their anchor penalties."""
    lam = anchors.lam
    lr_x, q_x = group_log_ratio(rows, consts, xs)
    lr_g, q_g = group_log_ratio(rows, consts, gx)
    # per group E_X[q x] - E_G[q g], each group signed as it enters D
    moments = (q_x.transpose(0, 2, 1) @ xs / xs.shape[0]
               - q_g.transpose(0, 2, 1) @ gx / gx.shape[0])
    row_grads = (_GROUP_SIGNS[:, :, None] * moments).reshape(rows.shape) \
        - lam * (rows - anchors.slot_vectors())
    const_grads = None
    if train_consts:
        const_grads = (_GROUP_SIGNS * (np.mean(q_x, axis=1) - np.mean(q_g, axis=1))).ravel() \
            - lam * (consts - anchors.slot_consts())
    return float(np.mean(lr_x)) - float(np.mean(lr_g)), row_grads, const_grads


class TiedGame:
    """F in the tied symmetric mode over a data oracle xm and a generator
    oracle gm, at the discriminator (quad, rows), rows = (b1, b3) as 2 x d:

        F = tr(quad half_gap) + delta(b1) - delta(b3) - (lam/2) (||quad||^2
            + 2 ||b1 - d||^2 + 2 ||b3 - d||^2),   half_gap = (Sx - Sg) / 2,
        delta(b) = E_X logcosh(b^T X) - E_G logcosh(b^T G).

    ``consts`` (trained only in the generic modes) is not read."""

    def __init__(self, anchors: Anchors, xm, gm):
        d = anchors.d
        if anchors.k != 2:
            raise InvalidInput(f"the tied game takes 2 anchors, got {anchors.k}")
        if xm.second.shape != (d, d) or gm.second.shape != (d, d):
            raise InvalidInput(f"data, generator and anchors have d {len(xm.second)}, "
                               f"{len(gm.second)}, {d}")
        self.anchors, self.xm, self.gm = anchors, xm, gm
        self.half_gap = 0.5 * (xm.second - gm.second)

    def disc_grads(self, quad, rows, consts=None):
        """Ascent gradients (quad_grad, row_grads, None) of F."""
        lam = self.anchors.lam
        mom = self.xm.logcosh_grad(rows.T) - self.gm.logcosh_grad(rows.T)
        row_grads = _GROUP_SIGNS * mom.T - 2.0 * lam * (rows - self.anchors.d_vecs[0])
        return self.half_gap - lam * quad, row_grads, None

    def gen_grads(self, quad, rows, consts=None):
        """Descent gradients (cov_grad, means_grad) of F in the generator."""
        zt, yt_mean = self.gm.tanh_moments(rows.T)
        signed = (_GROUP_SIGNS * rows).T  # columns (b1, -b3)
        cov_step = quad @ self.gm.cross + signed @ zt.T
        mean_step = quad @ self.gm.gbar + signed @ yt_mean
        return -cov_step, -mean_step[None, :]

    def value(self, quad, rows, consts=None) -> float:
        """F at the discriminator (quad, rows)."""
        lc = self.xm.logcosh_expect(rows.T) - self.gm.logcosh_expect(rows.T)
        pen = float(np.sum(quad ** 2)) + 2.0 * float(np.sum((rows - self.anchors.d_vecs[0]) ** 2))
        return float(np.sum(quad * self.half_gap) + lc[0] - lc[1]) - 0.5 * self.anchors.lam * pen


def _half_gap(sx: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """(Sx - Sg) / 2 with Sg the second moment of the generated batch gx."""
    return symmetrize(0.5 * (sx - symmetrize(gx.T @ gx / gx.shape[0])))


def disc_block_value_and_grads(dd: DiscriminatorParams, anchors: Anchors,
                               xs: np.ndarray, gx: np.ndarray, train_consts: bool,
                               sx: np.ndarray | None = None):
    """Objective value and discriminator-block ascent gradients given the
    generated batch gx; returns (value, quad_grad, logit_grads, const_grads).

    The row gradients are in ``dd.free_rows`` (``DiscriminatorParams.fold``).
    ``sx`` optionally carries the precomputed x-batch second moment
    (the batch is often fixed across iterations)."""
    if sx is None:
        sx = symmetrize(xs.T @ xs / xs.shape[0])
    half_gap = _half_gap(sx, gx)
    reg = 0.5 * anchors.lam * penalty_value(dd, anchors)  # also checks the anchor count
    gap, row_grads, const_grads = _logit_block(dd.logits, dd.consts, anchors, xs, gx,
                                               train_consts)
    value = float(np.sum(dd.quad * half_gap)) + gap - reg
    return value, half_gap - anchors.lam * dd.quad, dd.fold(row_grads), const_grads


def gen_block_grads(g: GeneratorParams, dd: DiscriminatorParams, gx: np.ndarray,
                    z: np.ndarray, labels: np.ndarray):
    """Generator-block gradients of F (descent direction is the negation of
    the chained discriminator input-gradient)."""
    m = gx.shape[0]
    s = disc_grad_x_batch(dd, gx)
    if g.mode == SYMMETRIC2:
        yf = labels.astype(np.float64)
        signed = yf[:, None] * s
        means_grad = -np.mean(signed, axis=0)[None, :]
        cov_grad = -signed.T @ z / m
    else:
        cov_grad = -s.T @ z / m
        # one masked row sum per label; each adds its rows in batch order
        means_grad = np.stack([s[labels == i].sum(axis=0) for i in range(g.k)])
        means_grad *= -1.0 / m
    return cov_grad, means_grad


def minimax_value_and_grads(
    g: GeneratorParams,
    dd: DiscriminatorParams,
    anchors: Anchors,
    x_batch: np.ndarray,
    z_batch: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, GradPack]:
    """Empirical objective value and gradients for every parameter block.

    Generator gradients chain the input-gradient of D through dG/dmu and
    dG/dC; in the symmetric mode both are scaled by the label sign, and the
    C block contracts the outer product of grad_x D(G(z)) with z.
    """
    xs = as_points(x_batch, g.d, "x batch")
    z, labels = check_latents(g, as_points(z_batch, g.d, "latents"), labels)
    if dd.d != g.d or anchors.d != g.d:
        raise InvalidInput("dimension mismatch between batches and parameters")
    gx = gen_apply(g, z, labels)  # the anchor count is checked with the penalty
    value, quad_grad, logit_grads, const_grads = disc_block_value_and_grads(
        dd, anchors, xs, gx, train_consts=(g.mode == SHARED_COV))
    cov_grad, means_grad = gen_block_grads(g, dd, gx, z, labels)
    return value, GradPack(gen_cov_factor=cov_grad, gen_means=means_grad,
                           quad=quad_grad, logits=logit_grads, consts=const_grads)


class BatchGame:
    """F in every mode but tied symmetric, over the data batch of xm and the
    batch the generator g makes from the latents (z, labels), at a
    discriminator (quad, rows, consts) with all 2k logit rows: TiedGame's
    methods on the generic blocks."""

    def __init__(self, anchors: Anchors, g: GeneratorParams, xm: SampleMoments,
                 z: np.ndarray, labels: np.ndarray):
        self.anchors, self.g, self.xm = anchors, g, xm
        self.z, self.labels = z, labels
        self.gx = gen_apply(g, z, labels)
        self.half_gap = _half_gap(xm.second, self.gx)
        self.train_consts = g.mode == SHARED_COV

    def disc_grads(self, quad, rows, consts):
        """Ascent gradients (quad_grad, row_grads, const_grads) of F: those of
        ``disc_block_value_and_grads``, without its value."""
        _, row_grads, const_grads = _logit_block(rows, consts, self.anchors, self.xm.xs,
                                                 self.gx, self.train_consts)
        return self.half_gap - self.anchors.lam * quad, row_grads, const_grads

    def gen_grads(self, quad, rows, consts):
        """Descent gradients (cov_grad, means_grad) of F in the generator."""
        dd = DiscriminatorParams(quad=quad, logits=rows, consts=consts)
        return gen_block_grads(self.g, dd, self.gx, self.z, self.labels)

    def value(self, quad, rows, consts) -> float:
        """F at the discriminator (quad, rows, consts)."""
        dd = DiscriminatorParams(quad=quad, logits=rows, consts=consts)
        return disc_block_value_and_grads(dd, self.anchors, self.xm.xs, self.gx,
                                          self.train_consts, sx=self.xm.second)[0]


# ---------------------------------------------------------------------------
# exact inner maximization


def l1_value(g: GeneratorParams, data_second_moment: np.ndarray, lam: float) -> float:
    """Second-moment mismatch (1/(2 lam)) ||Sx - E[G G^T]||_F^2."""
    if not lam > 0:
        raise InvalidInput("lam must be > 0")
    diff = np.asarray(data_second_moment, dtype=np.float64) - gen_second_moment(g)
    return float(np.sum(diff ** 2)) / (2.0 * lam)


def _check_margin(lam: float, x_mean_sq: float, g_mean_sq: float) -> None:
    margin = lam - (x_mean_sq + g_mean_sq)
    if margin <= 0:
        raise NotStronglyConcave(margin)


def _ascend(grad, x: np.ndarray, step, tol: float, max_iters: int,
            what: str) -> tuple[np.ndarray, int]:
    """Fixed-step ascent over independent problems, one per slice along the
    first axis of x, until every slice's gradient norm is <= tol: each slice
    moves by step * grad for a scalar step, or by S grad for a d x d step
    matrix S.  Returns x and the number of steps taken; warns when max_iters
    steps do not get there."""
    if not (isinstance(tol, Real) and tol > 0):
        raise InvalidInput(f"tol must be > 0, got {tol!r}")
    as_count(max_iters, "max_iters")
    matrix = np.ndim(step) == 2
    for it in range(max_iters):
        g = grad(x)
        norm = np.max(np.linalg.norm(g.reshape(len(g), -1), axis=1))
        if norm <= tol:
            return x, it
        x = x + (g @ step.T if matrix else step * g)
    warnings.warn(f"{what} hit the iteration cap of {max_iters} steps (last max gradient "
                  f"norm {norm:.3g})", RuntimeWarning)
    return x, max_iters


def _inner_max_tied(game: TiedGame, tol: float, max_iters: int):
    """Tied inner maximum: ascend the rows (b1, b3), two decoupled strongly
    concave problems, with the step 1/(2 lam) that makes a step the
    contraction b <- d +- grad delta(b) / (2 lam)."""
    xm, gm, lam = game.xm, game.gm, game.anchors.lam
    _check_margin(lam, xm.mean_sq, gm.mean_sq)
    rows, _ = _ascend(lambda r: game.disc_grads(0.0, r)[1],
                      np.repeat(game.anchors.d_vecs[:1], 2, axis=0), 1.0 / (2.0 * lam), tol,
                      max_iters, "tied inner maximization")
    return _solution(xm.second, gm.second, game.anchors, game.value(0.0, rows),
                     rows, np.zeros(4), tied=True)


def _inner_max_general(xm: SampleMoments, gm: SampleMoments, anchors: Anchors,
                       train_consts: bool, tol: float, max_iters: int):
    """Joint ascent over all 2k logit rows (and constants when trained) as one
    problem, the vector [rows | consts]."""
    lam, xs, gx = anchors.lam, xm.xs, gm.xs
    _check_margin(lam, xm.mean_sq, gm.mean_sq)
    pad = 2.0 if train_consts else 0.0  # constant feature adds 1 per side
    step = 1.0 / (lam + xm.mean_sq + gm.mean_sq + pad)
    sv, se = anchors.slot_vectors(), anchors.slot_consts()
    split = sv.size

    def block(x):
        return _logit_block(x[0, :split].reshape(sv.shape), x[0, split:], anchors, xs, gx,
                            train_consts)

    def grad(x):
        _, grad_rows, grad_c = block(x)
        return np.concatenate([grad_rows.ravel(),
                               np.zeros_like(se) if grad_c is None else grad_c])[None]

    x, _ = _ascend(grad, np.concatenate([sv.ravel(), se])[None], step, tol, max_iters,
                   "general inner maximization")
    rows, consts = x[0, :split].reshape(sv.shape), x[0, split:]
    val = block(x)[0] - 0.5 * lam * (float(np.sum((rows - sv) ** 2))
                                     + float(np.sum((consts - se) ** 2)))
    return _solution(xm.second, gm.second, anchors, val, rows, consts, tied=False)


def _solution(sx: np.ndarray, sg: np.ndarray, anchors: Anchors, l2: float,
              rows: np.ndarray, consts: np.ndarray, tied: bool):
    """Join the closed-form quadratic block A* = (Sx - Sg) / (2 lam) to a
    logit block of free rows ``rows`` solved to value l2: the maximizer and
    its decomposed value."""
    lam = anchors.lam
    quad = symmetrize((sx - sg) / (2.0 * lam))
    dd = DiscriminatorParams.from_free(quad, rows, consts, tied)
    return dd, ObjectiveValue(l1=float(np.sum((sx - sg) ** 2)) / (2.0 * lam), l2=l2)


def inner_max_solve(
    g: GeneratorParams,
    x_batch: np.ndarray,
    anchors: Anchors,
    z_eval: np.ndarray | None = None,
    labels: np.ndarray | None = None,
    tol: float = 1e-8,
    tied: bool = True,
    gh_order: int = 64,
    max_iters: int = 100000,
) -> tuple[DiscriminatorParams, ObjectiveValue]:
    """Exact inner maximization over the discriminator for a fixed generator.

    The quadratic block is closed-form, the logit block is ascended to
    gradient norm <= tol.  With ``z_eval`` the generator side is the
    empirical latent batch; without it (symmetric tied mode only) the
    generator side uses analytic second moments and quadrature.  The value
    returned is l1 + l2, not F at the maximizer (see ``ObjectiveValue``).
    """
    xm = SampleMoments(x_batch)
    if z_eval is not None:
        z_eval, labels = check_latents(g, as_points(z_eval, g.d, "latents"), labels)
    if g.mode == SYMMETRIC2 and tied:
        if z_eval is None:
            gm = GeneratorMoments(g, gh_order)
        else:
            gm = LatentMoments(g.cov_factor, g.means[0], z_eval, labels)
        return _inner_max_tied(TiedGame(anchors, xm, gm), tol, max_iters)
    if z_eval is None:
        raise InvalidInput("untied/general inner solve requires a latent batch")
    if xm.xs.shape[1] != g.d or anchors.d != g.d:
        raise InvalidInput("dimension mismatch between the x batch, anchors and generator")
    return _inner_max_general(xm, SampleMoments(gen_apply(g, z_eval, labels)), anchors,
                              g.mode == SHARED_COV, tol, max_iters)


def inner_max_solve_population(
    g: GeneratorParams,
    mu_x: np.ndarray,
    cov_x: np.ndarray,
    anchors: Anchors,
    tol: float = 1e-8,
    gh_order: int = 64,
    max_iters: int = 100000,
) -> tuple[DiscriminatorParams, ObjectiveValue]:
    """Inner maximization against the population symmetric mixture
    (1/2) N(mu_x, cov_x) + (1/2) N(-mu_x, cov_x), fully quadrature-based."""
    game = TiedGame(anchors, MixtureMoments(mu_x, cov_x, gh_order), GeneratorMoments(g, gh_order))
    return _inner_max_tied(game, tol, max_iters)


def envelope_generator_grad(
    g: GeneratorParams,
    x_moments,
    anchors: Anchors,
    tol_inner: float = 1e-8,
    gh_order: int = 64,
    max_iters: int = 100000,
) -> tuple[np.ndarray, np.ndarray]:
    """Danskin gradient of the inner-maximum total l1 + l2 with respect to
    (mu, C), as (grad_mu, grad_cov_factor), for a SampleMoments or
    MixtureMoments data side and the quadrature generator side.  It is the
    tied game's generator gradient at the maximizer with four times its
    quad: l1 is four times F's quadratic-block maximum ||Sx - Sg||^2 / (8 lam).
    """
    game = TiedGame(anchors, x_moments, GeneratorMoments(g, gh_order))
    dd, _ = _inner_max_tied(game, tol_inner, max_iters)
    cov_grad, means_grad = game.gen_grads(4.0 * dd.quad, dd.free_rows)
    return means_grad[0], cov_grad


# ---------------------------------------------------------------------------
# c-transform and its regularized upper bound


def c_transform_batch(dd: DiscriminatorParams, xs: np.ndarray,
                      tol: float = 1e-8, max_iters: int = 10000) -> np.ndarray:
    """max_u D(x + u) - ||u||^2 / 2 per row, by preconditioned ascent from u = 0.

    With D(v) = v^T A v / 2 + LR(v) and v = x + u, the step (I - A)^{-1}
    makes one ascent step the fixed-point map v <- (I - A)^{-1} (x + grad LR(v)).
    grad LR is 2 max_i ||b_i||^2-Lipschitz, so the map contracts at rate
    2 max_i ||b_i||^2 / (1 - lambda_max(A)), below 1 exactly when the
    curvature bound eta = ``disc_smoothness_bound`` is; eta >= 1 raises
    NotCConcave.  It stops once every row's gradient norm is <= tol.
    """
    xs = as_points(xs, dd.d, "critic input")
    eta = disc_smoothness_bound(dd)
    if eta >= 1.0:
        raise NotCConcave(f"curvature bound {eta:.6g} >= 1")
    step = np.linalg.inv(np.eye(dd.d) - dd.quad)
    u, _ = _ascend(lambda u: disc_grad_x_batch(dd, xs + u) - u, np.zeros_like(xs), step, tol,
                   max_iters, "c-transform")
    return disc_value_batch(dd, xs + u) - 0.5 * np.sum(u ** 2, axis=1)


def c_transform(dd: DiscriminatorParams, x: np.ndarray, tol: float = 1e-8) -> float:
    return float(c_transform_batch(dd, [x], tol)[0])


def c_transform_upper_bound(dd: DiscriminatorParams, anchors: Anchors,
                      x_batch: np.ndarray, eta: float) -> float:
    """Empirical right-hand side of the regularized c-transform bound:

        mean D(X) + 3 k^2 (mean ||X||^2 + 1) / (1 - eta) * penalty.
    """
    if eta >= 1.0:
        raise InvalidInput("eta must be < 1")
    if disc_smoothness_bound(dd) > eta + 1e-12:
        raise InvalidInput("discriminator curvature bound exceeds eta")
    xs = as_points(x_batch, dd.d, "critic input")
    mean_d = float(np.mean(disc_value_batch(dd, xs)))
    mean_sq = float(np.mean(np.sum(xs ** 2, axis=1)))
    k = dd.k
    return mean_d + 3.0 * k * k * (mean_sq + 1.0) / (1.0 - eta) * penalty_value(dd, anchors)
