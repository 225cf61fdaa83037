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
the anchors.  The optimum Phi(gen) = F(gen, D*) is reported as

    l1 = ||Sx - Sg||_F^2 / (8 lam)     (quadratic block at A*: the
                                        second-moment mismatch)
    l2 = logit-block value at its maximum
    total = l1 + l2 = F(gen, D*),

both blocks nonnegative, and the Danskin envelope gradient exposed here,
F's generator gradient at D*, differentiates this same total.

Solvers
-------
One solver, ``_inner_max``, runs every exact inner maximum on a game, a
``TiedGame`` in the tied symmetric mode or a ``BatchGame`` in the others.  It
checks the margin lam > E||X||^2 + E||G||^2, has the game ascend its logit
block from the anchors, reads l2 as the game's F at quad = 0 and joins A*.
The logit blocks and the per-point c-transform share ``_ascend``: ascent with
a fixed step, a scalar or a d x d matrix, that rejects a tol that is not a
finite real > 0, stops once every independent problem's gradient norm is
<= tol, returns the number of steps it took, and warns when it reaches the
one iteration cap, ``_MAX_STEPS`` = 100,000 steps.  The steps:

* c-transform, (I - A)^{-1}.  With D(v) = v^T A v / 2 + LR(v), a step is the
  fixed-point map v <- (I - A)^{-1} (x + grad LR(v)), which contracts at
  rate 2 max_i ||b_i||^2 / (1 - lambda_max(A)) < 1 exactly when the
  curvature bound eta < 1.
* tied logit block, 1/(2 lam).  A step is the map
  b <- d +- grad delta(b) / (2 lam), which contracts at rate
  (E||X||^2 + E||G||^2) / (2 lam) < 1/2 whenever the margin check passes.
* general logit block, 1/(lam + E||X||^2 + E||G||^2 (+ 2)): its trained
  constants add curvature the margin check does not bound.

Population (evaluation-mode) expectations use 64-node Gauss-Hermite
quadrature on one-dimensional projections: for a symmetric two-component
law every integrand appearing here (logcosh, its tanh moments) is even, so
the mixture expectation equals the single-component Gaussian expectation
and reduces to an integral over b^T X ~ N(b^T mu, b^T Sigma b).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidInput, NotCConcave, NotStronglyConcave
from .gausscore import (as_count, as_gaussian, as_points, as_real, logcosh, second_moment,
                        sym_eigen, symmetrize)
from .metrics import principal_direction
from .model import (
    SHARED_COV,
    SYMMETRIC2,
    DiscriminatorParams,
    GeneratorParams,
    GradPack,
    _gen_apply,
    _grad_x,
    check_latents,
    disc_smoothness_bound,
    disc_value_batch,
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
    "c_transform_batch",
    "c_transform_upper_bound",
    "penalty_value",
]


# ---------------------------------------------------------------------------
# Gauss-Hermite expectations of tanh-family nonlinearities


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
    "logcosh": logcosh,
}


@lru_cache(maxsize=None)
def _gh_nodes() -> tuple[np.ndarray, np.ndarray]:
    # 64 physicists' Hermite nodes; change of variables so sum(w) = 1 and
    # E[f(Z)] ~= w @ f(x) for standard normal Z
    x, w = np.polynomial.hermite.hermgauss(64)
    return x * np.sqrt(2.0), w / np.sqrt(np.pi)


def _gh_points(mean, std) -> tuple[np.ndarray, np.ndarray]:
    """Nodes mean + std*x on a trailing axis, per entry of mean and std, and
    the weights: E[f(mean + std*Z)] ~= f(nodes) @ weights."""
    x, w = _gh_nodes()
    return np.asarray(mean)[..., None] + np.asarray(std)[..., None] * x, w


def _gh(mean, std, kind: str):
    """E[f(mean + std*Z)] for each entry of the arrays (or scalars) mean, std."""
    t, w = _gh_points(mean, std)
    return _KINDS[kind](t) @ w


def gh_expect(mean: float, std: float, kind: str) -> float:
    """E[f(mean + std*Z)], Z standard normal, by Gauss-Hermite quadrature."""
    mean, std = as_real(mean, "mean"), as_real(std, "std")
    if std < 0:
        raise InvalidInput(f"std must be >= 0, got {std!r}")
    if kind not in _KINDS:
        raise InvalidInput(f"unknown kind {kind!r}; one of {sorted(_KINDS)}")
    return float(_gh(mean, std, kind))


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
        as_real(self.lam, "anchor weight lam", positive=True)

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

    @staticmethod
    def from_data(xs: np.ndarray, k: int, lam: float) -> "Anchors":
        """The anchors a run on ``xs`` (a batch or a Dataset) trains against: for
        k = 2 the principal direction's symmetric pair, else +- the top
        (k + 1) // 2 eigenvectors of the second moment, k rows v1, -v1, v2, ...;
        InvalidInput when (k + 1) // 2 > d."""
        xs, k = as_points(xs), as_count(k, "anchor count k", 2)
        if k == 2:
            return Anchors.symmetric(principal_direction(xs), lam)
        half, d = (k + 1) // 2, xs.shape[1]
        if half > d:
            raise InvalidInput(f"k={k} anchors need {half} eigenvectors; the data has d={d}")
        vecs = sym_eigen(second_moment(xs)).vectors[:, :half].T
        rows = np.stack([vecs, -vecs], axis=1).reshape(2 * half, d)[:k]
        return Anchors(d_vecs=rows, e_consts=np.zeros(k), lam=lam)

    def slot_vectors(self) -> np.ndarray:
        """Anchor for logit slot j is d_{j mod k}; rows for j = 0..2k-1."""
        return np.concatenate([self.d_vecs, self.d_vecs])

    def slot_consts(self) -> np.ndarray:
        return np.concatenate([self.e_consts, self.e_consts])


def _penalty(quad: np.ndarray, rows: np.ndarray, consts: np.ndarray, anchors: Anchors) -> float:
    """``penalty_value`` at the unchecked arrays (quad, 2k rows, consts)."""
    return float(np.sum(quad ** 2)
                 + np.sum((rows - anchors.slot_vectors()) ** 2)
                 + np.sum((consts - anchors.slot_consts()) ** 2))


def penalty_value(dd: DiscriminatorParams, anchors: Anchors) -> float:
    """||A||_F^2 + sum_j ||b_j - anchor_j||^2 + sum_j (c_j - e_j)^2."""
    if anchors.k != dd.k:
        raise InvalidInput("anchor count does not match discriminator slot count")
    return _penalty(dd.quad, dd.logits, dd.consts, anchors)


@dataclass(frozen=True)
class ObjectiveValue:
    """Decomposed inner-maximum value: total = l1 + l2 = F(gen, D*)."""

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
        self.second = second_moment(xs)
        self.mean_sq = float(np.trace(self.second))

    def logcosh_expect(self, b: np.ndarray) -> np.ndarray:
        return np.mean(logcosh(self.xs @ b), axis=0)

    def logcosh_grad(self, b: np.ndarray) -> np.ndarray:
        return self.xs.T @ np.tanh(self.xs @ b) / self.n


class MixtureMoments:
    """Population expectations for the symmetric two-component mixture
    (1/2) N(mu, cov) + (1/2) N(-mu, cov), via 1-D quadrature."""

    def __init__(self, mu: np.ndarray, cov: np.ndarray):
        self.mu, self.cov = as_gaussian(mu, cov)
        self.second = symmetrize(self.cov + np.outer(self.mu, self.mu))
        self.mean_sq = float(np.trace(self.second))

    def _proj(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and std of b^T W, W ~ N(mu, cov), per column of b."""
        s2 = np.sum(b * (self.cov @ b), axis=0)
        return self.mu @ b, np.sqrt(np.maximum(s2, 0.0))

    def logcosh_expect(self, b: np.ndarray) -> np.ndarray:
        return _gh(*self._proj(b), "logcosh")

    def _tanh_pair(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(E[tanh(b^T W)], E[tanh'(b^T W)]) per column of b, from one tanh
        pass at the quadrature nodes (tanh' = 1 - tanh^2, as ``_tanh_prime``)."""
        t, w = _gh_points(*self._proj(b))
        th = np.tanh(t)
        return th @ w, (1.0 - th ** 2) @ w

    def logcosh_grad(self, b: np.ndarray) -> np.ndarray:
        # Stein: E[X tanh(b'X)] = mu E[tanh] + cov b E[tanh'] on one component
        e_tanh, e_prime = self._tanh_pair(b)
        return np.multiply.outer(self.mu, e_tanh) + self.cov @ b * e_prime


class GeneratorMoments(MixtureMoments):
    """Population expectations of the symmetric generator law; by Stein's
    lemma in z, cross = C, gbar = mu and E[y z tanh(b^T G)] = E[tanh'] C^T b."""

    def __init__(self, g: GeneratorParams):
        if g.mode != SYMMETRIC2:
            raise InvalidInput("quadrature generator moments require symmetric2 mode")
        super().__init__(g.means[0], g.cov_factor @ g.cov_factor.T)
        self.cross, self.gbar = g.cov_factor, self.mu

    def tanh_moments(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        e_tanh, e_prime = self._tanh_pair(b)
        return self.cross.T @ b * e_prime, e_tanh


class LatentMoments:
    """Sampled expectations of G = y (C z + mu) over a latent batch z, never
    forming the m x d batch G: with sz = z^T z / m and the latent mean zbar,
    cross = C sz + mu zbar^T, gbar = C zbar + mu, E[G G^T] = cross C^T +
    gbar mu^T.  The labels y = +-1 cancel from every expectation taken (tanh is
    odd, log cosh even), so with p = (z C^T + mu^T) B the moments are
    E[y z tanh(G^T B)] = z^T tanh(p) / m and E[y tanh(G^T B)] = mean(tanh(p)).

    Layout: each product takes C-contiguous operands (z (C^T B), not z (B^T C)^T,
    whose F-ordered right factor costs twice as much at m = 640), and each mean
    over the sample axis is the product ones @ . / m (at m = 640, a tenth of the
    time of np.sum(., axis=0))."""

    def __init__(self, cov: np.ndarray, mu: np.ndarray, z: np.ndarray):
        m = z.shape[0]
        self.cov, self.mu, self.z, self.ones = cov, mu, z, np.ones(m)
        zbar = self.ones @ z / m
        self.cross = cov @ (z.T @ z / m) + mu[:, None] * zbar
        self.gbar = cov @ zbar + mu
        self.second = symmetrize(self.cross @ cov.T + self.gbar[:, None] * mu)

    @property
    def mean_sq(self) -> float:  # a property: GDA rounds never read it
        return float(np.trace(self.second))

    def _proj(self, b: np.ndarray) -> np.ndarray:
        return self.z @ (self.cov.T @ b) + b.T @ self.mu

    def logcosh_expect(self, b: np.ndarray) -> np.ndarray:
        return np.mean(logcosh(self._proj(b)), axis=0)

    def tanh_moments(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = np.tanh(self._proj(b))
        m = t.shape[0]
        return self.z.T @ t / m, self.ones @ t / m

    def logcosh_grad(self, b: np.ndarray) -> np.ndarray:
        zt, yt_mean = self.tanh_moments(b)
        return self.cov @ zt + np.multiply.outer(self.mu, yt_mean)


# ---------------------------------------------------------------------------
# empirical minimax value and gradients (the GDA workhorse)


# D has + lse(numerator) - lse(denominator); tied, + logcosh(b1'x) - logcosh(b3'x)
_GROUP_SIGNS = np.array([[1.0], [-1.0]])


def _log_ratio_gap(rows: np.ndarray, consts: np.ndarray, xs: np.ndarray, gx: np.ndarray):
    """The logit block's mean log-ratio gap E_X - E_G and the group softmax
    weights of the two batches."""
    lr_x, q_x = group_log_ratio(rows, consts, xs)
    lr_g, q_g = group_log_ratio(rows, consts, gx)
    return float(np.mean(lr_x)) - float(np.mean(lr_g)), q_x, q_g


def _logit_block(rows: np.ndarray, consts: np.ndarray, anchors: Anchors, xs: np.ndarray,
                 gx: np.ndarray, train_consts: bool):
    """Logit block of F: the mean log-ratio gap E_X - E_G, and its ascent
    gradients in the 2k rows and (when trained, else None) the constants,
    with their anchor penalties."""
    lam = anchors.lam
    gap, q_x, q_g = _log_ratio_gap(rows, consts, xs, gx)
    # per group E_X[q x] - E_G[q g], each group signed as it enters D
    moments = (q_x.transpose(0, 2, 1) @ xs / xs.shape[0]
               - q_g.transpose(0, 2, 1) @ gx / gx.shape[0])
    row_grads = (_GROUP_SIGNS[:, :, None] * moments).reshape(rows.shape) \
        - lam * (rows - anchors.slot_vectors())
    const_grads = None
    if train_consts:
        const_grads = (_GROUP_SIGNS * (np.mean(q_x, axis=1) - np.mean(q_g, axis=1))).ravel() \
            - lam * (consts - anchors.slot_consts())
    return gap, row_grads, const_grads


class TiedGame:
    """F in the tied symmetric mode over a data oracle xm and a generator
    oracle gm, at the discriminator (quad, rows), rows = (b1, b3) as 2 x d:

        F = tr(quad half_gap) + delta(b1) - delta(b3) - (lam/2) (||quad||^2
            + 2 ||b1 - d||^2 + 2 ||b3 - d||^2),   half_gap = (Sx - Sg) / 2,
        delta(b) = E_X logcosh(b^T X) - E_G logcosh(b^T G).

    ``consts`` (trained only in the generic modes) is not read."""

    tied = True  # the layout of ``rows``: DiscriminatorParams.free_rows

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
        b = np.ascontiguousarray(rows.T)  # a C-ordered d x 2 stack: see LatentMoments
        mom = self.xm.logcosh_grad(b) - self.gm.logcosh_grad(b)
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

    def ascend(self, tol: float):
        """The logit block's maximizer (rows, 0): (b1, b3) as two decoupled
        problems from (d, d) with the step 1/(2 lam), a contraction."""
        rows, _ = _ascend(lambda r: self.disc_grads(0.0, r)[1],
                          np.repeat(self.anchors.d_vecs[:1], 2, axis=0),
                          1.0 / (2.0 * self.anchors.lam), tol, "tied inner maximization")
        return rows, np.zeros(4)


def _half_gap(sx: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """(Sx - Sg) / 2 with Sg the second moment of the generated batch gx."""
    return symmetrize(0.5 * (sx - second_moment(gx)))


def _block_value(quad: np.ndarray, half_gap: np.ndarray, gap: float, pen: float,
                 lam: float) -> float:
    """F = tr(quad half_gap) + the logit block's gap - (lam/2) penalty."""
    return float(np.sum(quad * half_gap)) + gap - 0.5 * lam * pen


def disc_block_value_and_grads(dd: DiscriminatorParams, anchors: Anchors,
                               xs: np.ndarray, gx: np.ndarray, train_consts: bool,
                               sx: np.ndarray | None = None):
    """Objective value and discriminator-block ascent gradients given the
    generated batch gx; returns (value, quad_grad, logit_grads, const_grads).

    The row gradients are in ``dd.free_rows`` (``DiscriminatorParams.fold``).
    ``sx`` optionally carries the precomputed x-batch second moment
    (the batch is often fixed across iterations)."""
    if sx is None:
        sx = second_moment(xs)
    half_gap = _half_gap(sx, gx)
    pen = penalty_value(dd, anchors)  # also checks the anchor count
    gap, row_grads, const_grads = _logit_block(dd.logits, dd.consts, anchors, xs, gx,
                                               train_consts)
    value = _block_value(dd.quad, half_gap, gap, pen, anchors.lam)
    return value, half_gap - anchors.lam * dd.quad, dd.fold(row_grads), const_grads


def _gen_grads(g: GeneratorParams, quad: np.ndarray, rows: np.ndarray, consts: np.ndarray,
               gx: np.ndarray, z: np.ndarray, labels: np.ndarray):
    """``gen_block_grads`` at the unchecked discriminator arrays (quad, 2k rows,
    consts)."""
    m = gx.shape[0]
    s = _grad_x(quad, rows, consts, gx)
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


def gen_block_grads(g: GeneratorParams, dd: DiscriminatorParams, gx: np.ndarray,
                    z: np.ndarray, labels: np.ndarray):
    """Generator-block gradients of F (descent direction is the negation of
    the chained discriminator input-gradient)."""
    return _gen_grads(g, dd.quad, dd.logits, dd.consts, gx, z, labels)


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
    z, labels = check_latents(g, z_batch, labels)
    if dd.d != g.d or anchors.d != g.d:
        raise InvalidInput("dimension mismatch between batches and parameters")
    gx = _gen_apply(g, z, labels)  # the anchor count is checked with the penalty
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

    tied = False

    def __init__(self, anchors: Anchors, g: GeneratorParams, xm: SampleMoments,
                 z: np.ndarray, labels: np.ndarray):
        if len(xm.second) != anchors.d or g.d != anchors.d or g.k != anchors.k:
            raise InvalidInput(f"data, generator and anchors have d {len(xm.second)}, {g.d}, "
                               f"{anchors.d}; generator and anchors k {g.k}, {anchors.k}")
        self.anchors, self.g, self.xm = anchors, g, xm
        self.z, self.labels = check_latents(g, z, labels)
        self.gx = _gen_apply(g, self.z, self.labels)
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
        return _gen_grads(self.g, quad, rows, consts, self.gx, self.z, self.labels)

    def value(self, quad, rows, consts) -> float:
        """F at the discriminator (quad, rows, consts)."""
        gap = _log_ratio_gap(rows, consts, self.xm.xs, self.gx)[0]
        return _block_value(quad, self.half_gap, gap, _penalty(quad, rows, consts, self.anchors),
                            self.anchors.lam)

    @cached_property
    def gm(self) -> SampleMoments:  # read on demand: GDA rounds never read it
        return SampleMoments(self.gx)

    def ascend(self, tol: float):
        """The logit block's maximizer (rows, consts): [rows | consts] as one
        problem from the slot anchors with the step 1/(lam + E||X||^2 + E||G||^2 (+ 2))."""
        sv, se = self.anchors.slot_vectors(), self.anchors.slot_consts()
        split = sv.size
        pad = 2.0 if self.train_consts else 0.0  # constant feature adds 1 per side
        step = 1.0 / (self.anchors.lam + self.xm.mean_sq + self.gm.mean_sq + pad)

        def grad(x):
            _, row_grads, const_grads = self.disc_grads(0.0, x[0, :split].reshape(sv.shape),
                                                        x[0, split:])
            return np.concatenate([row_grads.ravel(), np.zeros_like(se)
                                   if const_grads is None else const_grads])[None]

        x, _ = _ascend(grad, np.concatenate([sv.ravel(), se])[None], step, tol,
                       "general inner maximization")
        return x[0, :split].reshape(sv.shape), x[0, split:]


# ---------------------------------------------------------------------------
# exact inner maximization


def l1_value(g: GeneratorParams, data_second_moment: np.ndarray, lam: float) -> float:
    """Second-moment mismatch (1/(8 lam)) ||Sx - E[G G^T]||_F^2, F's quadratic
    block at its maximizer."""
    lam = as_real(lam, "lam", positive=True)
    sx = as_points(data_second_moment, g.d, "data second moment")
    if sx.shape[0] != g.d:
        raise InvalidInput(f"data second moment must be {g.d} x {g.d}, got shape {sx.shape}")
    return float(np.sum((sx - gen_second_moment(g)) ** 2)) / (8.0 * lam)


# the one iteration cap of every ascent (inner maxima and c-transform alike)
_MAX_STEPS = 100_000


def _ascend(grad, x: np.ndarray, step, tol: float, what: str) -> tuple[np.ndarray, int]:
    """Fixed-step ascent over independent problems, one per slice along the
    first axis of x, until every slice's gradient norm is <= tol: each slice
    moves by step * grad for a scalar step, or by S grad for a d x d step
    matrix S.  Returns x and the number of steps taken; warns when _MAX_STEPS
    steps do not get there."""
    as_real(tol, "tol", positive=True)
    matrix = np.ndim(step) == 2
    for it in range(_MAX_STEPS):
        g = grad(x)
        norm = np.max(np.linalg.norm(g.reshape(len(g), -1), axis=1))
        if norm <= tol:
            return x, it
        x = x + (g @ step.T if matrix else step * g)
    warnings.warn(f"{what} hit the iteration cap of {_MAX_STEPS} steps (last max gradient "
                  f"norm {norm:.3g})", RuntimeWarning)
    return x, _MAX_STEPS


def _inner_max(game, tol: float):
    """Exact inner maximum of a TiedGame or a BatchGame, the maximizer and its
    decomposed value F(gen, D*): check the margin lam > E||X||^2 + E||G||^2,
    have the game ascend its logit block from the anchors, read l2 as the
    game's F at quad = 0, and join the closed-form quadratic block
    A* = half_gap / lam, worth l1 = ||half_gap||^2 / (2 lam)."""
    xm, gm, lam = game.xm, game.gm, game.anchors.lam
    margin = lam - (xm.mean_sq + gm.mean_sq)
    if margin <= 0:
        raise NotStronglyConcave(margin)
    rows, consts = game.ascend(tol)
    l2 = game.value(np.zeros_like(xm.second), rows, consts)
    half_gap = game.half_gap
    dd = DiscriminatorParams.from_free(symmetrize(half_gap / lam), rows, consts, game.tied)
    return dd, ObjectiveValue(l1=float(np.sum(half_gap ** 2)) / (2.0 * lam), l2=l2)


def inner_max_solve(
    g: GeneratorParams,
    x_batch: np.ndarray,
    anchors: Anchors,
    z_eval: np.ndarray | None = None,
    labels: np.ndarray | None = None,
    tol: float = 1e-8,
) -> tuple[DiscriminatorParams, ObjectiveValue]:
    """Exact inner maximization over the discriminator for a fixed generator.

    The generator's mode picks the game: ``TiedGame`` for symmetric2,
    ``BatchGame`` for shared_cov.  The quadratic block is closed-form, the
    logit block is ascended to gradient norm <= tol.  With ``z_eval`` (and
    ``labels``, its rows' labels, given only with it) the generator side is
    the empirical latent batch; without it (symmetric2 only) analytic second
    moments and quadrature.  The value returned is F at the maximizer, split
    as ``ObjectiveValue``.
    """
    if z_eval is None and labels is not None:
        raise InvalidInput("labels were given without the latent batch z_eval they label")
    xm = SampleMoments(x_batch)
    if g.mode != SYMMETRIC2:
        if z_eval is None:
            raise InvalidInput("a shared_cov inner solve requires a latent batch")
        return _inner_max(BatchGame(anchors, g, xm, z_eval, labels), tol)
    gm = (GeneratorMoments(g) if z_eval is None
          else LatentMoments(g.cov_factor, g.means[0], check_latents(g, z_eval, labels)[0]))
    return _inner_max(TiedGame(anchors, xm, gm), tol)


def inner_max_solve_population(
    g: GeneratorParams,
    mu_x: np.ndarray,
    cov_x: np.ndarray,
    anchors: Anchors,
    tol: float = 1e-8,
) -> tuple[DiscriminatorParams, ObjectiveValue]:
    """Inner maximization against the population symmetric mixture
    (1/2) N(mu_x, cov_x) + (1/2) N(-mu_x, cov_x), fully quadrature-based."""
    game = TiedGame(anchors, MixtureMoments(mu_x, cov_x), GeneratorMoments(g))
    return _inner_max(game, tol)


def envelope_generator_grad(
    g: GeneratorParams,
    x_moments,
    anchors: Anchors,
    tol_inner: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray]:
    """Danskin gradient of Phi(gen) = F(gen, D*), the inner-maximum total,
    with respect to (mu, C), as (grad_mu, grad_cov_factor), for a
    SampleMoments or MixtureMoments data side and the quadrature generator
    side: the tied game's generator gradient at the maximizer D*.
    """
    game = TiedGame(anchors, x_moments, GeneratorMoments(g))
    dd, _ = _inner_max(game, tol_inner)
    cov_grad, means_grad = game.gen_grads(dd.quad, dd.free_rows)
    return means_grad[0], cov_grad


# ---------------------------------------------------------------------------
# c-transform and its regularized upper bound


def c_transform_batch(dd: DiscriminatorParams, xs: np.ndarray, tol: float = 1e-8) -> np.ndarray:
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
    u, _ = _ascend(lambda u: _grad_x(dd.quad, dd.logits, dd.consts, xs + u) - u,
                   np.zeros_like(xs), step, tol, "c-transform")
    return disc_value_batch(dd, xs + u) - 0.5 * np.sum(u ** 2, axis=1)


def c_transform_upper_bound(dd: DiscriminatorParams, anchors: Anchors,
                      x_batch: np.ndarray, eta: float) -> float:
    """Empirical right-hand side of the regularized c-transform bound:

        mean D(X) + 3 k^2 (mean ||X||^2 + 1) / (1 - eta) * penalty.
    """
    if as_real(eta, "eta") >= 1.0:
        raise InvalidInput("eta must be < 1")
    if disc_smoothness_bound(dd) > eta + 1e-12:
        raise InvalidInput("discriminator curvature bound exceeds eta")
    xs = as_points(x_batch, dd.d, "critic input")
    mean_d = float(np.mean(disc_value_batch(dd, xs)))
    mean_sq = float(np.mean(np.sum(xs ** 2, axis=1)))
    k = dd.k
    return mean_d + 3.0 * k * k * (mean_sq + 1.0) / (1.0 - eta) * penalty_value(dd, anchors)
