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
differentiates this same total.

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

import numpy as np

from .errors import InvalidInput, NotCConcave, NotStronglyConcave
from .gausscore import symmetrize
from .model import (
    SHARED_COV,
    SYMMETRIC2,
    DiscriminatorParams,
    GeneratorParams,
    GradPack,
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
    "TiedMomentRound",
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
    # physicists' Hermite; change of variables so sum(w) = 1 and
    # E[f(Z)] ~= w @ f(x) for standard normal Z
    x, w = np.polynomial.hermite.hermgauss(order)
    return x * np.sqrt(2.0), w / np.sqrt(np.pi)


def gh_expect(mean: float, std: float, kind: str, order: int = 64) -> float:
    """E[f(mean + std*Z)], Z standard normal, by Gauss-Hermite quadrature."""
    if std < 0:
        raise InvalidInput("std must be >= 0")
    if not 10 <= int(order) <= 200:
        raise InvalidInput("quadrature order must lie in [10, 200]")
    try:
        f = _KINDS[kind]
    except KeyError:
        raise InvalidInput(f"unknown kind {kind!r}; one of {sorted(_KINDS)}") from None
    x, w = _gh_nodes(int(order))
    return float(w @ f(mean + std * x))


# ---------------------------------------------------------------------------
# anchors and penalty


@dataclass(frozen=True)
class Anchors:
    """Fixed regularization centers (d_i, e_i) and the weight lam."""

    d_vecs: np.ndarray   # (k, d)
    e_consts: np.ndarray  # (k,)
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "d_vecs", np.atleast_2d(np.asarray(self.d_vecs, dtype=np.float64)))
        object.__setattr__(self, "e_consts", np.asarray(self.e_consts, dtype=np.float64).ravel())
        if not self.lam > 0:
            raise InvalidInput("anchor weight lam must be > 0")
        if self.e_consts.shape[0] != self.d_vecs.shape[0]:
            raise InvalidInput("e_consts length must match d_vecs rows")

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
    """Decomposed inner-maximum value: total = l1 + l2."""

    total: float
    l1: float
    l2: float
    reg: float


# ---------------------------------------------------------------------------
# moment oracles (x-side and generator-side expectations)


class SampleMoments:
    """Empirical expectations over a fixed sample batch."""

    def __init__(self, xs: np.ndarray):
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        if not np.all(np.isfinite(xs)):
            raise InvalidInput("samples must be finite")
        self.xs = xs
        self.n = xs.shape[0]
        self.second = symmetrize(xs.T @ xs / self.n)
        self.mean_sq = float(np.trace(self.second))

    def logcosh_expect(self, b: np.ndarray) -> float:
        return float(np.mean(_logcosh(self.xs @ b)))

    def logcosh_grad(self, b: np.ndarray) -> np.ndarray:
        """mean x tanh(b^T x) = grad_b of logcosh_expect."""
        return self.xs.T @ np.tanh(self.xs @ b) / self.n


class MixtureMoments:
    """Population expectations for the symmetric two-component mixture
    (1/2) N(mu, cov) + (1/2) N(-mu, cov), via 1-D quadrature."""

    def __init__(self, mu: np.ndarray, cov: np.ndarray, order: int = 64):
        self.mu = np.asarray(mu, dtype=np.float64).ravel()
        self.cov = symmetrize(cov)
        self.order = int(order)
        self.second = symmetrize(self.cov + np.outer(self.mu, self.mu))
        self.mean_sq = float(np.trace(self.second))

    def _proj(self, b: np.ndarray) -> tuple[float, float]:
        m = float(b @ self.mu)
        s2 = float(b @ self.cov @ b)
        return m, np.sqrt(max(s2, 0.0))

    def logcosh_expect(self, b: np.ndarray) -> float:
        m, s = self._proj(b)
        return gh_expect(m, s, "logcosh", self.order)

    def logcosh_grad(self, b: np.ndarray) -> np.ndarray:
        # Stein: E[X tanh(b'X)] = mu E[tanh] + cov b E[tanh'] on one component;
        # the integrand is even, so the mixture value coincides.
        m, s = self._proj(b)
        return (self.mu * gh_expect(m, s, "tanh", self.order)
                + self.cov @ b * gh_expect(m, s, "tanh_prime", self.order))

    def tanh_mean(self, b: np.ndarray) -> float:
        """Single-component E[tanh(b^T W)], W ~ N(mu, cov)."""
        m, s = self._proj(b)
        return gh_expect(m, s, "tanh", self.order)


class GeneratorMoments(MixtureMoments):
    """Population expectations of the symmetric generator law, plus the
    covariance-factor directions needed for envelope gradients."""

    def __init__(self, g: GeneratorParams, order: int = 64):
        if g.mode != SYMMETRIC2:
            raise InvalidInput("quadrature generator moments require symmetric2 mode")
        self.g = g
        super().__init__(g.means[0], g.cov_factor @ g.cov_factor.T, order)

    def lambda_grad_logcosh(self, b: np.ndarray) -> np.ndarray:
        """grad_C of E[logcosh(b^T G)] = E[tanh'] * b (C^T b)^T (Stein in z)."""
        m, s = self._proj(b)
        return gh_expect(m, s, "tanh_prime", self.order) * np.outer(b, self.g.cov_factor.T @ b)


# ---------------------------------------------------------------------------
# empirical minimax value and gradients (the GDA workhorse)


def _logit_block(rows: np.ndarray, consts: np.ndarray, anchors: Anchors, xs: np.ndarray,
                 gx: np.ndarray, train_consts: bool):
    """Logit block of F: the mean log-ratio gap E_X - E_G, and its ascent
    gradients in the 2k rows and (when trained, else None) the constants,
    with their anchor penalties."""
    lam, k = anchors.lam, rows.shape[0] // 2
    n, m = xs.shape[0], gx.shape[0]
    lr_x, qn_x, qd_x = group_log_ratio(rows, consts, xs)
    lr_g, qn_g, qd_g = group_log_ratio(rows, consts, gx)
    sv = anchors.slot_vectors()
    row_grads = np.empty_like(rows)
    row_grads[:k] = qn_x.T @ xs / n - qn_g.T @ gx / m - lam * (rows[:k] - sv[:k])
    row_grads[k:] = -(qd_x.T @ xs / n) + qd_g.T @ gx / m - lam * (rows[k:] - sv[k:])
    const_grads = None
    if train_consts:
        const_grads = np.concatenate([
            np.mean(qn_x, axis=0) - np.mean(qn_g, axis=0),
            -np.mean(qd_x, axis=0) + np.mean(qd_g, axis=0),
        ]) - lam * (consts - anchors.slot_consts())
    return float(np.mean(lr_x)) - float(np.mean(lr_g)), row_grads, const_grads


_TIED_SIGNS = np.array([[1.0], [-1.0]])  # D has +logcosh(b1'x) - logcosh(b3'x)


class TiedMomentRound:
    """The tied symmetric GDA round in latent-moment space.

    With G = y (C z + mu), every generator-side term of the tied
    ``disc_block_value_and_grads`` and of ``gen_block_grads`` follows from
    the latent moments sz = z^T z / m and zbar, the projections
    G B = y (z C^T B + mu^T B) of the free rows B = (b1, b3), and
    contractions z^T (y t) / m of per-sample weights:

        E[(C z + mu) z^T] = C sz + mu zbar^T,   E[C z + mu] = C zbar + mu,
        E[G G^T] = (C sz + mu zbar^T) C^T + (C zbar + mu) mu^T,
        E[G t]   = C z^T (y t) / m + mu mean(y t).

    The m x d batch G is never formed: a round costs one syrk and a few
    d^3 products, plus O(m d) per discriminator step.  A round is built on
    the generator (cov, mu), the data batch xs with its second moment sx,
    and the latent batch (z, labels); its methods take the discriminator as
    (quad, rows) with rows = (b1, b3) stacked as 2 x d.  ``consts`` (trained
    only in the generic modes) is not read.
    """

    def __init__(self, anchors: Anchors, cov: np.ndarray, mu: np.ndarray,
                 xs: np.ndarray, sx: np.ndarray, z: np.ndarray, labels: np.ndarray):
        m = z.shape[0]
        self.anchors, self.cov, self.mu, self.xs, self.z = anchors, cov, mu, xs, z
        self.y = np.asarray(labels, dtype=np.float64)[:, None]
        zbar = np.sum(z, axis=0) / m
        self.gz = cov @ (z.T @ z / m) + np.outer(mu, zbar)
        self.gbar = cov @ zbar + mu
        self.sg = symmetrize(self.gz @ cov.T + np.outer(self.gbar, mu))
        self.half_gap = 0.5 * (sx - self.sg)

    def _proj(self, rows: np.ndarray) -> np.ndarray:
        return self.y * (self.z @ (rows @ self.cov).T + rows @ self.mu)

    def _tanh_moments(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """z^T (y t) / m and mean(y t) for t = tanh(G B)."""
        yt = self.y * np.tanh(self._proj(rows))
        m = yt.shape[0]
        return self.z.T @ yt / m, np.sum(yt, axis=0) / m

    def disc_grads(self, quad, rows, consts):
        """Ascent gradients (quad_grad, row_grads, None) of the tied
        ``disc_block_value_and_grads``."""
        lam, xs = self.anchors.lam, self.xs
        zt, yt_mean = self._tanh_moments(rows)
        g_mom = self.cov @ zt + np.outer(self.mu, yt_mean)
        x_mom = xs.T @ np.tanh(xs @ rows.T) / xs.shape[0]
        row_grads = _TIED_SIGNS * (x_mom - g_mom).T - 2.0 * lam * (rows - self.anchors.d_vecs[0])
        return self.half_gap - lam * quad, row_grads, None

    def gen_grads(self, quad, rows, consts):
        """Descent gradients (cov_grad, means_grad) of ``gen_block_grads``."""
        zt, yt_mean = self._tanh_moments(rows)
        signed = (_TIED_SIGNS * rows).T  # columns (b1, -b3)
        cov_step = quad @ self.gz + signed @ zt.T
        mean_step = quad @ self.gbar + signed @ yt_mean
        return -cov_step, -mean_step[None, :]

    def value(self, quad, rows, consts) -> float:
        """Objective value at the discriminator (quad, rows)."""
        lc = (np.mean(_logcosh(self.xs @ rows.T), axis=0)
              - np.mean(_logcosh(self._proj(rows)), axis=0))
        pen = float(np.sum(quad ** 2)) + 2.0 * float(np.sum((rows - self.anchors.d_vecs[0]) ** 2))
        return float(np.sum(quad * self.half_gap) + lc[0] - lc[1]) - 0.5 * self.anchors.lam * pen


def disc_block_value_and_grads(dd: DiscriminatorParams, anchors: Anchors,
                               xs: np.ndarray, gx: np.ndarray, train_consts: bool,
                               sx: np.ndarray | None = None):
    """Objective value and discriminator-block ascent gradients given the
    generated batch gx; returns (value, quad_grad, logit_grads, const_grads).

    In tied mode the gradients of the mirrored rows fold into the free rows:
    the b1 gradient is row 0's minus row 1's, the b3 gradient row 2's minus
    row 3's.  ``sx`` optionally carries the precomputed x-batch second moment
    (the batch is often fixed across iterations)."""
    if sx is None:
        sx = symmetrize(xs.T @ xs / xs.shape[0])
    half_gap = symmetrize(0.5 * (sx - symmetrize(gx.T @ gx / gx.shape[0])))
    reg = 0.5 * anchors.lam * penalty_value(dd, anchors)  # also checks the anchor count
    gap, row_grads, const_grads = _logit_block(dd.logits, dd.consts, anchors, xs, gx,
                                               train_consts)
    value = float(np.sum(dd.quad * half_gap)) + gap - reg
    if dd.tied:
        row_grads = row_grads[0::2] - row_grads[1::2]
    return value, half_gap - anchors.lam * dd.quad, row_grads, const_grads


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
        means_grad = np.zeros_like(g.means)
        np.add.at(means_grad, labels, s)
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
    xs = np.atleast_2d(np.asarray(x_batch, dtype=np.float64))
    z = np.atleast_2d(np.asarray(z_batch, dtype=np.float64))
    labels = np.asarray(labels)
    d = g.d
    if xs.shape[1] != d or z.shape[1] != d or dd.d != d or anchors.d != d:
        raise InvalidInput("dimension mismatch between batches and parameters")
    if labels.shape[0] != z.shape[0]:
        raise InvalidInput("labels length must match z_batch rows")
    if anchors.k != dd.k:
        raise InvalidInput("anchor count does not match discriminator slot count")

    gx = gen_apply(g, z, labels)
    value, quad_grad, logit_grads, const_grads = disc_block_value_and_grads(
        dd, anchors, xs, gx, train_consts=(g.mode == SHARED_COV))
    cov_grad, means_grad = gen_block_grads(g, dd, gx, z, labels)
    return value, GradPack(gen_cov_factor=cov_grad, gen_means=means_grad,
                           quad=quad_grad, logits=logit_grads, consts=const_grads)


# ---------------------------------------------------------------------------
# exact inner maximization


def l1_value(g: GeneratorParams, data_second_moment: np.ndarray, lam: float) -> float:
    """Second-moment mismatch (1/(2 lam)) ||Sx - E[G G^T]||_F^2."""
    if not lam > 0:
        raise InvalidInput("lam must be > 0")
    diff = np.asarray(data_second_moment, dtype=np.float64) - gen_second_moment(g)
    return float(np.sum(diff ** 2)) / (2.0 * lam)


def _check_margin(lam: float, x_mean_sq: float, g_mean_sq: float) -> float:
    margin = lam - (x_mean_sq + g_mean_sq)
    if margin <= 0:
        raise NotStronglyConcave(margin)
    return margin


def _inner_max_tied(xm, gm, anchors: Anchors, tol: float, max_iters: int):
    """Ascend the two free logit vectors of the tied symmetric problem.

    b1 maximizes  +delta(b) - lam ||b - d||^2,
    b3 maximizes  -delta(b) - lam ||b - d||^2,
    delta(b) = E_X logcosh(b^T X) - E_G logcosh(b^T G).
    """
    lam = anchors.lam
    d_vec = anchors.d_vecs[0]
    _check_margin(lam, xm.mean_sq, gm.mean_sq)
    step = 1.0 / (2.0 * lam + xm.mean_sq + gm.mean_sq)

    out = []
    for sign in (1.0, -1.0):
        b = d_vec.copy()
        for _ in range(max_iters):
            grad = sign * (xm.logcosh_grad(b) - gm.logcosh_grad(b)) - 2.0 * lam * (b - d_vec)
            if np.linalg.norm(grad) <= tol:
                break
            b = b + step * grad
        else:
            warnings.warn("tied inner maximization hit the iteration cap", RuntimeWarning)
        val = (sign * (xm.logcosh_expect(b) - gm.logcosh_expect(b))
               - lam * float(np.sum((b - d_vec) ** 2)))
        out.append((b, val))
    (b1, v1), (b3, v3) = out
    return b1, b3, v1 + v3


def _inner_max_general(xs: np.ndarray, gx: np.ndarray, anchors: Anchors,
                       train_consts: bool, tol: float, max_iters: int):
    """Joint ascent over all 2k logit rows (and constants when trained)."""
    lam = anchors.lam
    x_mean_sq = float(np.mean(np.sum(xs ** 2, axis=1)))
    g_mean_sq = float(np.mean(np.sum(gx ** 2, axis=1)))
    _check_margin(lam, x_mean_sq, g_mean_sq)
    pad = 2.0 if train_consts else 0.0  # constant feature adds 1 per side
    step = 1.0 / (lam + x_mean_sq + g_mean_sq + pad)

    sv = anchors.slot_vectors()
    se = anchors.slot_consts()
    rows = sv.copy()
    consts = se.copy()
    for _ in range(max_iters):
        gap, grad_rows, grad_c = _logit_block(rows, consts, anchors, xs, gx, train_consts)
        gnorm_sq = float(np.sum(grad_rows ** 2))
        if train_consts:
            gnorm_sq += float(np.sum(grad_c ** 2))
        if np.sqrt(gnorm_sq) <= tol:
            break
        rows = rows + step * grad_rows
        if train_consts:
            consts = consts + step * grad_c
    else:
        warnings.warn("general inner maximization hit the iteration cap", RuntimeWarning)
        gap = _logit_block(rows, consts, anchors, xs, gx, train_consts)[0]

    val = gap - 0.5 * lam * (float(np.sum((rows - sv) ** 2)) + float(np.sum((consts - se) ** 2)))
    return rows, consts, val


def _solution(sx: np.ndarray, sg: np.ndarray, anchors: Anchors, l2: float,
              logits: np.ndarray, consts: np.ndarray, tied: bool):
    """Join the closed-form quadratic block A* = (Sx - Sg) / (2 lam) to a
    solved logit block of value l2: the maximizer and its decomposed value."""
    lam = anchors.lam
    quad = symmetrize((sx - sg) / (2.0 * lam))
    dd = DiscriminatorParams(quad=quad, logits=logits, consts=consts, tied=tied)
    l1 = float(np.sum((sx - sg) ** 2)) / (2.0 * lam)
    reg = 0.5 * lam * penalty_value(dd, anchors)
    return dd, ObjectiveValue(total=l1 + l2, l1=l1, l2=l2, reg=reg)


def _tied_solution(xm, gm, anchors: Anchors, tol: float, max_iters: int):
    """Tied symmetric inner maximum for the moment oracles xm (data) and gm
    (generator)."""
    b1, b3, l2 = _inner_max_tied(xm, gm, anchors, tol, max_iters)
    return _solution(xm.second, gm.second, anchors, l2, np.stack([b1, -b1, b3, -b3]),
                     np.zeros(4), tied=True)


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
    empirical batch; without it (symmetric tied mode only) the generator
    side uses analytic second moments and quadrature.
    """
    if not tol > 0:
        raise InvalidInput("tol must be > 0")
    xs = np.atleast_2d(np.asarray(x_batch, dtype=np.float64))
    xm = SampleMoments(xs)
    if z_eval is None:
        if not (g.mode == SYMMETRIC2 and tied):
            raise InvalidInput("untied/general inner solve requires a latent batch")
        return _tied_solution(xm, GeneratorMoments(g, gh_order), anchors, tol, max_iters)
    gx = gen_apply(g, np.atleast_2d(np.asarray(z_eval, dtype=np.float64)), labels)
    if g.mode == SYMMETRIC2 and tied:
        return _tied_solution(xm, SampleMoments(gx), anchors, tol, max_iters)
    rows, consts, l2 = _inner_max_general(
        xs, gx, anchors, train_consts=(g.mode == SHARED_COV), tol=tol, max_iters=max_iters)
    sg = symmetrize(gx.T @ gx / gx.shape[0])
    return _solution(xm.second, sg, anchors, l2, rows, consts, tied=False)


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
    if not tol > 0:
        raise InvalidInput("tol must be > 0")
    return _tied_solution(MixtureMoments(mu_x, cov_x, gh_order), GeneratorMoments(g, gh_order),
                          anchors, tol, max_iters)


def envelope_generator_grad(
    g: GeneratorParams,
    x_moments,
    anchors: Anchors,
    tol_inner: float = 1e-8,
    gh_order: int = 64,
    max_iters: int = 100000,
) -> tuple[np.ndarray, np.ndarray]:
    """Danskin gradient of the inner-maximum total with respect to (mu, C).

    ``x_moments`` is a SampleMoments or MixtureMoments oracle; the generator
    side is always evaluated by quadrature.  Returns (grad_mu, grad_cov_factor).
    """
    if g.mode != SYMMETRIC2:
        raise InvalidInput("envelope gradient is defined for the symmetric2 mode")
    gm = GeneratorMoments(g, gh_order)
    b1, b3, _ = _inner_max_tied(x_moments, gm, anchors, tol_inner, max_iters)
    lam = anchors.lam
    mismatch = gm.second - x_moments.second
    grad_mu = (2.0 / lam) * (mismatch @ g.means[0])
    grad_mu = grad_mu - gm.tanh_mean(b1) * b1 + gm.tanh_mean(b3) * b3
    grad_cov = (2.0 / lam) * (mismatch @ g.cov_factor)
    grad_cov = grad_cov - gm.lambda_grad_logcosh(b1) + gm.lambda_grad_logcosh(b3)
    return grad_mu, grad_cov


# ---------------------------------------------------------------------------
# c-transform and its regularized upper bound


def c_transform_batch(dd: DiscriminatorParams, xs: np.ndarray,
                      tol: float = 1e-8, max_iters: int = 10000) -> np.ndarray:
    """max_u D(x + u) - ||u||^2 / 2 per row, by fixed-step ascent from u = 0."""
    eta = disc_smoothness_bound(dd)
    if eta >= 1.0:
        raise NotCConcave(f"curvature bound {eta:.6g} >= 1")
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    step = 0.5 * (1.0 - eta)
    u = np.zeros_like(xs)
    for _ in range(max_iters):
        grad = disc_grad_x_batch(dd, xs + u) - u
        if float(np.max(np.sum(grad ** 2, axis=1))) <= tol * tol:
            break
        u += step * grad
    else:
        warnings.warn("c-transform ascent hit the iteration cap", RuntimeWarning)
    return disc_value_batch(dd, xs + u) - 0.5 * np.sum(u ** 2, axis=1)


def c_transform(dd: DiscriminatorParams, x: np.ndarray, tol: float = 1e-8) -> float:
    return float(c_transform_batch(dd, np.asarray(x, dtype=np.float64)[None, :], tol)[0])


def c_transform_upper_bound(dd: DiscriminatorParams, anchors: Anchors,
                      x_batch: np.ndarray, eta: float) -> float:
    """Empirical right-hand side of the regularized c-transform bound:

        mean D(X) + 3 k^2 (mean ||X||^2 + 1) / (1 - eta) * penalty.
    """
    if eta >= 1.0:
        raise InvalidInput("eta must be < 1")
    if disc_smoothness_bound(dd) > eta + 1e-12:
        raise InvalidInput("discriminator curvature bound exceeds eta")
    xs = np.atleast_2d(np.asarray(x_batch, dtype=np.float64))
    mean_d = float(np.mean(disc_value_batch(dd, xs)))
    mean_sq = float(np.mean(np.sum(xs ** 2, axis=1)))
    k = dd.k
    return mean_d + 3.0 * k * k * (mean_sq + 1.0) / (1.0 - eta) * penalty_value(dd, anchors)
