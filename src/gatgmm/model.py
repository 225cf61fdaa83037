"""Linear mixture generator and softmax-quadratic discriminator.

Generator modes
---------------
``symmetric2``  x = y * (C z + mu) with label y uniform on {-1, +1}; one mean row.
``shared_cov``  x = C z + mu_y with label y uniform on {0, ..., k-1}; k mean rows.

Here C is the shared covariance factor (the output covariance is C C^T).

Discriminator
-------------
    D(x) = 1/2 x^T A x + log( sum_{i<k} exp(b_i^T x + c_i)
                             / sum_{i>=k} exp(b_i^T x + c_i) )

with 2k logit rows split into a numerator and a denominator group, each
evaluated with max-subtracted log-sum-exp.  In the symmetric two-component
mode the constants are structurally zero, and training ties the rows
exactly, b_2 = -b_1 and b_4 = -b_3 (``DiscriminatorParams.tied``), which
reduces the log ratio to logcosh(b_1^T x) - logcosh(b_3^T x); D is then an
even function.  Gradients in tied mode are taken with respect to the free
rows b_1, b_3 only (the chain rule through the mirrored rows yields the
tanh forms).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInput
from .gausscore import SeededRng, as_count, as_points, lse_softmax, symmetrize

__all__ = [
    "SYMMETRIC2",
    "SHARED_COV",
    "GeneratorParams",
    "DiscriminatorParams",
    "GradPack",
    "gen_apply",
    "draw_latents",
    "check_latents",
    "gen_sample_batch",
    "gen_second_moment",
    "disc_value_batch",
    "disc_grad_x_batch",
    "disc_smoothness_bound",
    "group_log_ratio",
    "gen_vec",
    "gen_with_vec",
    "disc_vec",
    "disc_with_vec",
    "params_to_json",
    "params_from_json",
]

SYMMETRIC2 = "symmetric2"
SHARED_COV = "shared_cov"


@dataclass(frozen=True)
class GeneratorParams:
    """Mixture generator: shared covariance factor plus mean row(s)."""

    mode: str
    cov_factor: np.ndarray  # (d, d)
    means: np.ndarray       # (1, d) in symmetric2; (k, d) in shared_cov

    def __post_init__(self):
        object.__setattr__(self, "means", as_points(self.means, what="generator means"))
        d = self.means.shape[1]
        object.__setattr__(self, "cov_factor", as_points(self.cov_factor, d, "cov_factor"))
        if self.mode not in (SYMMETRIC2, SHARED_COV):
            raise InvalidInput(f"unknown generator mode {self.mode!r}")
        if self.cov_factor.shape[0] != d:
            raise InvalidInput(f"cov_factor must be {d} x {d}, the width of the means")
        if self.mode == SYMMETRIC2 and self.means.shape[0] != 1:
            raise InvalidInput("symmetric2 mode takes exactly one mean row")
        if self.mode == SHARED_COV and self.means.shape[0] < 2:
            raise InvalidInput("shared_cov mode needs k >= 2 mean rows")

    @property
    def d(self) -> int:
        return self.cov_factor.shape[0]

    @property
    def k(self) -> int:
        return 2 if self.mode == SYMMETRIC2 else self.means.shape[0]


@dataclass(frozen=True)
class DiscriminatorParams:
    """Quadratic matrix, 2k logit rows, 2k constants, and the tied flag."""

    quad: np.ndarray    # (d, d) symmetric
    logits: np.ndarray  # (2k, d)
    consts: np.ndarray  # (2k,)
    tied: bool = False

    def __post_init__(self):
        object.__setattr__(self, "logits", as_points(self.logits, what="logit rows"))
        rows, d = self.logits.shape
        object.__setattr__(self, "quad", as_points(self.quad, d, "quad"))
        # the 2k constants are read as one point
        object.__setattr__(self, "consts", as_points(self.consts, rows, "consts")[0])
        if self.quad.shape[0] != d:
            raise InvalidInput(f"quad must be {d} x {d}, the width of the logit rows")
        if rows % 2 != 0 or rows < 4:
            raise InvalidInput("logits must have 2k rows with k >= 2")
        if not np.array_equal(self.quad, self.quad.T):
            raise InvalidInput("quad must be exactly symmetric")
        if self.tied:
            if rows != 4:
                raise InvalidInput("tied mode requires exactly 4 logit rows")
            if np.any(self.consts != 0.0):
                raise InvalidInput("tied (symmetric) mode requires zero constants")
            if not (np.array_equal(self.logits[1], -self.logits[0])
                    and np.array_equal(self.logits[3], -self.logits[2])):
                raise InvalidInput("tied mode requires b2 = -b1 and b4 = -b3 exactly")

    @property
    def d(self) -> int:
        return self.quad.shape[0]

    @property
    def k(self) -> int:
        return self.logits.shape[0] // 2

    @property
    def free_rows(self) -> np.ndarray:
        """The trained logit rows (a view): (b1, b3) when tied, else all 2k rows."""
        return self.logits[0::2] if self.tied else self.logits

    def fold(self, row_grads: np.ndarray) -> np.ndarray:
        """Gradients in the 2k stored rows as gradients in ``free_rows``: when
        tied, a mirrored row's gradient enters its free row with a minus sign."""
        return row_grads[0::2] - row_grads[1::2] if self.tied else row_grads

    @staticmethod
    def from_free(quad: np.ndarray, rows: np.ndarray, consts: np.ndarray,
                  tied: bool) -> "DiscriminatorParams":
        """The discriminator whose ``free_rows`` are ``rows``; when tied, the
        stored rows are (b1, -b1, b3, -b3)."""
        if tied:
            rows = [sign * np.asarray(b, dtype=np.float64) for b in rows for sign in (1.0, -1.0)]
        return DiscriminatorParams(quad=quad, logits=rows, consts=consts, tied=tied)

    @staticmethod
    def tied_symmetric(quad: np.ndarray, b1: np.ndarray, b3: np.ndarray) -> "DiscriminatorParams":
        """Build a tied symmetric-mode discriminator from its free rows."""
        return DiscriminatorParams.from_free(quad, (b1, b3), np.zeros(4), tied=True)


@dataclass
class GradPack:
    """Per-parameter gradient blocks; shapes mirror the parameter objects.

    In tied mode ``logits`` holds the two free-row gradients (b1, b3).
    Blocks that are not parameters of the current mode are None.
    """

    gen_cov_factor: np.ndarray | None = None
    gen_means: np.ndarray | None = None
    quad: np.ndarray | None = None
    logits: np.ndarray | None = None
    consts: np.ndarray | None = None


# ---------------------------------------------------------------------------
# generator


def draw_latents(g: GeneratorParams, n: int, rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """Draw (z, labels): n standard-normal latents and uniform component labels."""
    n = as_count(n, "n")
    z = rng.gen.standard_normal((n, g.d))
    if g.mode == SYMMETRIC2:
        labels = rng.gen.integers(0, 2, size=n) * 2 - 1
    else:
        labels = rng.gen.integers(0, g.k, size=n)
    return z, labels


def check_latents(g: GeneratorParams, z: np.ndarray,
                  labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z, labels) as arrays: z is a finite (n, d) batch with one valid
    integer label per row (a bool is not a label)."""
    z, labels = as_points(z, g.d, "latents"), np.asarray(labels)
    if labels.shape != z.shape[:1]:
        raise InvalidInput(f"need {z.shape[0]} labels, one per latent, got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise InvalidInput(f"labels must be integers, got dtype {labels.dtype}")
    if g.mode == SYMMETRIC2:
        if not np.all(np.isin(labels, (-1, 1))):
            raise InvalidInput("symmetric2 labels must be +1 or -1")
    else:
        if labels.min() < 0 or labels.max() >= g.k:
            raise InvalidInput(f"shared_cov labels must lie in 0..{g.k - 1}")
    return z, labels


def gen_apply(g: GeneratorParams, z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Vectorized generator forward map on an (n, d) latent batch."""
    return _gen_apply(g, *check_latents(g, z, labels))


def _gen_apply(g: GeneratorParams, z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``gen_apply`` on latents that ``check_latents`` has passed."""
    base = z @ g.cov_factor.T
    if g.mode == SYMMETRIC2:
        return (base + g.means[0]) * np.asarray(labels, dtype=np.float64)[:, None]
    return base + g.means[labels]


def gen_sample_batch(g: GeneratorParams, n: int, rng: SeededRng) -> np.ndarray:
    z, labels = draw_latents(g, n, rng)
    return gen_apply(g, z, labels)


def gen_second_moment(g: GeneratorParams) -> np.ndarray:
    """Analytic E[G G^T]: C C^T plus the mean outer-product average."""
    cc = g.cov_factor @ g.cov_factor.T
    if g.mode == SYMMETRIC2:
        mu = g.means[0]
        return symmetrize(cc + np.outer(mu, mu))
    return symmetrize(cc + g.means.T @ g.means / g.k)


# ---------------------------------------------------------------------------
# discriminator


def group_log_ratio(rows: np.ndarray, consts: np.ndarray,
                    xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log ratio lse(num) - lse(den) of the 2k logits b_i^T x + c_i
    and the softmax weights (2, n, k) of the numerator and denominator
    groups, from one ``lse_softmax`` over the slot-major logits of both.

    The logits are one product per group and the weights come back
    sample-major, because BLAS rounds a product by its shape and operand
    layout: for k <= 7 every bit then matches the per-group formulas with
    each reduction along a sample-major (n, k) block."""
    k = rows.shape[0] // 2
    lse, w = lse_softmax(rows.reshape(2, k, -1) @ xs.T + consts.reshape(2, k, 1))
    return lse[0] - lse[1], np.ascontiguousarray(w.transpose(0, 2, 1))


def disc_value_batch(dd: DiscriminatorParams, xs: np.ndarray) -> np.ndarray:
    xs = as_points(xs, dd.d, "discriminator input")
    quad_term = 0.5 * np.sum((xs @ dd.quad) * xs, axis=1)
    return quad_term + group_log_ratio(dd.logits, dd.consts, xs)[0]


def _grad_x(quad: np.ndarray, rows: np.ndarray, consts: np.ndarray,
            xs: np.ndarray) -> np.ndarray:
    """``disc_grad_x_batch`` at the unchecked arrays (quad, 2k rows, consts)."""
    k = rows.shape[0] // 2
    qn, qd = group_log_ratio(rows, consts, xs)[1]
    return xs @ quad + qn @ rows[:k] - qd @ rows[k:]


def disc_grad_x_batch(dd: DiscriminatorParams, xs: np.ndarray) -> np.ndarray:
    """Row-wise gradient A x + sum_num q_i b_i - sum_den q_i b_i."""
    return _grad_x(dd.quad, dd.logits, dd.consts, as_points(xs, dd.d, "discriminator input"))


def disc_smoothness_bound(dd: DiscriminatorParams) -> float:
    """lambda_max(A) + 2 max_i ||b_i||^2; gates c-transform validity (< 1)."""
    eigs = np.linalg.eigvalsh(dd.quad)
    max_b_sq = float(np.max(np.sum(dd.logits ** 2, axis=1)))
    return float(eigs[-1]) + 2.0 * max_b_sq


# ---------------------------------------------------------------------------
# flat-vector views (finite differencing, norms, updates)


def gen_vec(g: GeneratorParams) -> np.ndarray:
    return np.concatenate([g.cov_factor.ravel(), g.means.ravel()])


def gen_with_vec(g: GeneratorParams, vec: np.ndarray) -> GeneratorParams:
    d = g.d
    cov = vec[: d * d].reshape(d, d)
    means = vec[d * d:].reshape(g.means.shape)
    return replace(g, cov_factor=cov, means=means)


def disc_vec(dd: DiscriminatorParams, include_consts: bool = False) -> np.ndarray:
    """Free-parameter vector: quad then free logit rows, then consts if trained
    (never when tied)."""
    parts = [dd.quad.ravel(), dd.free_rows.ravel()]
    if include_consts and not dd.tied:
        parts.append(dd.consts)
    return np.concatenate(parts)


def disc_with_vec(dd: DiscriminatorParams, vec: np.ndarray,
                  include_consts: bool = False) -> DiscriminatorParams:
    d, shape = dd.d, dd.free_rows.shape
    quad = symmetrize(vec[: d * d].reshape(d, d))
    rest = vec[d * d:]
    rows = rest[: shape[0] * d].reshape(shape)
    consts = rest[shape[0] * d:] if include_consts and not dd.tied else dd.consts
    return DiscriminatorParams.from_free(quad, rows, consts, dd.tied)


# ---------------------------------------------------------------------------
# serialization


def params_to_json(g: GeneratorParams, dd: DiscriminatorParams) -> dict:
    """Joint parameter object; matrices row-major nested lists."""
    return {
        "mode": g.mode,
        "lambda": g.cov_factor.tolist(),
        "means": g.means.tolist(),
        "A": dd.quad.tolist(),
        "b": dd.logits.tolist(),
        "c": dd.consts.tolist(),
        "tied": bool(dd.tied),
    }


def params_from_json(obj: dict) -> tuple[GeneratorParams, DiscriminatorParams]:
    g = GeneratorParams(mode=obj["mode"],
                        cov_factor=np.array(obj["lambda"], dtype=np.float64),
                        means=np.array(obj["means"], dtype=np.float64))
    dd = DiscriminatorParams(quad=np.array(obj["A"], dtype=np.float64),
                             logits=np.array(obj["b"], dtype=np.float64),
                             consts=np.array(obj["c"], dtype=np.float64),
                             tied=bool(obj["tied"]))
    return g, dd
