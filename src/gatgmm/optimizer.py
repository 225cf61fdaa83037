"""Gradient descent ascent training, initialization, and stationarity.

One round = ``disc_steps_per_gen_step`` ascent steps on the discriminator
block followed by one descent step on the generator, each evaluated on the
current minibatch with a fresh latent batch per round.  One loop in
``train_gda`` serves every mode: before it, the run picks its round's game
maker once, and each round calls it on the round's data side.  In the
symmetric mode, always tied, that is ``objective.TiedGame`` over the
minibatch's ``SampleMoments`` and the latent batch's ``LatentMoments``, which
never forms the generated batch and agrees to rounding with the generic block
(the tied ``disc_block_value_and_grads`` + ``gen_block_grads``); otherwise it
is the generic block, ``objective.BatchGame``, over ``model.draw_latents``.
The symmetric mode draws every latent batch through one path, in place and
on the caller's thread: h fresh rows, then the first m - h negated, with
h = m up to round ``max_iters // 2`` and (m + 1) // 2 after it.  Every mode's
eval records report F at the round's generator and its discriminator after
the round's last ascent step.  All randomness flows through split streams of
a single Philox seed, so a (config, seed) pair replays bit-identically.

The stationarity measure is the Danskin envelope gradient: solve the inner
maximization to tolerance, then take F's generator gradient at the
maximizer D*, which is the gradient of Phi(gen) = max_D F(gen, D), the
function GDA descends.  It requires the strong-concavity margin
lam > E||X||^2 + E||G||^2; the practical training configs violate it, so
the trainer falls back to the minibatch generator-gradient norm at eval
points when the envelope is unavailable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .em import GmmParams
from .errors import Diverged, InfeasibleRegime, InvalidInput, NotStronglyConcave
from .gausscore import SeededRng, as_count, as_points, as_real, symmetrize
from .metrics import fit_score
from .model import (
    SHARED_COV,
    SYMMETRIC2,
    DiscriminatorParams,
    GeneratorParams,
    draw_latents,
    params_to_json,
)
from .objective import (
    Anchors,
    BatchGame,
    LatentMoments,
    MixtureMoments,
    SampleMoments,
    TiedGame,
    envelope_generator_grad,
)

__all__ = [
    "GuaranteedSteps",
    "guaranteed_stepsizes",
    "init_params",
    "TrainConfig",
    "EvalRecord",
    "TrainReport",
    "train_gda",
    "stationarity_grad_norm",
    "project_to_feasible",
]


class GuaranteedSteps(NamedTuple):
    alpha_max: float
    alpha_min: float
    lipschitz: float
    kappa: float
    kappa_alt: float


def guaranteed_stepsizes(lam: float, eta: float, k: int,
                         max_anchor_normsq: float) -> GuaranteedSteps:
    """Convergence-guaranteed GDA step sizes for the feasible regime
    lam > 2 eta with E||X||^2 <= eta.

        alpha_max = 1/(lam + 2 eta)
        L = 2 lam + 4 eta + 10 (k+1) (eta/lam + max_i ||d_i||^2)
        kappa = L/(lam - 2 eta)
        alpha_min = 1/(kappa^2 L)

    kappa_alt carries the alternative condition-number convention
    (lam + 2 eta)/(lam - 2 eta); both are exposed for inspection.
    """
    lam, eta = as_real(lam, "lam"), as_real(eta, "eta")
    k, max_anchor_normsq = as_count(k, "k"), as_real(max_anchor_normsq, "max_anchor_normsq")
    if max_anchor_normsq < 0:
        raise InvalidInput(f"max_anchor_normsq must be >= 0, got {max_anchor_normsq}")
    if not (eta > 0 and lam > 2 * eta):
        raise InfeasibleRegime(f"need lam > 2*eta > 0, got lam={lam}, eta={eta}")
    alpha_max = 1.0 / (lam + 2.0 * eta)
    lip = 2.0 * lam + 4.0 * eta + 10.0 * (k + 1) * (eta / lam + max_anchor_normsq)
    kappa = lip / (lam - 2.0 * eta)
    alpha_min = 1.0 / (kappa ** 2 * lip)
    kappa_alt = (lam + 2.0 * eta) / (lam - 2.0 * eta)
    return GuaranteedSteps(alpha_max, alpha_min, lip, kappa, kappa_alt)


def init_params(d: int, mode: str, sigma_init: float, rng: SeededRng,
                k: int = 2) -> tuple[GeneratorParams, DiscriminatorParams]:
    """Initialization: means uniform in (-0.5, 0.5)^d, covariance factor
    sigma * (I + 0.01 N(0,1)), quadratic matrix I + 0.01 N(0,1) symmetrized,
    logit rows 0.01 N(0,1), only b1 and b3 when tied (the symmetric mode)."""
    d = as_count(d, "d")
    gen = rng.gen
    n_means = 1 if mode == SYMMETRIC2 else k
    means = gen.uniform(-0.5, 0.5, size=(n_means, d))
    cov_factor = sigma_init * (np.eye(d) + 0.01 * gen.standard_normal((d, d)))
    quad = symmetrize(np.eye(d) + 0.01 * gen.standard_normal((d, d)))
    g = GeneratorParams(mode=mode, cov_factor=cov_factor, means=means)
    if mode == SYMMETRIC2:
        dd = DiscriminatorParams.tied_symmetric(
            quad, 0.01 * gen.standard_normal(d), 0.01 * gen.standard_normal(d))
    else:
        rows = 0.01 * gen.standard_normal((2 * g.k, d))
        dd = DiscriminatorParams(quad=quad, logits=rows, consts=np.zeros(2 * g.k))
    return g, dd


@dataclass(frozen=True)
class TrainConfig:
    """A GDA run: the symmetric mode trains the tied discriminator, and an
    ``eta`` > 1 projects every generator step onto the feasible set."""

    max_iters: int = 4000
    disc_steps_per_gen_step: int = 1
    lr_gen: float = 1e-2
    lr_disc: float = 1e-1
    batch_size: int = 0          # 0 = full batch
    lam: float = 2.0
    eta: float | None = None     # feasibility radius of the projection
    seed: int = 0
    eval_every: int = 200
    mode: str = SYMMETRIC2
    k: int = 2
    sigma_init: float = 0.1

    def __post_init__(self):
        as_count(self.max_iters, "max_iters", 0)
        as_count(self.disc_steps_per_gen_step, "disc_steps_per_gen_step")
        as_count(self.batch_size, "batch_size", 0)
        as_count(self.eval_every, "eval_every")
        as_count(self.k, "k", 2)
        if as_real(self.lr_gen, "lr_gen") < 0 or as_real(self.lr_disc, "lr_disc") < 0:
            raise InvalidInput("learning rates must be >= 0")
        as_real(self.lam, "lam", positive=True)
        as_real(self.sigma_init, "sigma_init")
        if self.eta is not None and not as_real(self.eta, "eta") > 1.0:
            raise InvalidInput(f"the feasibility radius eta must exceed 1, got {self.eta}")
        SeededRng(self.seed)  # raises unless the seed is an integer
        if self.mode not in (SYMMETRIC2, SHARED_COV) or (self.mode == SYMMETRIC2 and self.k != 2):
            raise InvalidInput(f"mode must be {SYMMETRIC2!r} (k = 2) or {SHARED_COV!r} "
                               f"(k >= 2), got mode={self.mode!r} with k={self.k}")

    @property
    def tied(self) -> bool:
        """Whether the run trains the tied discriminator: in the symmetric mode."""
        return self.mode == SYMMETRIC2


@dataclass(frozen=True)
class EvalRecord:
    iteration: int
    objective: float
    grad_norm: float
    gmm_objective: float  # metrics.fit_score against the truth; nan without one
    seconds: float

    def to_json(self) -> dict:
        return {
            "iteration": self.iteration,
            "objective": self.objective,
            "grad_norm": self.grad_norm,
            "gmm_objective": None if np.isnan(self.gmm_objective) else self.gmm_objective,
        }


@dataclass
class TrainReport:
    iterates: list[EvalRecord] = field(default_factory=list)
    final_gen: GeneratorParams | None = None
    final_disc: DiscriminatorParams | None = None
    wall_clock_seconds: float = 0.0

    def to_json(self) -> dict:
        """The run's results; wall-clock time is left out so same-seed runs
        serialize byte-identically."""
        return {
            "iterates": [r.to_json() for r in self.iterates],
            "final_params": params_to_json(self.final_gen, self.final_disc),
        }


def _feasible_scale(cov: np.ndarray, means: np.ndarray, eta: float) -> float:
    """Factor t <= 1 putting (t C, t means) on ||C||_F^2 + max_i ||mu_i||^2 + 1 <= eta."""
    total = float(np.sum(cov ** 2) + np.max(np.sum(means ** 2, axis=1)))
    return 1.0 if total + 1.0 <= eta else float(np.sqrt((eta - 1.0) / total))


def project_to_feasible(g: GeneratorParams, eta: float) -> GeneratorParams:
    """Jointly rescale (C, means) onto ||C||_F^2 + max_i ||mu_i||^2 + 1 <= eta."""
    if not as_real(eta, "feasibility radius eta") > 1.0:
        raise InvalidInput("feasibility radius eta must exceed 1")
    t = _feasible_scale(g.cov_factor, g.means, eta)
    return g if t == 1.0 else replace(g, cov_factor=t * g.cov_factor, means=t * g.means)


def stationarity_grad_norm(g: GeneratorParams, target, anchors: Anchors,
                           tol_inner: float = 1e-8) -> float:
    """Norm of the envelope generator gradient at the inner maximum.

    ``target`` is a Dataset / sample matrix (empirical data side) or a
    GmmParams truth that passes ``is_symmetric2`` (population side via
    quadrature); any other GmmParams raises InvalidInput.
    """
    if isinstance(target, GmmParams):
        if not target.is_symmetric2:
            raise InvalidInput("population stationarity needs a symmetric two-component truth")
        xm = MixtureMoments(target.means[0], target.covs[0])
    else:
        xm = SampleMoments(target)
    grad_mu, grad_cov = envelope_generator_grad(g, xm, anchors, tol_inner)
    return float(np.sqrt(np.sum(grad_mu ** 2) + np.sum(grad_cov ** 2)))


def _eval_record(it, value, g, anchors, xs, cfg, truth, t0):
    try:
        fit = GmmParams.from_generator(g)
    except InvalidInput as exc:  # a finite C whose C C^T overflows
        raise Diverged(it, "eval_cov") from exc
    envelope = float("nan")
    if cfg.tied:
        try:
            envelope = stationarity_grad_norm(g, xs, anchors, tol_inner=1e-6)
        except NotStronglyConcave:
            pass
    return EvalRecord(iteration=it, objective=value, grad_norm=envelope,
                      gmm_objective=fit_score(truth, fit), seconds=time.perf_counter() - t0)


def train_gda(data, cfg: TrainConfig, anchors: Anchors,
              truth: GmmParams | None = None) -> TrainReport:
    """Alternating GDA on the minimax objective for max_iters rounds; zero
    rounds return the initial parameters and no eval record.

    Raises InvalidInput before the first round on empty or non-finite data,
    on anchors that do not fit it or whose lam is not cfg.lam and on a truth
    that is not a GmmParams of the data's dimension, and Diverged with the
    iteration index and its cause: a non-finite discriminator or generator
    gradient or step, or an eval point where C C^T overflows.
    """
    xs = as_points(data, what="training data")
    n, d = xs.shape
    if truth is not None and not (isinstance(truth, GmmParams) and truth.d == d):
        raise InvalidInput(f"truth must be a GmmParams of the data's dimension {d}")

    root = SeededRng(cfg.seed)
    init_rng = root.split(1)
    z_rng = root.split(2)
    batch_rng = root.split(3)

    g, dd = init_params(d, cfg.mode, cfg.sigma_init, init_rng, k=cfg.k)
    if anchors.d != d or anchors.k != g.k:
        raise InvalidInput(f"anchors hold {anchors.k} vectors of dimension {anchors.d}; "
                           f"training needs {g.k} of dimension {d}")
    if anchors.lam != cfg.lam:  # the games read the anchors' lam
        raise InvalidInput(f"anchors have lam={anchors.lam}, the config lam={cfg.lam}")

    batch = cfg.batch_size if 0 < cfg.batch_size < n else n
    full_xm = SampleMoments(xs) if batch == n else None
    cov, means, quad, consts = g.cov_factor, g.means, dd.quad, dd.consts
    rows = dd.free_rows
    records: list[EvalRecord] = []

    # the round's game, picked once: its latent side is drawn per round
    def tied_game(it, xm, cov, means):
        # i.i.d. latents, then antithetic pairs (z, -z) after max_iters // 2:
        # pairing cancels the latent second moment's mean/covariance cross term
        z = np.empty((batch, d))
        h = batch if it <= cfg.max_iters // 2 else (batch + 1) // 2
        z_rng.gen.standard_normal(out=z[:h])
        np.negative(z[:batch - h], out=z[h:])
        z_rng.gen.integers(0, 2, size=batch)  # unread labels: keeps the seeded stream
        return TiedGame(anchors, xm, LatentMoments(cov, means[0], z))

    def batch_game(it, xm, cov, means):
        gen = GeneratorParams(mode=cfg.mode, cov_factor=cov, means=means)
        return BatchGame(anchors, gen, xm, *draw_latents(gen, batch, z_rng))

    game = tied_game if cfg.tied else batch_game

    t0 = time.perf_counter()
    # Each step is checked for finiteness, so a diverging run raises Diverged
    # without numpy's overflow and invalid-value warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.max_iters + 1):
            xm = full_xm or SampleMoments(xs[batch_rng.gen.integers(0, n, size=batch)])
            rnd = game(it, xm, cov, means)

            for _ in range(cfg.disc_steps_per_gen_step):
                quad_grad, row_grads, const_grads = rnd.disc_grads(quad, rows, consts)
                quad = symmetrize(quad + cfg.lr_disc * quad_grad)
                rows = rows + cfg.lr_disc * row_grads
                if const_grads is not None:
                    consts = consts + cfg.lr_disc * const_grads
                # a non-finite gradient, or a step that overflows
                if not np.isfinite(quad.sum() + rows.sum() + consts.sum()):
                    raise Diverged(it, "disc_step")
            cov_grad, means_grad = rnd.gen_grads(quad, rows, consts)
            cov = cov - cfg.lr_gen * cov_grad
            means = means - cfg.lr_gen * means_grad
            if not np.isfinite(cov.sum() + means.sum()):  # also catches an overflowing step
                raise Diverged(it, "gen_step")
            if cfg.eta is not None:
                t = _feasible_scale(cov, means, cfg.eta)
                if t < 1.0:
                    cov, means = t * cov, t * means

            if it % cfg.eval_every == 0 or it == cfg.max_iters:
                rec = _eval_record(it, rnd.value(quad, rows, consts),
                                   GeneratorParams(mode=cfg.mode, cov_factor=cov, means=means),
                                   anchors, xs, cfg, truth, t0)
                if not np.isfinite(rec.grad_norm):
                    batch_norm = float(np.sqrt(np.sum(cov_grad ** 2) + np.sum(means_grad ** 2)))
                    rec = replace(rec, grad_norm=batch_norm)
                records.append(rec)

    return TrainReport(iterates=records,
                       final_gen=GeneratorParams(mode=cfg.mode, cov_factor=cov, means=means),
                       final_disc=DiscriminatorParams.from_free(quad, rows, consts, cfg.tied),
                       wall_clock_seconds=time.perf_counter() - t0)
