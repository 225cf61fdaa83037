"""Gradient descent ascent training, initialization, and stationarity.

One round = ``disc_steps_per_gen_step`` ascent steps on the discriminator
block followed by one descent step on the generator, each evaluated on the
current minibatch with a fresh latent batch per round.  One loop in
``train_gda`` serves every mode and a per-mode round supplies the gradients:
in the symmetric mode, always tied, ``objective.TiedGame`` over the
minibatch's ``SampleMoments`` and the latent batch's ``LatentMoments``, which
never forms the generated batch and agrees to rounding with the generic block
(the tied ``disc_block_value_and_grads`` + ``gen_block_grads``), and the
generic block, ``objective.BatchGame``, otherwise.  Every mode's eval records
report F at the round's generator and its discriminator after the round's last
ascent step.  All randomness flows through split streams of a single Philox
seed, so a (config, seed) pair replays bit-identically.  The latent draws
never depend on a round's results, so one worker thread draws round t+1's
batch while round t computes; it is the latent stream's only user and draws in
order, so the results are those of a serial run, and ``train_gda`` joins it
before returning or raising.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from .em import GmmParams
from .errors import Diverged, InfeasibleRegime, InvalidInput, NotStronglyConcave
from .gausscore import SeededRng, as_count, as_points, as_real, symmetrize
from .metrics import fit_score
from .model import (
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


_FIELD_KINDS = {"int": Integral, "float": Real, "str": str}


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
    sigma_init: float | None = None  # default 2**(-1/d)

    def __post_init__(self):
        for f in fields(self):  # configs read from JSON reach here unchecked
            val = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if optional and val is None:
                continue
            # bool is an int subclass, and no field takes one
            if isinstance(val, (bool, np.bool_)) or not isinstance(val, _FIELD_KINDS[kind]):
                raise InvalidInput(f"{f.name} must be {f.type}, got {val!r}")
            if kind == "float":
                as_real(val, f.name)
        if self.lr_gen < 0 or self.lr_disc < 0:
            raise InvalidInput("learning rates must be >= 0")
        if min(self.batch_size, self.max_iters) < 0:
            raise InvalidInput("sizes must be nonnegative")
        if self.disc_steps_per_gen_step < 1:
            raise InvalidInput("disc_steps_per_gen_step must be >= 1")
        if self.k < 2:
            raise InvalidInput("k must be >= 2")
        if not self.lam > 0:
            raise InvalidInput("lam must be > 0")
        if self.eval_every < 1:
            raise InvalidInput("eval_every must be >= 1")
        if self.eta is not None and not self.eta > 1.0:
            raise InvalidInput(f"the feasibility radius eta must exceed 1, got {self.eta}")

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
    """Alternating GDA on the minimax objective for max_iters rounds.

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

    sigma = cfg.sigma_init if cfg.sigma_init is not None else 2.0 ** (-1.0 / d)
    g, dd = init_params(d, cfg.mode, sigma, init_rng, k=cfg.k)
    if anchors.d != d or anchors.k != g.k:
        raise InvalidInput(f"anchors hold {anchors.k} vectors of dimension {anchors.d}; "
                           f"training needs {g.k} of dimension {d}")
    if anchors.lam != cfg.lam:  # the games read the anchors' lam
        raise InvalidInput(f"anchors have lam={anchors.lam}, the config lam={cfg.lam}")

    if cfg.max_iters == 0:
        return TrainReport(
            iterates=[EvalRecord(iteration=0, objective=float("nan"),
                                 grad_norm=float("nan"), gmm_objective=float("nan"),
                                 seconds=0.0)],
            final_gen=g, final_disc=dd, wall_clock_seconds=0.0)

    batch = cfg.batch_size if 0 < cfg.batch_size < n else n
    # pairing cancels the latent second moment's mean/covariance cross term
    pair_from = cfg.max_iters // 2 if cfg.mode == SYMMETRIC2 else None
    full_xm = SampleMoments(xs) if batch == n else None
    cov, means, quad, consts = g.cov_factor, g.means, dd.quad, dd.consts
    rows = dd.free_rows
    records: list[EvalRecord] = []
    law = g  # draw reads mode, d and k off the initial generator, not the g the loop rebinds

    def draw(it):
        """Round it's latents: i.i.d., then antithetic pairs (z, -z) after pair_from."""
        if pair_from is not None and it > pair_from:
            half = z_rng.gen.standard_normal(((batch + 1) // 2, d))
            return (np.concatenate([half, -half])[:batch],
                    z_rng.gen.integers(0, 2, size=batch) * 2 - 1)
        return draw_latents(law, batch, z_rng)

    t0 = time.perf_counter()
    # One worker thread draws round it + 1's latents while round it computes.
    # It runs its tasks in order and is z_rng's only user, so the draws are
    # the serial sequence; numpy fills the normals with the GIL released.  The
    # with block joins the worker on every exit, with at most one draw pending.
    # Each step is checked for finiteness, so a diverging run raises Diverged
    # without numpy's overflow and invalid-value warnings.
    with ThreadPoolExecutor(max_workers=1) as pool, np.errstate(over="ignore", invalid="ignore"):
        nxt = pool.submit(draw, 1)
        for it in range(1, cfg.max_iters + 1):
            xm = full_xm or SampleMoments(xs[batch_rng.gen.integers(0, n, size=batch)])
            z, labels = nxt.result()
            if it < cfg.max_iters:
                nxt = pool.submit(draw, it + 1)
            if cfg.tied:
                rnd = TiedGame(anchors, xm, LatentMoments(cov, means[0], z))
            else:
                rnd = BatchGame(anchors,
                                GeneratorParams(mode=cfg.mode, cov_factor=cov, means=means),
                                xm, z, labels)

            for _ in range(cfg.disc_steps_per_gen_step):
                quad_grad, row_grads, const_grads = rnd.disc_grads(quad, rows, consts)
                quad = symmetrize(quad + cfg.lr_disc * quad_grad)
                rows = rows + cfg.lr_disc * row_grads
                if const_grads is not None:
                    consts = consts + cfg.lr_disc * const_grads
                # a non-finite gradient, or a step that overflows
                if not np.isfinite(np.sum(quad) + np.sum(rows) + np.sum(consts)):
                    raise Diverged(it, "disc_step")
            cov_grad, means_grad = rnd.gen_grads(quad, rows, consts)
            cov = cov - cfg.lr_gen * cov_grad
            means = means - cfg.lr_gen * means_grad
            if not np.isfinite(np.sum(cov) + np.sum(means)):  # also catches an overflowing step
                raise Diverged(it, "gen_step")
            if cfg.eta is not None:
                t = _feasible_scale(cov, means, cfg.eta)
                if t < 1.0:
                    cov, means = t * cov, t * means

            if it % cfg.eval_every == 0 or it == cfg.max_iters:
                g = GeneratorParams(mode=cfg.mode, cov_factor=cov, means=means)
                rec = _eval_record(it, rnd.value(quad, rows, consts), g, anchors, xs, cfg,
                                   truth, t0)
                if not np.isfinite(rec.grad_norm):
                    batch_norm = float(np.sqrt(np.sum(cov_grad ** 2) + np.sum(means_grad ** 2)))
                    rec = replace(rec, grad_norm=batch_norm)
                records.append(rec)

    return TrainReport(iterates=records,
                       final_gen=GeneratorParams(mode=cfg.mode, cov_factor=cov, means=means),
                       final_disc=DiscriminatorParams.from_free(quad, rows, consts, cfg.tied),
                       wall_clock_seconds=time.perf_counter() - t0)
