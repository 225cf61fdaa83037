"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``, then
runs closed-loop passes: one caller, each library call made after the
previous one returned, the same inputs every pass.  ``run_pass`` returns
what the pass produced and ``check`` compares the passes of a run.  The GDA
workloads also have ``probe``, used only by traced runs, which replays one
GDA round phase by phase at the workload's shapes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from gatgmm import cli, datagen, em, gausscore, metrics, model, objective, optimizer, transport
from gatgmm.cli import _TRAIN_DEFAULTS

# GDA rounds per pass: a third to half a second of training on a 2-core
# Xeon, so a run holds many passes, yet long enough that both latent phases
# run.
ROUNDS = {"isotropic": 700, "rotated": 160, "kmix": 300}
# EM iterations per pass, run in full (tol=0): how many iterations EM needs
# to converge depends on the seed (from 3 to over 60 for kmix), and a pass
# must do the same work whatever the seed.
EM_ITERS = {"symmetric": 10, "kmix": 30}

# Philox streams of the benchmark's own draws; the library uses 0-3 and 17.
REPLAY_STREAM = 901
ORACLE_STREAM = 902
BAYES_STREAM = 903


def shortened_config(kind: str, rounds: int, seed: int) -> optimizer.TrainConfig:
    """The CLI's trained defaults for ``kind`` cut to ``rounds`` rounds, with
    the antithetic switch at the same fraction of the budget and two eval
    points."""
    fields = dict(_TRAIN_DEFAULTS[kind])
    full = fields["max_iters"]
    fields.update(max_iters=rounds, eval_every=rounds // 2, seed=seed)
    if fields.get("antithetic_from") is not None:
        fields["antithetic_from"] = fields["antithetic_from"] * rounds // full
    return optimizer.TrainConfig(**fields)


def round_cost(tied: bool, n: int, m: int, d: int, k: int) -> tuple[int, int]:
    """Flops and bytes of one GDA round at full batch, computed from shapes.

    Only dense products count: an (a x b) @ (b x c) product is 2abc flops
    and touches ab + bc + ac float64 values; elementwise work is left out.
    ``tied`` follows the inlined symmetric loop of ``train_gda``, otherwise
    the generic loop (``disc_block_value_and_grads`` + ``gen_block_grads``)
    with 2k logit rows.
    """
    if tied:
        prods = [(m, d, d), (d, m, d),                     # G = Z C^T, G^T G
                 *[(r, d, 1) for r in (n, n, m, m, m, m)],  # projections on b1, b3
                 *[(d, r, 1) for r in (n, n, m, m)],        # tanh moments
                 (m, d, d), (d, m, d)]                     # G A, signed^T Z
    else:
        rows = 2 * k
        prods = [(m, d, d),                                # generator forward
                 (n, d, d), (n, d, rows),                  # x side: X A, logits
                 (m, d, d), (m, d, rows), (d, m, d),       # G side: G A, logits, G^T G
                 (rows, n, d), (rows, m, d),               # softmax-weighted row gradients
                 (m, d, rows), (m, d, d), (m, rows, d),    # input gradient at G
                 (d, m, d)]                                # s^T Z
    flops = sum(2 * a * b * c for a, b, c in prods)
    values = sum(a * b + b * c + a * c for a, b, c in prods)
    return flops, 8 * values


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class GdaWorkload:
    """Dataset and anchors, then per pass: train_gda on the shortened
    defaults, em_fit, and the two fits' scores against the truth."""

    kind = ""  # key of the CLI's _TRAIN_DEFAULTS
    reference = ("rounds",)  # parts of the reference chunk (run.reference_chunk)

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.cfg = shortened_config(self.kind, ROUNDS[self.kind], seed)
        self.replay_rng = gausscore.SeededRng(seed, stream=REPLAY_STREAM)
        self.last = None  # (generator, discriminator, EM fit) of the latest pass

    def setup(self, ops) -> None:
        self.ds = self.make_dataset(ops)
        self.truth = self.ds.meta.truth
        xs = self.ds.samples
        self.second = gausscore.symmetrize(xs.T @ xs / self.ds.n)
        self.anchors = self.make_anchors(ops)

    def run_pass(self, ops) -> dict:
        ds = self.ds
        rep = ops.call("optimizer.train_gda", optimizer.train_gda, ds, self.cfg, self.anchors,
                       truth=self.truth)
        fit, trace = ops.call("em.em_fit", em.em_fit, ds.samples, **self.em_args())
        g, dd = rep.final_gen, rep.final_disc
        cov = g.cov_factor @ g.cov_factor.T
        self.last = (g, dd, fit)
        return {
            "digest": digest(g.cov_factor, g.means, dd.quad, dd.logits, dd.consts,
                             fit.weights, fit.means, fit.covs),
            "gat_score": self.score(ops, g.means, np.repeat(cov[None], g.means.shape[0], axis=0)),
            "em_score": self.score(ops, fit.means, fit.covs),
            "rounds": rep.iterates[-1].iteration,
            "eval_points": len(rep.iterates),
            "em_iters": len(trace),
            "em_monotone": all(b >= a - 1e-9 for a, b in zip(trace, trace[1:])),
        }

    def check(self, ops, results: list[dict]) -> None:
        first = results[0]
        ops.check(all(r["digest"] == first["digest"] for r in results),
                  "final parameters differ between passes on the same inputs")
        ops.check(all(np.isfinite(r[key]) for r in results for key in ("gat_score", "em_score")),
                  "a score is not finite")
        ops.check(first["em_monotone"], "EM log-likelihood trace decreases")

    def round_cost(self) -> tuple[int, int]:
        n, d = self.ds.samples.shape
        return round_cost(self.cfg.mode == model.SYMMETRIC2 and self.cfg.tied, n, n, d,
                          self.cfg.k)

    def probe(self, ops) -> None:
        """One GDA round replayed through the public phase functions at the
        latest fit, then single calls of the other per-round kernels."""
        g, dd, fit = self.last
        xs = self.ds.samples
        with ops.span("bench.replay_round"):
            z, labels = ops.call("model.draw_latents", model.draw_latents, g, xs.shape[0],
                                 self.replay_rng)
            gx = ops.call("model.gen_apply", model.gen_apply, g, z, labels)
            ops.call("objective.disc_block_value_and_grads", objective.disc_block_value_and_grads,
                     dd, self.anchors, xs, gx, g.mode == model.SHARED_COV, sx=self.second)
            ops.call("objective.gen_block_grads", objective.gen_block_grads, g, dd, gx, z, labels)
        ops.call("model.disc_grad_x_batch", model.disc_grad_x_batch, dd, gx)
        ops.call("em.gmm_loglik", em.gmm_loglik, fit, xs)


class SymmetricGda(GdaWorkload):
    """Two-component symmetric task: principal-direction anchors, mirrored
    EM, sign-minimized score.  The components are far apart, so EM must
    beat the orthant-split estimate (one Gaussian fitted per half)."""

    def setup(self, ops) -> None:
        super().setup(ops)
        self.em_limit = ops.call("metrics.gmm_objective_orthant", metrics.gmm_objective_orthant,
                                 self.truth, self.ds.samples, self.truth.means[0])

    def check(self, ops, results: list[dict]) -> None:
        super().check(ops, results)
        em_score = results[0]["em_score"]
        ops.check(em_score <= self.em_limit,
                  f"EM score {em_score:.6g} above the orthant estimate {self.em_limit:.6g}")

    def make_anchors(self, ops) -> objective.Anchors:
        direction = ops.call("metrics.principal_direction", metrics.principal_direction,
                             self.ds.samples)
        return objective.Anchors.symmetric(direction, self.cfg.lam)

    def em_args(self) -> dict:
        return {"k": 2, "symmetric2": True, "seed": self.seed,
                "max_iters": EM_ITERS["symmetric"], "tol": 0.0}

    def score(self, ops, means, covs) -> float:
        return ops.call("metrics.gmm_objective", metrics.gmm_objective, self.truth, means[0],
                        covs[0])


class IsoGda(SymmetricGda):
    kind = "isotropic"

    def make_dataset(self, ops) -> datagen.Dataset:
        return ops.call("datagen.make_isotropic", datagen.make_isotropic, d=20, n=640,
                        seed=self.seed)


class RotGda(SymmetricGda):
    """Rotated task read back from CSV, as `gen-data` then `train --dataset
    file:` would."""

    kind = "rotated"

    def make_dataset(self, ops) -> datagen.Dataset:
        made = ops.call("datagen.make_rotated", datagen.make_rotated, d=100, n=640, seed=self.seed)
        path = self.scratch / "rotated.csv"
        ops.call("datagen.save_csv", datagen.save_csv, made, path)
        self.csv_bytes = path.stat().st_size
        ds = ops.call("datagen.load_csv", datagen.load_csv, path)
        same = (ds.samples.tobytes() == made.samples.tobytes()
                and ds.meta.truth.means.tobytes() == made.meta.truth.means.tobytes()
                and ds.meta.truth.covs.tobytes() == made.meta.truth.covs.tobytes())
        ops.check(same, "CSV round trip is not bit-exact")
        return ds

    def probe(self, ops) -> None:
        super().probe(ops)
        ops.call("gausscore.random_orthogonal", gausscore.random_orthogonal, self.ds.d,
                 self.replay_rng)


class KmixGda(GdaWorkload):
    """Four-component shared-covariance task: the generic GDA loop (untied,
    trained constants) and a shared-covariance EM, scored by matched
    Bures-W2."""

    kind = "kmix"

    def make_dataset(self, ops) -> datagen.Dataset:
        d, k = 20, 4
        axes = 4.0 * np.eye(d)[:2]
        return ops.call("datagen.make_k_mixture", datagen.make_k_mixture, d=d, k=k,
                        means=np.concatenate([axes, -axes]), cov=0.05 * np.eye(d), n=640,
                        seed=self.seed)

    def make_anchors(self, ops) -> objective.Anchors:
        vecs = ops.call("gausscore.sym_eigen", gausscore.sym_eigen, self.second).vectors
        rows = np.stack([vecs[:, 0], -vecs[:, 0], vecs[:, 1], -vecs[:, 1]])
        return objective.Anchors(d_vecs=rows, e_consts=np.zeros(4), lam=self.cfg.lam)

    def em_args(self) -> dict:
        return {"k": 4, "shared_cov": True, "seed": self.seed, "max_iters": EM_ITERS["kmix"],
                "tol": 0.0}

    def score(self, ops, means, covs) -> float:
        """Mean Bures-W2 over components matched by optimal assignment."""
        t = self.truth
        cost = np.array([[ops.call("metrics.bures_w2", metrics.bures_w2, t.means[i], t.covs[i],
                                   means[j], covs[j]) for j in range(t.k)] for i in range(t.k)])
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].mean())


def _verify() -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["verify"])
    return rc, out.getvalue()


class Oracles:
    """Exact inner solvers, stationarity, c-transform, quadrature and the
    transport oracles, in the strongly concave regime lam > E||X||^2 + E||G||^2
    that the GDA workloads (lam = 2) never reach."""

    probe = None
    bayes_draws = 20000
    # most of a pass is duality_gap_1d's grid c-transform, three times
    reference = ("rounds", "grid")

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def setup(self, ops) -> None:
        rng = gausscore.SeededRng(self.seed, stream=ORACLE_STREAM)
        ds = ops.call("datagen.make_isotropic", datagen.make_isotropic, d=20, n=640, seed=self.seed)
        xs, d = ds.samples, ds.d
        self.xs, self.truth = xs, ds.meta.truth
        draw = rng.split(1).gen
        self.gen = model.GeneratorParams(
            mode=model.SYMMETRIC2,
            cov_factor=np.sqrt(0.05) * (np.eye(d) + 0.05 * draw.standard_normal((d, d))),
            means=(0.9 + 0.1 * draw.uniform(size=d))[None, :])
        self.matched = model.GeneratorParams(mode=model.SYMMETRIC2,
                                             cov_factor=np.sqrt(0.03) * np.eye(d),
                                             means=self.truth.means[:1])
        # margin for both generators: the data against gen, the truth against itself
        need = max(float(np.mean(np.sum(xs ** 2, axis=1)))
                   + float(np.trace(model.gen_second_moment(self.gen))),
                   2.0 * float(np.trace(model.gen_second_moment(self.matched))))
        direction = ops.call("metrics.principal_direction", metrics.principal_direction, xs)
        self.anchors = objective.Anchors.symmetric(direction, 1.5 * need)
        self.z, self.labels = ops.call("model.draw_latents", model.draw_latents, self.gen, ds.n,
                                       rng.split(2))

        # a discriminator with curvature bound at most 0.4 < 1, built as `gatgmm verify` does
        draw = rng.split(3).gen
        quad = gausscore.symmetrize(draw.standard_normal((d, d)))
        quad *= 0.25 / np.max(np.abs(np.linalg.eigvalsh(quad)))
        rows = draw.standard_normal((4, d))
        rows *= np.sqrt(0.15 / (2.0 * np.max(np.sum(rows ** 2, axis=1))))
        self.critic = model.DiscriminatorParams(quad=quad, logits=rows, consts=np.zeros(4))
        self.critic_anchors = objective.Anchors(d_vecs=0.2 * draw.standard_normal((2, d)),
                                                e_consts=np.zeros(2), lam=1.0)
        self.eta = ops.call("model.disc_smoothness_bound", model.disc_smoothness_bound,
                            self.critic)

        draw = rng.split(4).gen
        self.cloud_a = draw.standard_normal((64, d))
        self.cloud_b = draw.standard_normal((64, d))
        rot = ops.call("datagen.make_rotated", datagen.make_rotated, d=100, n=640, seed=self.seed)
        self.rot_truth = rot.meta.truth
        self.rot_fit = (self.rot_truth.means[0] + 0.1 * draw.standard_normal(100),
                        1.1 * self.rot_truth.covs[0])

    def _split(self, ops, what: str, val: objective.ObjectiveValue) -> list[float]:
        ops.check(abs(val.total - (val.l1 + val.l2)) <= 1e-6 and val.l1 >= -1e-9
                  and val.l2 >= -1e-9, f"{what}: total {val.total} != l1 + l2 or a block < 0")
        return [val.total, val.l1, val.l2]

    def run_pass(self, ops) -> dict:
        xs, a, seed = self.xs, self.anchors, self.seed
        out: list[float] = []
        for side, kwargs in (("latent", {"z_eval": self.z, "labels": self.labels}),
                             ("quadrature", {})):
            _, val = ops.call("objective.inner_max_solve", objective.inner_max_solve, self.gen, xs,
                              a, **kwargs)
            out += self._split(ops, f"inner_max_solve ({side} side)", val)
        _, val = ops.call("objective.inner_max_solve_population",
                          objective.inner_max_solve_population, self.gen, self.truth.means[0],
                          self.truth.covs[0], a)
        out += self._split(ops, "inner_max_solve_population", val)

        at_truth = ops.call("optimizer.stationarity_grad_norm", optimizer.stationarity_grad_norm,
                            self.matched, self.truth, a, tol_inner=1e-10)
        off_truth = ops.call("optimizer.stationarity_grad_norm", optimizer.stationarity_grad_norm,
                             self.gen, xs, a)
        ops.check(at_truth <= 1e-3 < off_truth,
                  f"stationarity norm {at_truth:.3g} at the truth, {off_truth:.3g} off it")
        out += [at_truth, off_truth]

        ct = ops.call("objective.c_transform_batch", objective.c_transform_batch, self.critic, xs)
        bound = ops.call("objective.c_transform_upper_bound", objective.c_transform_upper_bound,
                         self.critic, self.critic_anchors, xs, self.eta)
        ops.check(float(np.mean(ct)) <= bound,
                  f"c-transform mean {np.mean(ct):.6g} above its bound {bound:.6g}")
        out += [float(np.mean(ct)), bound]

        quad = [ops.call("objective.gh_expect", objective.gh_expect, mean, 0.9, kind)
                for mean in (0.0, 0.7) for kind in ("tanh", "tanh_prime", "logcosh")]
        ops.check(abs(quad[0]) <= 1e-12 and quad[2] > 0.0,
                  "E tanh(0.9 Z) is not 0 or E logcosh is not positive")
        out += quad

        dual = ops.call("transport.duality_gap_1d", transport.duality_gap_1d, 2.0, 1.0, 2.3, 0.8,
                        seed=seed)
        ops.check(dual.dual <= dual.w2 + 2.0 * dual.se and dual.gap <= dual.bound,
                  f"duality sandwich fails: {dual}")
        out += [dual.dual, dual.w2, dual.bound]

        ca, cb = self.cloud_a, self.cloud_b
        w = ops.call("transport.w2_assignment_exact", transport.w2_assignment_exact, ca, cb)
        identity = float(np.mean(0.5 * np.sum((ca - cb) ** 2, axis=1)))
        w_1d = ops.call("transport.w2_assignment_exact", transport.w2_assignment_exact,
                        ca[:, :1], cb[:, :1])
        w_sorted = ops.call("transport.w2_1d_exact", transport.w2_1d_exact, ca[:, 0], cb[:, 0])
        ops.check(0.0 <= w <= identity + 1e-12 and abs(w_1d - w_sorted) <= 1e-12,
                  "assignment oracle disagrees with the identity or sorted matching")
        out += [w, w_1d]

        mixture = em.GmmParams.symmetric2(np.array([1.0]), np.array([[1.0]]))
        pe = ops.call("transport.bayes_error", transport.bayes_error, mixture, self.bayes_draws,
                      gausscore.SeededRng(seed, stream=BAYES_STREAM))
        exact = 0.5 * math.erfc(1.0 / math.sqrt(2.0))  # Phi(-1)
        ops.check(abs(pe - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / self.bayes_draws),
                  f"Bayes error {pe} far from Phi(-1) = {exact:.6f}")
        out.append(pe)

        t = self.rot_truth
        zero = ops.call("metrics.gmm_objective", metrics.gmm_objective, t, t.means[0], t.covs[0])
        off = ops.call("metrics.gmm_objective", metrics.gmm_objective, t, *self.rot_fit)
        ops.check(zero <= 1e-8 and np.isfinite(off) and off > 0.0,
                  f"gmm_objective {zero:.3g} at the truth, {off:.3g} off it")
        out += [zero, off]

        rc, text = ops.call("cli.verify", _verify)
        ops.check(rc == 0, f"gatgmm verify exited {rc}: {text.strip().splitlines()[-1:]}")
        return {"digest": digest(np.array(out)), "rc": rc}

    def check(self, ops, results: list[dict]) -> None:
        ops.check(all(r["digest"] == results[0]["digest"] for r in results),
                  "oracle outputs differ between passes on the same inputs")


WORKLOADS = {"iso-gda": IsoGda, "rot-gda": RotGda, "kmix-gda": KmixGda, "oracles": Oracles}
