import json
import re
import sys
import threading

import numpy as np
import pytest

from gatgmm import optimizer
from gatgmm.em import GmmParams
from gatgmm.errors import Diverged, InfeasibleRegime, InvalidInput
from gatgmm.gausscore import SeededRng, random_orthogonal, symmetrize
from gatgmm.model import (
    SHARED_COV,
    SYMMETRIC2,
    DiscriminatorParams,
    GeneratorParams,
    disc_vec,
    disc_with_vec,
    draw_latents,
    gen_apply,
)
from gatgmm.objective import (
    Anchors,
    LatentMoments,
    SampleMoments,
    TiedGame,
    disc_block_value_and_grads,
    minimax_value_and_grads,
)
from gatgmm.optimizer import (
    TrainConfig,
    init_params,
    project_to_feasible,
    stationarity_grad_norm,
    guaranteed_stepsizes,
    train_gda,
)


def test_guaranteed_steps_hand_values():
    steps = guaranteed_stepsizes(lam=4.0, eta=1.0, k=2, max_anchor_normsq=1.0)
    assert steps.alpha_max == pytest.approx(1.0 / 6.0)
    assert steps.lipschitz == pytest.approx(49.5)
    assert steps.kappa == pytest.approx(24.75)
    assert steps.alpha_min == pytest.approx(1.0 / (24.75**2 * 49.5))
    assert steps.kappa_alt == pytest.approx(3.0)


def test_guaranteed_steps_boundary_raises():
    with pytest.raises(InfeasibleRegime):
        guaranteed_stepsizes(lam=2.0, eta=1.0, k=2, max_anchor_normsq=1.0)


def test_guaranteed_steps_anchor_linearity():
    base = guaranteed_stepsizes(4.0, 1.0, 3, 0.7).lipschitz
    doubled = guaranteed_stepsizes(4.0, 1.0, 3, 1.4).lipschitz
    assert doubled - base == pytest.approx(10 * 4 * 0.7)


def test_init_params_contracts():
    rng = SeededRng(3)
    g, dd = init_params(6, SYMMETRIC2, sigma_init=0.4, rng=rng)
    assert np.all(np.abs(g.means) < 0.5)
    assert dd.tied
    assert np.allclose(dd.quad, dd.quad.T)
    g0, _ = init_params(6, SYMMETRIC2, sigma_init=0.0, rng=SeededRng(4))
    assert np.allclose(g0.cov_factor, 0.0)
    ga, _ = init_params(6, SYMMETRIC2, sigma_init=0.4, rng=SeededRng(5))
    gb, _ = init_params(6, SYMMETRIC2, sigma_init=0.4, rng=SeededRng(5))
    assert np.array_equal(ga.cov_factor, gb.cov_factor)


def test_train_config_ties_the_symmetric_mode():
    assert TrainConfig().tied
    assert not TrainConfig(mode=SHARED_COV, k=4).tied


def test_project_to_feasible():
    g = GeneratorParams(mode=SYMMETRIC2, cov_factor=2.0 * np.eye(2),
                        means=np.array([[3.0, 0.0]]))
    eta = 5.0
    proj = project_to_feasible(g, eta)
    total = np.sum(proj.cov_factor**2) + np.max(np.sum(proj.means**2, axis=1))
    assert total + 1.0 <= eta + 1e-10
    small = GeneratorParams(mode=SYMMETRIC2, cov_factor=0.1 * np.eye(2),
                            means=np.array([[0.2, 0.0]]))
    assert project_to_feasible(small, eta) is small
    with pytest.raises(InvalidInput):
        project_to_feasible(g, 0.5)


def test_train_atoms_recovers_mean():
    mu = np.array([1.0, 0.5])
    xs = np.concatenate([np.tile(mu, (32, 1)), np.tile(-mu, (32, 1))])
    truth = GmmParams.symmetric2(mu, np.zeros((2, 2)))
    cfg = TrainConfig(max_iters=3000, lr_gen=5e-3, lr_disc=5e-2, lam=1.0,
                      seed=0, eval_every=3000, sigma_init=0.0)
    anchors = Anchors.symmetric(mu / np.linalg.norm(mu), lam=1.0)
    rep = train_gda(xs, cfg, anchors, truth=truth)
    assert rep.iterates[-1].gmm_objective <= 1e-3


def test_train_zero_learning_rates_leave_params():
    xs = np.random.default_rng(0).standard_normal((64, 3)) + 1.0
    cfg = TrainConfig(max_iters=50, lr_gen=0.0, lr_disc=0.0, lam=1.0, seed=11,
                      eval_every=10, sigma_init=0.3)
    anchors = Anchors.symmetric(np.ones(3), lam=1.0)
    rep = train_gda(xs, cfg, anchors)
    g0, dd0 = init_params(3, SYMMETRIC2, 0.3, SeededRng(11).split(1))
    assert np.array_equal(rep.final_gen.cov_factor, g0.cov_factor)
    assert np.array_equal(rep.final_gen.means, g0.means)
    assert np.array_equal(rep.final_disc.quad, dd0.quad)
    assert len(rep.iterates) == 5


def test_train_deterministic_replay():
    xs = np.random.default_rng(1).standard_normal((64, 2)) + np.array([1.5, 0.0])
    cfg = TrainConfig(max_iters=300, lr_gen=1e-2, lr_disc=1e-1, lam=2.0, seed=21,
                      eval_every=100, sigma_init=0.2)
    anchors = Anchors.symmetric(np.array([1.0, 0.0]), lam=2.0)
    r1 = train_gda(xs, cfg, anchors)
    r2 = train_gda(xs, cfg, anchors)
    assert np.array_equal(r1.final_gen.cov_factor, r2.final_gen.cov_factor)
    assert np.array_equal(r1.final_gen.means, r2.final_gen.means)
    assert np.array_equal(r1.final_disc.logits, r2.final_disc.logits)
    objs1 = [r.objective for r in r1.iterates]
    objs2 = [r.objective for r in r2.iterates]
    assert objs1 == objs2


def test_train_projection_keeps_iterates_feasible():
    xs = np.random.default_rng(2).standard_normal((64, 2)) * 0.2
    eta = 1.5
    cfg = TrainConfig(max_iters=200, lr_gen=5e-2, lr_disc=1e-1, lam=4.0, seed=3,
                      eval_every=200, sigma_init=0.3, eta=eta)
    anchors = Anchors.symmetric(np.array([0.5, 0.0]), lam=4.0)
    rep = train_gda(xs, cfg, anchors)
    g = rep.final_gen
    total = np.sum(g.cov_factor**2) + np.max(np.sum(g.means**2, axis=1))
    assert total + 1.0 <= eta + 1e-10


def test_single_disc_step_is_ascent():
    # one alpha_max ascent step on the discriminator block does not decrease
    # the objective for a frozen generator (feasible regime lam > 2 eta)
    rng = np.random.default_rng(4)
    eta = 0.5
    lam = 4.0 * eta
    alpha_max = 1.0 / (lam + 2 * eta)
    failures = 0
    for trial in range(50):
        d = int(rng.integers(1, 4))
        g = GeneratorParams(mode=SYMMETRIC2,
                            cov_factor=0.1 * rng.standard_normal((d, d)),
                            means=0.2 * rng.standard_normal((1, d)))
        dd = DiscriminatorParams.tied_symmetric(
            symmetrize(0.2 * rng.standard_normal((d, d))),
            0.3 * rng.standard_normal(d), 0.3 * rng.standard_normal(d))
        anchors = Anchors.symmetric(0.3 * rng.standard_normal(d), lam=lam)
        xs = 0.3 * rng.standard_normal((32, d))
        z = rng.standard_normal((32, d))
        labels = rng.integers(0, 2, 32) * 2 - 1
        before, gp = minimax_value_and_grads(g, dd, anchors, xs, z, labels)
        vec = disc_vec(dd)
        grad = np.concatenate([gp.quad.ravel(), gp.logits.ravel()])
        stepped = disc_with_vec(dd, vec + alpha_max * grad)
        after, _ = minimax_value_and_grads(g, stepped, anchors, xs, z, labels)
        if after < before - 1e-12:
            failures += 1
    assert failures == 0


def test_stationarity_at_truth_and_perturbed():
    mu_x = np.array([1.2, 0.4])
    cov_x = np.diag([0.04, 0.06])
    truth = GmmParams.symmetric2(mu_x, cov_x)
    g_true = GeneratorParams(mode=SYMMETRIC2,
                             cov_factor=np.diag(np.sqrt(np.diag(cov_x))),
                             means=mu_x[None, :])
    anchors = Anchors.symmetric(mu_x / np.linalg.norm(mu_x), lam=8.0)
    at_truth = stationarity_grad_norm(g_true, truth, anchors, tol_inner=1e-10)
    assert at_truth <= 1e-3
    rng = np.random.default_rng(5)
    u = rng.standard_normal(2)
    u /= np.linalg.norm(u)
    g_off = GeneratorParams(mode=SYMMETRIC2, cov_factor=g_true.cov_factor,
                            means=(mu_x + 0.5 * u)[None, :])
    off = stationarity_grad_norm(g_off, truth, anchors, tol_inner=1e-10)
    assert off >= 10 * max(at_truth, 1e-5)


def test_stationarity_refuses_an_unmirrored_truth():
    # the population side is (1/2) N(mu, S) + (1/2) N(-mu, S): any other truth is refused
    truth = GmmParams(weights=np.array([0.5, 0.5]), means=np.array([[1.0, 0.0], [0.0, 1.0]]),
                      covs=np.stack([0.05 * np.eye(2)] * 2))
    g = GeneratorParams(mode=SYMMETRIC2, cov_factor=0.2 * np.eye(2), means=np.array([[1.0, 0.0]]))
    with pytest.raises(InvalidInput):
        stationarity_grad_norm(g, truth, Anchors.symmetric(np.array([1.0, 0.0]), lam=8.0))


def test_stationarity_rotation_equivariance():
    mu_x = np.array([1.0, 0.3, -0.2])
    cov_x = np.diag([0.05, 0.08, 0.03])
    truth = GmmParams.symmetric2(mu_x, cov_x)
    g = GeneratorParams(mode=SYMMETRIC2, cov_factor=np.diag([0.2, 0.25, 0.15]),
                        means=np.array([[0.8, 0.4, 0.0]]))
    anchors = Anchors.symmetric(np.array([0.9, 0.2, 0.1]), lam=8.0)
    base = stationarity_grad_norm(g, truth, anchors, tol_inner=1e-10)
    q = random_orthogonal(3, SeededRng(9))
    truth_r = GmmParams.symmetric2(q @ mu_x, symmetrize(q @ cov_x @ q.T))
    g_r = GeneratorParams(mode=SYMMETRIC2, cov_factor=q @ g.cov_factor,
                          means=(q @ g.means[0])[None, :])
    anchors_r = Anchors.symmetric(q @ anchors.d_vecs[0], lam=8.0)
    rotated = stationarity_grad_norm(g_r, truth_r, anchors_r, tol_inner=1e-10)
    assert rotated == pytest.approx(base, abs=1e-8)


def test_fast_loop_matches_generic_updates():
    # replay the raw-array loop against a step-by-step reconstruction built
    # from the block-gradient functions; trajectories must coincide
    from gatgmm.model import DiscriminatorParams as DP
    from gatgmm.objective import disc_block_value_and_grads, gen_block_grads
    from gatgmm.model import gen_apply

    rng = np.random.default_rng(7)
    xs = rng.standard_normal((48, 3)) + np.array([1.2, 0.0, -0.4])
    cfg = TrainConfig(max_iters=100, lr_gen=1e-2, lr_disc=1e-1, lam=2.0, seed=13,
                      eval_every=100, sigma_init=0.2)
    anchors = Anchors.symmetric(np.array([0.9, 0.1, -0.2]), lam=2.0)
    rep = train_gda(xs, cfg, anchors)

    g, dd = init_params(3, SYMMETRIC2, 0.2, SeededRng(13).split(1))
    z_rng = SeededRng(13).split(2)
    for it in range(1, 101):
        if it > 50:  # the second half of the run pairs its latents (z, -z)
            half = z_rng.gen.standard_normal((24, 3))
            z = np.concatenate([half, -half])
        else:
            z = z_rng.gen.standard_normal((48, 3))
        labels = z_rng.gen.integers(0, 2, size=48) * 2 - 1
        gx = gen_apply(g, z, labels)
        _, qg, lg, _ = disc_block_value_and_grads(dd, anchors, xs, gx, False)
        dd = DP.tied_symmetric(symmetrize(dd.quad + 0.1 * qg),
                               dd.logits[0] + 0.1 * lg[0], dd.logits[2] + 0.1 * lg[1])
        cg, mg = gen_block_grads(g, dd, gx, z, labels)
        g = GeneratorParams(mode=SYMMETRIC2, cov_factor=g.cov_factor - 1e-2 * cg,
                            means=g.means - 1e-2 * mg)
    assert np.allclose(rep.final_gen.cov_factor, g.cov_factor, atol=1e-9)
    assert np.allclose(rep.final_gen.means, g.means, atol=1e-9)
    assert np.allclose(rep.final_disc.logits, dd.logits, atol=1e-9)
    assert np.allclose(rep.final_disc.quad, dd.quad, atol=1e-9)


def test_train_report_json_shape():
    xs = np.random.default_rng(6).standard_normal((32, 2)) + 1.0
    cfg = TrainConfig(max_iters=40, lr_gen=1e-3, lr_disc=1e-2, lam=1.0, seed=0,
                      eval_every=20, sigma_init=0.2)
    anchors = Anchors.symmetric(np.ones(2), lam=1.0)
    rep = train_gda(xs, cfg, anchors)
    out = rep.to_json()
    assert "iterates" in out and "final_params" in out
    assert "wall_clock_seconds" not in out
    assert rep.wall_clock_seconds > 0
    assert [r["iteration"] for r in out["iterates"]] == [20, 40]


def _rel(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


def _replay(xs, cfg, anchors):
    """Replay train_gda's draws through the block gradients
    (disc_block_value_and_grads, then minimax_value_and_grads for the
    generator step and the eval value); in the tied symmetric mode also
    measure the largest relative gap of TiedGame to them over every
    step."""
    n, d = xs.shape
    root = SeededRng(cfg.seed)
    g, dd = init_params(d, cfg.mode, cfg.sigma_init, root.split(1), k=cfg.k)
    z_rng, batch_rng = root.split(2), root.split(3)
    m = cfg.batch_size if 0 < cfg.batch_size < n else n
    worst, values, norms = 0.0, [], []
    for it in range(1, cfg.max_iters + 1):
        xb = xs if m == n else xs[batch_rng.gen.integers(0, n, size=m)]
        if cfg.mode == SYMMETRIC2 and it > cfg.max_iters // 2:  # antithetic pairs (z, -z)
            half = z_rng.gen.standard_normal(((m + 1) // 2, d))
            z = np.concatenate([half, -half])[:m]
            labels = z_rng.gen.integers(0, 2, size=m) * 2 - 1
        else:
            z, labels = draw_latents(g, m, z_rng)
        gx = gen_apply(g, z, labels)
        if dd.tied:
            rnd = TiedGame(anchors, SampleMoments(xb),
                           LatentMoments(g.cov_factor, g.means[0], z))
        for _ in range(cfg.disc_steps_per_gen_step):
            _, quad_grad, logit_grads, const_grads = disc_block_value_and_grads(
                dd, anchors, xb, gx, cfg.mode == SHARED_COV)
            quad = symmetrize(dd.quad + cfg.lr_disc * quad_grad)
            if dd.tied:
                mq, ml, _ = rnd.disc_grads(dd.quad, dd.free_rows, dd.consts)
                worst = max(worst, _rel(mq, quad_grad), _rel(ml, logit_grads))
            consts = dd.consts if const_grads is None else dd.consts + cfg.lr_disc * const_grads
            dd = DiscriminatorParams.from_free(quad, dd.free_rows + cfg.lr_disc * logit_grads,
                                               consts, dd.tied)
        value, gp = minimax_value_and_grads(g, dd, anchors, xb, z, labels)
        if dd.tied:
            rows = dd.free_rows
            cov_grad, means_grad = rnd.gen_grads(dd.quad, rows, dd.consts)
            worst = max(worst, _rel(cov_grad, gp.gen_cov_factor),
                        _rel(means_grad, gp.gen_means),
                        _rel(rnd.value(dd.quad, rows, dd.consts), value))
        values.append(value)
        norms.append(float(np.sqrt(np.sum(gp.gen_cov_factor ** 2) + np.sum(gp.gen_means ** 2))))
        g = GeneratorParams(mode=cfg.mode,
                            cov_factor=g.cov_factor - cfg.lr_gen * gp.gen_cov_factor,
                            means=g.means - cfg.lr_gen * gp.gen_means)
        if cfg.eta is not None:
            g = project_to_feasible(g, cfg.eta)
    return g, dd, worst, values, norms


@pytest.mark.parametrize("d, n, overrides", [
    (3, 48, dict()),  # full batch, even m
    (3, 48, dict(batch_size=25)),  # odd m: the antithetic draw truncates a pair
    (3, 48, dict(disc_steps_per_gen_step=2, batch_size=31)),
    (3, 48, dict(eta=1.3)),
    (100, 64, dict(batch_size=33, disc_steps_per_gen_step=2)),
    # the generic block round: its eval objective is F after the last ascent step too
    (3, 48, dict(mode=SHARED_COV, k=4, disc_steps_per_gen_step=2)),
    # the generic block round on minibatches of odd size
    (3, 48, dict(mode=SHARED_COV, k=4, batch_size=25)),
])
def test_moment_round_matches_block_gradients(d, n, overrides):
    # lam = 2 < E||X||^2 here, so the eval points report the minibatch norm
    rng = np.random.default_rng(d)
    mu = np.linspace(1.2, -0.4, d)
    signs = rng.integers(0, 2, size=n)[:, None] * 2 - 1
    xs = signs * (mu + 0.3 * rng.standard_normal((n, d)))
    cfg = TrainConfig(max_iters=12, lr_gen=5e-2, lr_disc=1e-1, lam=2.0, seed=5,
                      eval_every=4, sigma_init=0.2, **overrides)
    u = mu / np.linalg.norm(mu)
    if cfg.mode == SHARED_COV:
        v = np.eye(d)[1]
        anchors = Anchors(d_vecs=np.stack([u, -u, v, -v]), e_consts=np.zeros(4), lam=2.0)
    else:
        anchors = Anchors.symmetric(u, lam=2.0)
    g, dd, worst, values, norms = _replay(xs, cfg, anchors)
    assert worst <= 1e-12

    rep = train_gda(xs, cfg, anchors)
    assert _rel(rep.final_gen.cov_factor, g.cov_factor) <= 1e-10
    assert _rel(rep.final_gen.means, g.means) <= 1e-10
    assert _rel(rep.final_disc.quad, dd.quad) <= 1e-10
    assert _rel(rep.final_disc.logits, dd.logits) <= 1e-10
    assert np.allclose(rep.final_disc.consts, dd.consts, rtol=1e-10, atol=1e-14)
    assert [r.iteration for r in rep.iterates] == [4, 8, 12]
    for r in rep.iterates:
        assert r.objective == pytest.approx(values[r.iteration - 1], rel=1e-10)
        assert r.grad_norm == pytest.approx(norms[r.iteration - 1], rel=1e-10)
    if cfg.eta is not None:  # the projection was active at the end
        total = np.sum(g.cov_factor ** 2) + np.sum(g.means ** 2)
        assert total + 1.0 == pytest.approx(cfg.eta, rel=1e-12)


@pytest.mark.parametrize("fields", [
    dict(eval_every=0),
    dict(eta=1.0),
    dict(eta=0.5),
    dict(k=1),
    dict(max_iters=2.5),
    dict(lr_gen="0.1"),
    dict(seed=True),
    dict(sigma_init=[0.1]),
    dict(disc_steps_per_gen_step=0),
    dict(lr_gen=float("nan")),
    dict(lam=float("inf")),
    dict(batch_size=-3),
    dict(max_iters=-5),
])
def test_train_config_rejects_bad_fields(fields):
    with pytest.raises(InvalidInput):
        TrainConfig(**fields)


def test_train_rejects_anchor_dimension_mismatch():
    xs = np.random.default_rng(8).standard_normal((32, 3)) + 1.0
    with pytest.raises(InvalidInput, match="dimension"):
        train_gda(xs, TrainConfig(max_iters=5), Anchors.symmetric(np.ones(4), lam=2.0))


def test_train_rejects_nonfinite_data():
    xs = np.random.default_rng(9).standard_normal((32, 3)) + 1.0
    xs[7, 1] = np.nan
    with pytest.raises(InvalidInput, match="finite"):
        train_gda(xs, TrainConfig(max_iters=5), Anchors.symmetric(np.ones(3), lam=2.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lr", [1e7, 1e300])
@pytest.mark.parametrize("mode", ["symmetric2", "shared_cov"])
def test_runaway_steps_raise_diverged(lr, mode):
    # at lr = 1e7 every gradient and step stays finite until C C^T overflows
    # at an eval point; at lr = 1e300 the first generator step overflows the
    # parameters themselves
    cause = {1e7: "eval_cov", 1e300: "gen_step"}[lr]
    rng = np.random.default_rng(10)
    xs = rng.standard_normal((32, 3)) + np.array([2.0, 0.0, 0.0])
    xs[::2] *= -1.0
    cfg = TrainConfig(max_iters=50, eval_every=1, lr_gen=lr, lr_disc=lr, lam=0.5,
                      sigma_init=0.1, mode=mode)
    anchors = Anchors.symmetric(np.array([1.0, 0.0, 0.0]), lam=0.5)
    with pytest.raises(Diverged, match=re.escape(Diverged.CAUSES[cause])) as info:
        train_gda(xs, cfg, anchors)
    assert info.value.cause == cause


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["symmetric2", "shared_cov"])
def test_overflowing_discriminator_step_raises_diverged(mode):
    # only the discriminator step overflows, and the generator step that
    # follows reads the overflowed discriminator
    rng = np.random.default_rng(10)
    xs = rng.standard_normal((32, 3)) + np.array([2.0, 0.0, 0.0])
    xs[::2] *= -1.0
    cfg = TrainConfig(max_iters=50, eval_every=1, lr_gen=1e-3, lr_disc=1e308, lam=0.5,
                      sigma_init=0.1, mode=mode)
    with pytest.raises(Diverged, match=re.escape(Diverged.CAUSES["disc_step"])) as info:
        train_gda(xs, cfg, Anchors.symmetric(np.array([1.0, 0.0, 0.0]), lam=0.5))
    assert (info.value.cause, info.value.iteration) == ("disc_step", 1)


class _DrawFailed(Exception):
    pass


def _two_sided(d=3, n=32):
    rng = np.random.default_rng(10)
    xs = rng.standard_normal((n, d)) + np.eye(d)[0] * 2.0
    xs[::2] *= -1.0
    return xs, Anchors.symmetric(np.eye(d)[0], lam=0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("outcome", ["completes", "diverges", "draw_fails"])
def test_train_joins_its_draw_thread(monkeypatch, outcome):
    # the latents are drawn one round ahead on a worker thread: however the
    # run ends, the worker is gone afterwards, and a failing draw raises in
    # the caller without a further draw being started
    xs, anchors = _two_sided()
    lr = 1e300 if outcome == "diverges" else 1e-2
    cfg = TrainConfig(max_iters=20, eval_every=5, lr_gen=lr, lr_disc=lr, lam=0.5,
                      sigma_init=0.1)
    calls = []

    def draw(*args):
        calls.append(args)
        if outcome == "draw_fails" and len(calls) == 3:
            raise _DrawFailed("third draw")
        return draw_latents(*args)

    monkeypatch.setattr(optimizer, "draw_latents", draw)
    expected = {"completes": None, "diverges": Diverged, "draw_fails": _DrawFailed}[outcome]
    before = threading.active_count()
    if expected is None:
        assert len(train_gda(xs, cfg, anchors).iterates) == 4
    else:
        with pytest.raises(expected):
            train_gda(xs, cfg, anchors)
    assert threading.active_count() == before
    # the second half of the run draws antithetic pairs, without draw_latents
    assert len(calls) == {"completes": 10, "diverges": 2, "draw_fails": 3}[outcome]


def test_concurrent_trainings_match_a_single_run():
    # three runs on two cores, switching threads often: each run's draw
    # worker feeds only its own loop, so every run gives the serial bytes
    xs, anchors = _two_sided(d=8, n=48)
    cfg = TrainConfig(max_iters=60, eval_every=20, lr_gen=1e-2, lr_disc=1e-1, lam=0.5,
                      sigma_init=0.1, seed=3, batch_size=33)

    def result_bytes():
        return json.dumps(train_gda(xs, cfg, anchors).to_json()).encode()

    single = result_bytes()
    outs = [None] * 3

    def run(i):
        outs[i] = result_bytes()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert outs == [single] * 3
