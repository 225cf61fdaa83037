import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp, softmax

from gatgmm.errors import InvalidInput, NotCConcave, NotStronglyConcave
from gatgmm.gausscore import SeededRng, symmetrize
from gatgmm import objective
from gatgmm.model import (
    SHARED_COV,
    SYMMETRIC2,
    DiscriminatorParams,
    GeneratorParams,
    disc_grad_x_batch,
    disc_smoothness_bound,
    disc_value_batch,
    disc_vec,
    disc_with_vec,
    draw_latents,
    gen_apply,
    gen_second_moment,
    gen_vec,
    gen_with_vec,
    group_log_ratio,
)
from gatgmm.objective import (
    Anchors,
    BatchGame,
    GeneratorMoments,
    LatentMoments,
    MixtureMoments,
    SampleMoments,
    TiedGame,
    c_transform_batch,
    disc_block_value_and_grads,
    envelope_generator_grad,
    gen_block_grads,
    gh_expect,
    inner_max_solve,
    inner_max_solve_population,
    l1_value,
    minimax_value_and_grads,
    c_transform_upper_bound,
)
from gatgmm.optimizer import TrainConfig, init_params, stationarity_grad_norm, train_gda

FD_H = 1e-5
FD_REL = 1e-6


def sym2(cov, mu):
    return GeneratorParams(mode=SYMMETRIC2, cov_factor=np.asarray(cov, float),
                           means=np.asarray(mu, float)[None, :])


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


# --- Gauss-Hermite expectations --------------------------------------------


def test_gh_odd_integrand_vanishes():
    for std in (0.3, 1.0, 2.5):
        assert abs(gh_expect(0.0, std, "tanh")) <= 1e-12


def test_gh_point_mass():
    assert gh_expect(1.0, 0.0, "tanh") == pytest.approx(np.tanh(1.0), abs=1e-14)


def test_gh_matches_monte_carlo():
    rng = np.random.default_rng(0)
    n = 10**7
    z = rng.standard_normal(n)
    sample = np.tanh(2.0 + 1.0 * z)
    se = sample.std() / np.sqrt(n)
    assert abs(gh_expect(2.0, 1.0, "tanh") - sample.mean()) <= 3 * se


def test_gh_validates():
    with pytest.raises(InvalidInput):
        gh_expect(0.0, -1.0, "tanh")
    with pytest.raises(InvalidInput):
        gh_expect(0.0, 1.0, "sinh")
    with pytest.raises(InvalidInput):
        gh_expect(0.0, float("nan"), "tanh")


@pytest.mark.parametrize("shape", [(3,), (3, 2)])
def test_one_tanh_pass_matches_two_quadratures(shape):
    # the quadrature oracles read E tanh and E tanh' off one tanh pass; the
    # reference is one _gh call per kind at the same nodes, bit for bit
    rng = np.random.default_rng(4)
    gm = GeneratorMoments(sym2(0.5 * rng.standard_normal((3, 3)), rng.standard_normal(3)))
    b = rng.standard_normal(shape)
    m, s = gm._proj(b)
    e_tanh = objective._gh(m, s, "tanh")
    e_prime = objective._gh(m, s, "tanh_prime")
    zt, yt = gm.tanh_moments(b)
    assert np.array_equal(zt, gm.cross.T @ b * e_prime) and np.array_equal(yt, e_tanh)
    assert np.array_equal(gm.logcosh_grad(b),
                          np.multiply.outer(gm.mu, e_tanh) + gm.cov @ b * e_prime)


def test_tanh_moment_inequality_grid():
    # E[X] E[tanh X] - E[X]^2 E[tanh' X] >= 0, equality only at mu = 0
    for mu in np.arange(0.0, 3.01, 0.25):
        for std in (0.1, 0.5, 1.0, 2.0):
            val = mu * gh_expect(mu, std, "tanh") - mu**2 * gh_expect(mu, std, "tanh_prime")
            assert val >= -1e-10
            if mu == 0.0:
                assert abs(val) <= 1e-10
            else:
                assert val > 1e-10


def test_tanh_curvature_inequality_grid():
    # 2 E[tanh''] + E[tanh'''] <= 0 for mu >= 0
    for mu in np.arange(0.0, 3.01, 0.25):
        for std in (0.1, 0.5, 1.0, 2.0):
            val = 2 * gh_expect(mu, std, "tanh_pp") + gh_expect(mu, std, "tanh_ppp")
            assert val <= 1e-10


# --- moment oracles -----------------------------------------------------------


def _logcosh_ref(t):
    return np.logaddexp(t, -t) - np.log(2.0)


@pytest.mark.parametrize("d, r", [(1, 1), (3, 2), (20, 2)])
def test_latent_moments_match_formed_batch(d, r):
    rng = np.random.default_rng(30 + d)
    m = 57
    g = sym2(0.4 * rng.standard_normal((d, d)), 0.8 * rng.standard_normal(d))
    z, labels = rng.standard_normal((m, d)), rng.integers(0, 2, m) * 2 - 1
    lm = LatentMoments(g.cov_factor, g.means[0], z)
    gx = gen_apply(g, z, labels)  # the reference: the formed generated batch
    ref = SampleMoments(gx)
    y = labels[:, None].astype(float)
    b = rng.standard_normal((d, r))
    assert rel_err(lm.second, ref.second) <= 1e-12
    assert lm.mean_sq == pytest.approx(ref.mean_sq, rel=1e-12)
    assert rel_err(lm.cross, gx.T @ (y * z) / m) <= 1e-12
    assert rel_err(lm.gbar, np.mean(y * gx, axis=0)) <= 1e-12
    for bb in (b, b[:, 0]):  # a direction stack and one vector
        yt = y * np.tanh(gx @ bb.reshape(d, -1))
        zt, yt_mean = lm.tanh_moments(bb)
        assert rel_err(np.ravel(zt), np.ravel(z.T @ yt / m)) <= 1e-12
        assert rel_err(np.ravel(yt_mean), np.mean(yt, axis=0)) <= 1e-12
        assert rel_err(np.ravel(lm.logcosh_grad(bb)), np.ravel(ref.logcosh_grad(bb))) <= 1e-12
        assert rel_err(np.ravel(lm.logcosh_expect(bb)),
                       np.ravel(ref.logcosh_expect(bb))) <= 1e-12
    assert np.shape(lm.logcosh_grad(b[:, 0])) == (d,)
    assert isinstance(lm.logcosh_expect(b[:, 0]), float)


def test_generator_moments_match_large_latent_batch():
    # quadrature against a sampled oracle: m = 400 000 antithetic latents
    # (z, -z) with independent labels.  Each quantity is the mean of m
    # per-sample terms; the pair means are i.i.d., so their standard error
    # se gives the tolerance 6 se (+1e-12 for quadrature and rounding).
    d, m = 3, 400_000
    rng = np.random.default_rng(33)
    g = sym2(0.4 * rng.standard_normal((d, d)), 0.8 * rng.standard_normal(d))
    half = rng.standard_normal((m // 2, d))
    z = np.concatenate([half, -half])
    labels = rng.integers(0, 2, m) * 2 - 1
    b = 0.7 * rng.standard_normal((d, 2))
    lm = LatentMoments(g.cov_factor, g.means[0], z)
    gm = GeneratorMoments(g)

    gx = gen_apply(g, z, labels)
    proj = gx @ b
    yt = labels[:, None] * np.tanh(proj)
    terms = [  # (quadrature, sampled, per-sample terms)
        (gm.tanh_moments(b)[0], lm.tanh_moments(b)[0], z[:, :, None] * yt[:, None, :]),
        (gm.tanh_moments(b)[1], lm.tanh_moments(b)[1], yt),
        (gm.logcosh_grad(b), lm.logcosh_grad(b), gx[:, :, None] * np.tanh(proj)[:, None, :]),
        (gm.logcosh_expect(b), lm.logcosh_expect(b), _logcosh_ref(proj)),
    ]
    for quad, sampled, per in terms:
        pair = 0.5 * (per[:m // 2] + per[m // 2:])
        se = np.std(pair, axis=0) / np.sqrt(m // 2)
        assert np.allclose(sampled, np.mean(per, axis=0), rtol=1e-10, atol=1e-14)
        assert np.all(np.abs(quad - sampled) <= 6.0 * se + 1e-12)
    assert rel_err(gm.second, lm.second) <= 1e-2
    assert rel_err(gm.cross, lm.cross) <= 1e-2
    assert rel_err(gm.gbar, lm.gbar) <= 1e-2


# --- value and gradients ----------------------------------------------------


def random_instance(rng, d, mode=SYMMETRIC2, tied=True, k=4, n=24, m=24):
    if mode == SYMMETRIC2:
        g = sym2(0.5 * rng.standard_normal((d, d)), rng.standard_normal(d))
        quad = symmetrize(0.4 * rng.standard_normal((d, d)))
        if tied:
            dd = DiscriminatorParams.tied_symmetric(
                quad, 0.6 * rng.standard_normal(d), 0.6 * rng.standard_normal(d))
        else:
            dd = DiscriminatorParams(quad=quad, logits=0.6 * rng.standard_normal((4, d)),
                                     consts=np.zeros(4), tied=False)
        anchors = Anchors.symmetric(rng.standard_normal(d), lam=0.5 + rng.uniform())
        labels = rng.integers(0, 2, m) * 2 - 1
    else:
        g = GeneratorParams(mode=SHARED_COV, cov_factor=0.5 * rng.standard_normal((d, d)),
                            means=rng.standard_normal((k, d)))
        dd = DiscriminatorParams(quad=symmetrize(0.4 * rng.standard_normal((d, d))),
                                 logits=0.6 * rng.standard_normal((2 * k, d)),
                                 consts=0.3 * rng.standard_normal(2 * k), tied=False)
        anchors = Anchors(d_vecs=rng.standard_normal((k, d)),
                          e_consts=0.2 * rng.standard_normal(k),
                          lam=0.5 + rng.uniform())
        labels = rng.integers(0, k, m)
    xs = rng.standard_normal((n, d)) + 0.5
    z = rng.standard_normal((m, d))
    return g, dd, anchors, xs, z, labels


def test_value_zero_network():
    d = 3
    g = sym2(np.eye(d), np.ones(d))
    dd = DiscriminatorParams(quad=np.zeros((d, d)), logits=np.zeros((4, d)),
                             consts=np.zeros(4))
    d_vec = np.array([1.0, -2.0, 0.5])
    anchors = Anchors.symmetric(d_vec, lam=0.8)
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((10, d))
    z = rng.standard_normal((12, d))
    labels = np.ones(12, dtype=int)
    val, _ = minimax_value_and_grads(g, dd, anchors, xs, z, labels)
    assert val == pytest.approx(-0.5 * 0.8 * 4 * np.sum(d_vec**2))
    anchors0 = Anchors.symmetric(np.zeros(d), lam=0.8)
    val0, _ = minimax_value_and_grads(g, dd, anchors0, xs, z, labels)
    assert val0 == pytest.approx(0.0, abs=1e-15)


def test_quad_gradient_matched_batches():
    d = 2
    g = sym2(np.eye(d), np.ones(d))
    dd = DiscriminatorParams(quad=np.zeros((d, d)), logits=np.zeros((4, d)),
                             consts=np.zeros(4))
    anchors = Anchors.symmetric(np.zeros(d), lam=1.0)
    rng = np.random.default_rng(1)
    z = rng.standard_normal((16, d))
    labels = rng.integers(0, 2, 16) * 2 - 1
    xs = gen_apply(g, z, labels)
    _, gp = minimax_value_and_grads(g, dd, anchors, xs, z, labels)
    assert np.allclose(gp.quad, 0.0, atol=1e-14)


def _fd_check_all_blocks(g, dd, anchors, xs, z, labels):
    include_c = g.mode == SHARED_COV
    val, gp = minimax_value_and_grads(g, dd, anchors, xs, z, labels)

    dvec = disc_vec(dd, include_consts=include_c)
    danal = np.concatenate([gp.quad.ravel(), gp.logits.ravel()]
                           + ([gp.consts] if include_c else []))
    fd = np.zeros_like(dvec)
    for i in range(dvec.size):
        vp, vm = dvec.copy(), dvec.copy()
        vp[i] += FD_H
        vm[i] -= FD_H
        fp, _ = minimax_value_and_grads(g, disc_with_vec(dd, vp, include_c), anchors, xs, z, labels)
        fm, _ = minimax_value_and_grads(g, disc_with_vec(dd, vm, include_c), anchors, xs, z, labels)
        fd[i] = (fp - fm) / (2 * FD_H)
    assert rel_err(danal, fd) <= FD_REL

    gvec = gen_vec(g)
    ganal = np.concatenate([gp.gen_cov_factor.ravel(), gp.gen_means.ravel()])
    fdg = np.zeros_like(gvec)
    for i in range(gvec.size):
        vp, vm = gvec.copy(), gvec.copy()
        vp[i] += FD_H
        vm[i] -= FD_H
        fp, _ = minimax_value_and_grads(gen_with_vec(g, vp), dd, anchors, xs, z, labels)
        fm, _ = minimax_value_and_grads(gen_with_vec(g, vm), dd, anchors, xs, z, labels)
        fdg[i] = (fp - fm) / (2 * FD_H)
    assert rel_err(ganal, fdg) <= FD_REL


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("mode,tied", [(SYMMETRIC2, True), (SYMMETRIC2, False), (SHARED_COV, False)])
def test_gradients_match_finite_differences(d, mode, tied):
    rng = np.random.default_rng(1000 + d + (0 if tied else 7) + (0 if mode == SYMMETRIC2 else 13))
    for _ in range(4):
        g, dd, anchors, xs, z, labels = random_instance(rng, d, mode=mode, tied=tied)
        _fd_check_all_blocks(g, dd, anchors, xs, z, labels)


def test_shape_mismatch_raises():
    rng = np.random.default_rng(0)
    g, dd, anchors, xs, z, labels = random_instance(rng, 3)
    with pytest.raises(InvalidInput):
        minimax_value_and_grads(g, dd, anchors, xs[:, :2], z, labels)
    with pytest.raises(InvalidInput):
        minimax_value_and_grads(g, dd, anchors, xs, z, labels[:-1])


# --- l1_value ----------------------------------------------------------------


def test_l1_matched_moments():
    g = sym2(np.eye(2), np.ones(2))
    assert l1_value(g, gen_second_moment(g), lam=1.3) == pytest.approx(0.0, abs=1e-15)


def test_l1_scalar_case():
    g = sym2(np.array([[1.0]]), np.array([0.0]))  # E[GG'] = 1
    assert l1_value(g, np.array([[2.0]]), lam=1.0) == pytest.approx(0.125)


def test_l1_scaling_in_lam():
    rng = np.random.default_rng(2)
    g = sym2(rng.standard_normal((3, 3)), rng.standard_normal(3))
    s = symmetrize(np.eye(3) * 2.0)
    assert l1_value(g, s, 2.0) == pytest.approx(0.5 * l1_value(g, s, 1.0))
    with pytest.raises(InvalidInput):
        l1_value(g, s, 0.0)


# --- inner maximization -------------------------------------------------------


def test_inner_max_matched_batches_zero_value():
    d = 2
    g = sym2(0.3 * np.eye(d), np.array([1.0, 0.5]))
    anchors = Anchors.symmetric(np.array([0.8, 0.4]), lam=8.0)
    rng = np.random.default_rng(3)
    z = rng.standard_normal((64, d))
    labels = rng.integers(0, 2, 64) * 2 - 1
    xs = gen_apply(g, z, labels)
    dd, val = inner_max_solve(g, xs, anchors, z_eval=z, labels=labels, tol=1e-10)
    assert val.l1 == pytest.approx(0.0, abs=1e-20)
    assert val.l2 == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(dd.logits[0], anchors.d_vecs[0], atol=1e-9)


def test_inner_max_large_lam_limit():
    d = 2
    g = sym2(0.3 * np.eye(d), np.array([1.0, 0.0]))
    rng = np.random.default_rng(4)
    xs = rng.standard_normal((32, d)) * 0.4 + np.array([1.0, 0.0]) * rng.choice([-1, 1], 32)[:, None]
    d_vec = np.array([0.7, -0.2])
    dd, _ = inner_max_solve(g, xs, Anchors.symmetric(d_vec, lam=1e6), tol=1e-4)
    assert np.allclose(dd.logits[0], d_vec, atol=1e-5)
    assert np.allclose(dd.quad, 0.0, atol=1e-5)


def test_inner_max_agrees_with_multistart_oracle():
    # tiny 1-D instance; oracle = closed-form A block + multistart BFGS on the
    # two free logit scalars of the tied problem
    d = 1
    g = sym2(np.array([[0.35]]), np.array([0.6]))
    xs = np.array([[-1.1], [-0.8], [-0.2], [0.3], [0.7], [1.0], [1.4], [-1.6]])
    anchors = Anchors.symmetric(np.array([0.9]), lam=6.0)
    gm = GeneratorMoments(g)
    xm = SampleMoments(xs)
    lam = anchors.lam
    d_vec = anchors.d_vecs[0]

    def neg_f(b, sign):
        b = np.asarray(b)
        delta = xm.logcosh_expect(b) - gm.logcosh_expect(b)
        return -(sign * delta - lam * np.sum((b - d_vec) ** 2))

    best = []
    rng = np.random.default_rng(5)
    for sign in (1.0, -1.0):
        vals = []
        for _ in range(10):
            x0 = rng.standard_normal(1) * 2
            res = minimize(neg_f, x0, args=(sign,), method="BFGS")
            vals.append(-res.fun)
        best.append(max(vals))
    l2_oracle = best[0] + best[1]
    l1_oracle = l1_value(g, xm.second, lam)

    dd, val = inner_max_solve(g, xs, anchors, tol=1e-12)
    assert val.l2 == pytest.approx(l2_oracle, abs=1e-6)
    assert val.total == pytest.approx(l1_oracle + l2_oracle, abs=1e-6)


def test_inner_max_decomposition_nonnegative_random():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = rng.integers(1, 4)
        g = sym2(0.3 * rng.standard_normal((d, d)), 0.6 * rng.standard_normal(d))
        mu_x = rng.standard_normal(d)
        cov_x = symmetrize(0.05 * np.eye(d))
        xs = SeededRng(int(rng.integers(1 << 30))).gen.standard_normal((40, d)) * 0.3 + mu_x
        xs = np.concatenate([xs, -xs])  # sign-symmetric batch
        lam = float(np.mean(np.sum(xs**2, axis=1))
                    + np.trace(gen_second_moment(g)) + 1.0 + rng.uniform())
        anchors = Anchors.symmetric(rng.standard_normal(d), lam=lam)
        dd, val = inner_max_solve(g, xs, anchors, tol=1e-10)
        assert val.l1 >= -1e-12
        assert val.l2 >= -1e-9
        assert val.total == pytest.approx(val.l1 + val.l2)


def test_inner_max_tied_equals_untied_on_symmetric_data():
    d = 2
    rng = np.random.default_rng(7)
    g = sym2(0.25 * np.eye(d), np.array([0.9, 0.2]))
    half = rng.standard_normal((30, d)) * 0.3 + np.array([1.0, 0.4])
    xs = np.concatenate([half, -half])
    z = rng.standard_normal((40, d))
    z_eval = np.concatenate([z, z])
    labels = np.concatenate([np.ones(40, dtype=int), -np.ones(40, dtype=int)])
    lam = float(np.mean(np.sum(xs**2, axis=1)) + np.trace(gen_second_moment(g))) + 0.5
    anchors = Anchors.symmetric(np.array([0.8, 0.1]), lam=lam)
    _, tied_val = inner_max_solve(g, xs, anchors, z_eval=z_eval, labels=labels, tol=1e-11)
    # the untied reference: the generic game on the symmetric generator
    _, untied_val = objective._inner_max(
        BatchGame(anchors, g, SampleMoments(xs), z_eval, labels), 1e-11, 100000)
    assert tied_val.total == pytest.approx(untied_val.total, abs=1e-7)


# --- generic round against the reference formulas ----------------------------


def _group_softmax_ref(rows, consts, xs):
    """Reference group log ratio and softmax weights: each group's logits
    sample-major, every reduction along axis 1."""
    k = rows.shape[0] // 2
    num = xs @ rows[:k].T + consts[:k]
    den = xs @ rows[k:].T + consts[k:]
    mn = np.max(num, axis=1, keepdims=True)
    md = np.max(den, axis=1, keepdims=True)
    en = np.exp(num - mn)
    ed = np.exp(den - md)
    sn = np.sum(en, axis=1, keepdims=True)
    sd = np.sum(ed, axis=1, keepdims=True)
    return (mn + np.log(sn))[:, 0] - (md + np.log(sd))[:, 0], en / sn, ed / sd


@pytest.mark.parametrize("n", [1, 5, 640])
@pytest.mark.parametrize("d", [1, 20, 100])
@pytest.mark.parametrize("k", [2, 4, 7, 8])
def test_group_log_ratio_matches_reference(k, d, n):
    rng = np.random.default_rng(100 * k + d + n)
    rows, consts = rng.standard_normal((2 * k, d)), rng.standard_normal(2 * k)
    xs = rng.standard_normal((n, d))
    lr, (qn, qd) = group_log_ratio(rows, consts, xs)
    ref = _group_softmax_ref(rows, consts, xs)
    assert lr.shape == (n,) and qn.shape == qd.shape == (n, k)
    for got, want in zip((lr, qn, qd), ref):
        if k <= 7:  # the slot sums add in the same order
            assert np.array_equal(got, want)
        else:
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def _means_grad_ref(s, labels, k):
    """Reference means gradient: a scatter-add of the input gradients."""
    out = np.zeros((k, s.shape[1]))
    np.add.at(out, labels, s)
    out *= -1.0 / s.shape[0]
    return out


def test_means_grad_matches_scatter_add_bitwise():
    rng = np.random.default_rng(31)
    d, k, m = 4, 3, 200
    g = GeneratorParams(mode=SHARED_COV, cov_factor=0.5 * np.eye(d),
                        means=rng.standard_normal((k, d)))
    dd = DiscriminatorParams(quad=symmetrize(0.1 * rng.standard_normal((d, d))),
                             logits=0.3 * rng.standard_normal((2 * k, d)),
                             consts=0.2 * rng.standard_normal(2 * k))
    z = rng.standard_normal((m, d))
    for labels in (rng.integers(0, k, size=m), 2 * rng.integers(0, 2, size=m)):
        gx = gen_apply(g, z, labels)
        cov_grad, means_grad = gen_block_grads(g, dd, gx, z, labels)
        s = disc_grad_x_batch(dd, gx)
        assert np.array_equal(means_grad, _means_grad_ref(s, labels, k))
        assert np.array_equal(cov_grad, -s.T @ z / m)
    assert not np.any(means_grad[1])  # label 1 is absent from the second batch


@pytest.mark.parametrize("mode", [SYMMETRIC2, SHARED_COV])
def test_batch_game_matches_the_public_blocks_bitwise(mode):
    # the game reads its own half gap and the unchecked arrays, not a
    # DiscriminatorParams, yet gives the public entries' numbers bit for bit
    rng = np.random.default_rng(33)
    d, k, m = 4, 2 if mode == SYMMETRIC2 else 3, 150
    g = GeneratorParams(mode=mode, cov_factor=0.5 * rng.standard_normal((d, d)),
                        means=rng.standard_normal((1 if mode == SYMMETRIC2 else k, d)))
    xs = rng.standard_normal((120, d)) + rng.standard_normal(d)
    z, labels = draw_latents(g, m, SeededRng(3))
    anchors = Anchors(d_vecs=0.3 * rng.standard_normal((k, d)),
                      e_consts=0.1 * rng.standard_normal(k), lam=0.7)
    dd = DiscriminatorParams(quad=symmetrize(0.1 * rng.standard_normal((d, d))),
                             logits=0.3 * rng.standard_normal((2 * k, d)),
                             consts=0.2 * rng.standard_normal(2 * k))
    game = BatchGame(anchors, g, SampleMoments(xs), z, labels)
    gx = gen_apply(g, z, labels)
    value, *grads = disc_block_value_and_grads(dd, anchors, xs, gx, mode == SHARED_COV,
                                               sx=symmetrize(xs.T @ xs / len(xs)))
    assert game.value(dd.quad, dd.logits, dd.consts) == value
    for got, want in zip(game.disc_grads(dd.quad, dd.logits, dd.consts), grads):
        assert got is want is None or np.array_equal(got, want)
    for got, want in zip(game.gen_grads(dd.quad, dd.logits, dd.consts),
                         gen_block_grads(g, dd, gx, z, labels)):
        assert np.array_equal(got, want)


def _train_shared_cov_ref(xs, cfg, anchors):
    """train_gda's full-batch shared-covariance loop (one discriminator step
    per round) written with the reference group softmax and scatter-add; the
    final (cov_factor, means, quad, logits, consts)."""
    n, d = xs.shape
    k, lam = cfg.k, anchors.lam
    root = SeededRng(cfg.seed)
    g, dd = init_params(d, SHARED_COV, cfg.sigma_init, root.split(1), k=k)
    z_rng = root.split(2)
    sv, se = anchors.slot_vectors(), anchors.slot_consts()
    sx = symmetrize(xs.T @ xs / n)
    cov, means, quad, rows, consts = g.cov_factor, g.means, dd.quad, dd.logits, dd.consts
    for _ in range(cfg.max_iters):
        z, labels = draw_latents(g, n, z_rng)
        gx = z @ cov.T + means[labels]
        half_gap = symmetrize(0.5 * (sx - symmetrize(gx.T @ gx / n)))
        _, qn_x, qd_x = _group_softmax_ref(rows, consts, xs)
        _, qn_g, qd_g = _group_softmax_ref(rows, consts, gx)
        row_grads = np.empty_like(rows)
        row_grads[:k] = qn_x.T @ xs / n - qn_g.T @ gx / n - lam * (rows[:k] - sv[:k])
        row_grads[k:] = -(qd_x.T @ xs / n) + qd_g.T @ gx / n - lam * (rows[k:] - sv[k:])
        const_grads = np.concatenate([
            np.mean(qn_x, axis=0) - np.mean(qn_g, axis=0),
            -np.mean(qd_x, axis=0) + np.mean(qd_g, axis=0),
        ]) - lam * (consts - se)
        quad = symmetrize(quad + cfg.lr_disc * (half_gap - lam * quad))
        rows = rows + cfg.lr_disc * row_grads
        consts = consts + cfg.lr_disc * const_grads
        _, qn, qd = _group_softmax_ref(rows, consts, gx)
        s = gx @ quad + qn @ rows[:k] - qd @ rows[k:]
        cov = cov - cfg.lr_gen * (-s.T @ z / n)
        means = means - cfg.lr_gen * _means_grad_ref(s, labels, k)
    return cov, means, quad, rows, consts


def test_shared_cov_training_matches_reference_loop():
    rng = np.random.default_rng(32)
    d, k = 5, 3
    centers = 2.0 * rng.standard_normal((k, d))
    xs = centers[rng.integers(0, k, size=90)] + 0.3 * rng.standard_normal((90, d))
    anchors = Anchors(d_vecs=0.3 * rng.standard_normal((k, d)),
                      e_consts=0.1 * rng.standard_normal(k), lam=0.5)
    cfg = TrainConfig(max_iters=50, lr_gen=2e-2, lr_disc=1e-1, lam=0.5, sigma_init=0.1,
                      mode=SHARED_COV, k=k, seed=5, eval_every=50)
    rep = train_gda(xs, cfg, anchors)
    got = (rep.final_gen.cov_factor, rep.final_gen.means, rep.final_disc.quad,
           rep.final_disc.logits, rep.final_disc.consts)
    for a, b in zip(got, _train_shared_cov_ref(xs, cfg, anchors)):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


def _log_ratio_ref(rows, consts, xs):
    logits = xs @ rows.T + consts
    return logsumexp(logits[:, :2], axis=1) - logsumexp(logits[:, 2:], axis=1)


def test_group_log_ratio_at_extreme_logits():
    # logits near +-800: exp() overflows unless each group is max-subtracted
    rng = np.random.default_rng(21)
    d = 2
    xs = 0.3 * rng.standard_normal((25, d)) + np.array([0.4, -0.1])
    quad = symmetrize(0.2 * rng.standard_normal((d, d)))
    rows = rng.standard_normal((4, d))
    consts = np.array([800.0, -790.0, 795.0, -805.0])
    dd = DiscriminatorParams(quad=quad, logits=rows, consts=consts)
    logits = xs @ rows.T + consts
    ref_val = 0.5 * np.sum((xs @ quad) * xs, axis=1) + _log_ratio_ref(rows, consts, xs)
    ref_grad = (xs @ quad + softmax(logits[:, :2], axis=1) @ rows[:2]
                - softmax(logits[:, 2:], axis=1) @ rows[2:])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        val = disc_value_batch(dd, xs)
        grad = disc_grad_x_batch(dd, xs)
    assert np.all(np.isfinite(val)) and np.all(np.isfinite(grad))
    assert np.max(np.abs(val - ref_val)) <= 1e-12 * np.max(np.abs(ref_val))
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))

    # untied symmetric inner maximum with slot constants (800, -800, 800, -800)
    g = sym2(0.3 * np.eye(d), np.array([0.5, 0.2]))
    z = rng.standard_normal((30, d))
    labels = rng.integers(0, 2, size=30) * 2 - 1
    lam = float(np.mean(np.sum(xs ** 2, axis=1)) + np.trace(gen_second_moment(g))) + 1.0
    anchors = Anchors(d_vecs=np.array([[0.6, 0.3], [-0.6, -0.3]]),
                      e_consts=np.array([800.0, -800.0]), lam=lam)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        dd, val = objective._inner_max(BatchGame(anchors, g, SampleMoments(xs), z, labels),
                                       1e-10, 100000)
    assert np.all(np.isfinite(dd.logits)) and np.isfinite(val.total)
    gap = (np.mean(_log_ratio_ref(dd.logits, dd.consts, xs))
           - np.mean(_log_ratio_ref(dd.logits, dd.consts, gen_apply(g, z, labels))))
    pen = (np.sum((dd.logits - anchors.slot_vectors()) ** 2)
           + np.sum((dd.consts - anchors.slot_consts()) ** 2))
    # the log ratios are differences of ~800-sized log-sum-exps
    assert val.l2 == pytest.approx(gap - 0.5 * lam * pen, abs=1e-12 * 800.0)


@pytest.mark.parametrize("mode, tied", [(SYMMETRIC2, True), (SYMMETRIC2, False),
                                        (SHARED_COV, False)])
def test_label_length_mismatch_is_invalid_input(mode, tied):
    rng = np.random.default_rng(22)
    d = 2
    z = rng.standard_normal((5, d))
    xs = 0.3 * rng.standard_normal((12, d))
    if mode == SYMMETRIC2:
        g = sym2(0.3 * np.eye(d), np.array([0.5, 0.2]))
        labels = np.array([1, -1, 1])
        anchors = Anchors.symmetric(np.array([0.6, 0.3]), lam=10.0)
    else:
        g = GeneratorParams(mode=SHARED_COV, cov_factor=0.3 * np.eye(d),
                            means=np.array([[0.5, 0.0], [0.0, 0.5], [-0.5, -0.5]]))
        labels = np.array([0, 1, 2])
        anchors = Anchors(d_vecs=np.eye(3, d), e_consts=np.zeros(3), lam=10.0)
    with pytest.raises(InvalidInput):
        gen_apply(g, z, labels)
    with pytest.raises(InvalidInput):
        if mode == SYMMETRIC2 and not tied:  # the untied game, reached only directly
            BatchGame(anchors, g, SampleMoments(xs), z, labels)
        else:
            inner_max_solve(g, xs, anchors, z_eval=z, labels=labels)


_MISMATCHES = ["x batch", "x batch, latent side", "x batch, untied", "anchors", "z_eval",
               "population mu_x", "population law", "stationarity batch", "envelope mixture",
               "anchor count", "anchor count, untied"]


@pytest.mark.parametrize("case", _MISMATCHES)
def test_dimension_mismatch_is_invalid_input(case):
    rng = np.random.default_rng(23)
    d = 2
    g = sym2(0.3 * np.eye(d), np.array([0.5, 0.2]))
    xs, wide = 0.3 * rng.standard_normal((12, d)), 0.3 * rng.standard_normal((12, d + 1))
    z, labels = rng.standard_normal((8, d)), rng.integers(0, 2, 8) * 2 - 1
    anchors = Anchors.symmetric(np.array([0.6, 0.3]), lam=10.0)
    cov2, cov3 = 0.1 * np.eye(d), 0.1 * np.eye(d + 1)
    calls = {
        "x batch": lambda: inner_max_solve(g, wide, anchors),
        "x batch, latent side": lambda: inner_max_solve(g, wide, anchors, z_eval=z, labels=labels),
        "x batch, untied": lambda: BatchGame(anchors, g, SampleMoments(wide), z, labels),
        "anchors": lambda: inner_max_solve(g, xs, Anchors.symmetric(np.ones(d + 1), lam=10.0)),
        "z_eval": lambda: inner_max_solve(g, xs, anchors, z_eval=rng.standard_normal((8, d + 1)),
                                          labels=labels),
        "population mu_x": lambda: inner_max_solve_population(g, np.ones(d + 1), cov2, anchors),
        "population law": lambda: inner_max_solve_population(g, np.ones(d + 1), cov3, anchors),
        "stationarity batch": lambda: stationarity_grad_norm(g, wide, anchors),
        "envelope mixture": lambda: envelope_generator_grad(
            g, MixtureMoments(np.ones(d + 1), cov2), anchors),
        "anchor count": lambda: inner_max_solve(
            g, xs, Anchors(d_vecs=np.ones((3, d)), e_consts=np.zeros(3), lam=10.0)),
        "anchor count, untied": lambda: BatchGame(
            Anchors(d_vecs=np.ones((3, d)), e_consts=np.zeros(3), lam=10.0), g,
            SampleMoments(xs), z, labels),
    }
    with pytest.raises(InvalidInput):
        calls[case]()


@pytest.mark.parametrize("side", ["tied latent", "tied quadrature", "population", "untied",
                                  "shared_cov"])
def test_inner_max_solution_maximizes_F(side):
    # D* zeroes F's block gradients, and the reported total is F(g, D*)
    rng = np.random.default_rng(24)
    d = 3
    g = sym2(0.3 * rng.standard_normal((d, d)), 0.6 * rng.standard_normal(d))
    noise = 0.3 * rng.standard_normal((30, d))
    centre = rng.standard_normal(d)
    half = noise + centre
    xs = np.concatenate([half, -half])
    z, labels = rng.standard_normal((40, d)), rng.integers(0, 2, 40) * 2 - 1
    lam = float(np.mean(np.sum(xs ** 2, axis=1)) + np.trace(gen_second_moment(g))) + 1.0
    anchors = Anchors.symmetric(rng.standard_normal(d), lam=lam)
    if side == "shared_cov":
        # the general maximizer with trained constants: their gradient vanishes too
        k = 3
        g = GeneratorParams(mode=SHARED_COV, cov_factor=0.3 * rng.standard_normal((d, d)),
                            means=0.6 * rng.standard_normal((k, d)))
        labels = rng.integers(0, k, 40)
        lam = float(np.mean(np.sum(xs ** 2, axis=1)) + np.trace(gen_second_moment(g))) + 1.0
        anchors = Anchors(d_vecs=rng.standard_normal((k, d)),
                          e_consts=0.5 * rng.standard_normal(k), lam=lam)
        dd, val = inner_max_solve(g, xs, anchors, z_eval=z, labels=labels, tol=1e-12)
        value, *grads = disc_block_value_and_grads(
            dd, anchors, xs, gen_apply(g, z, labels), train_consts=True)
        assert np.max(np.abs(dd.consts - anchors.slot_consts())) > 1e-3  # the constants moved
    elif side in ("tied quadrature", "population"):
        if side == "population":  # the law the sample xs is drawn from
            dd, val = inner_max_solve_population(g, centre, 0.09 * np.eye(d), anchors, tol=1e-12)
            xm = MixtureMoments(centre, 0.09 * np.eye(d))
        else:
            dd, val = inner_max_solve(g, xs, anchors, tol=1e-12)
            xm = SampleMoments(xs)
        game = TiedGame(anchors, xm, GeneratorMoments(g))
        rows = dd.free_rows
        value = game.value(dd.quad, rows)
        grads = game.disc_grads(dd.quad, rows)[:2]
    else:  # "untied" is the reference: the generic game on the symmetric generator
        dd, val = (inner_max_solve(g, xs, anchors, z_eval=z, labels=labels, tol=1e-12)
                   if side == "tied latent" else objective._inner_max(
                       BatchGame(anchors, g, SampleMoments(xs), z, labels), 1e-12, 100000))
        value, *grads, const_grads = disc_block_value_and_grads(
            dd, anchors, xs, gen_apply(g, z, labels), train_consts=False)
        assert const_grads is None
    assert max(float(np.max(np.abs(gr))) for gr in grads) <= 1e-9
    assert value == pytest.approx(val.total, abs=1e-12)
    assert val.total == pytest.approx(val.l1 + val.l2) and val.l1 > 1e-3


def test_inner_max_rejects_weak_concavity():
    g = sym2(np.eye(2), np.ones(2))
    xs = np.random.default_rng(8).standard_normal((16, 2)) + 2.0
    anchors = Anchors.symmetric(np.ones(2), lam=0.5)
    with pytest.raises(NotStronglyConcave) as err:
        inner_max_solve(g, xs, anchors)
    assert err.value.margin <= 0


# --- envelope gradient --------------------------------------------------------


def test_envelope_gradient_matches_fd_of_inner_max_total():
    d = 2
    mu_x = np.array([0.9, 0.3])
    cov_x = np.diag([0.05, 0.08])
    g = sym2(np.diag([0.3, 0.2]), np.array([0.7, 0.1]))
    xm = MixtureMoments(mu_x, cov_x)
    lam = 6.0
    anchors = Anchors.symmetric(np.array([1.0, 0.3]), lam=lam)
    grad_mu, grad_cov = envelope_generator_grad(g, xm, anchors, tol_inner=1e-12)
    analytic = np.concatenate([grad_cov.ravel(), grad_mu])

    def total(vec):
        gv = gen_with_vec(g, vec)
        _, val = inner_max_solve_population(gv, mu_x, cov_x, anchors, tol=1e-12)
        return val.total

    v0 = gen_vec(g)
    fd = np.zeros_like(v0)
    for i in range(v0.size):
        vp, vm = v0.copy(), v0.copy()
        vp[i] += FD_H
        vm[i] -= FD_H
        fd[i] = (total(vp) - total(vm)) / (2 * FD_H)
    assert rel_err(analytic, fd) <= 1e-5


# --- c-transform ---------------------------------------------------------------


def test_c_transform_zero_disc():
    dd = DiscriminatorParams(quad=np.zeros((2, 2)), logits=np.zeros((4, 2)),
                             consts=np.zeros(4))
    assert c_transform_batch(dd, [[1.0, -2.0]])[0] == pytest.approx(0.0, abs=1e-12)


def test_c_transform_scalar_quadratic():
    # D(x) = a x^2 / 2 with 0 < a < 1 has D^c(x) = a x^2 / (2 (1 - a))
    for a in (0.2, 0.5, 0.8):
        dd = DiscriminatorParams(quad=np.array([[a]]), logits=np.zeros((4, 1)),
                                 consts=np.zeros(4))
        for x in (0.0, 1.3, -2.0):
            expect = a * x**2 / (2 * (1 - a))
            assert c_transform_batch(dd, [[x]], tol=1e-10)[0] == pytest.approx(expect, abs=1e-7)


def test_c_transform_dominates_value_at_zero():
    rng = np.random.default_rng(9)
    quad = symmetrize(rng.standard_normal((2, 2)) * 0.1)
    dd = DiscriminatorParams.tied_symmetric(quad, rng.standard_normal(2) * 0.2,
                                            rng.standard_normal(2) * 0.2)
    x0 = np.zeros((1, 2))
    assert c_transform_batch(dd, x0)[0] >= disc_value_batch(dd, x0)[0] - 1e-12


def test_c_transform_rejects_steep_disc():
    dd = DiscriminatorParams(quad=1.5 * np.eye(2), logits=np.zeros((4, 2)),
                             consts=np.zeros(4))
    with pytest.raises(NotCConcave):
        c_transform_batch(dd, np.zeros((1, 2)))


# --- proposition-2-style bound ---------------------------------------------------


def feasible_disc(rng, d, eta):
    quad = symmetrize(rng.standard_normal((d, d)))
    w = np.linalg.eigvalsh(quad)
    quad *= 0.3 * eta / max(abs(w[0]), abs(w[-1]))
    b = rng.standard_normal((4, d))
    b *= np.sqrt(0.2 * eta / (2 * np.max(np.sum(b**2, axis=1))))
    return DiscriminatorParams(quad=quad, logits=b, consts=np.zeros(4))


def test_ct_bound_zero_case():
    d = 2
    dd = DiscriminatorParams(quad=np.zeros((d, d)), logits=np.zeros((4, d)),
                             consts=np.zeros(4))
    anchors = Anchors.symmetric(np.zeros(d), lam=1.0)
    xs = np.random.default_rng(10).standard_normal((50, d))
    bound = c_transform_upper_bound(dd, anchors, xs, eta=0.5)
    assert bound == pytest.approx(0.0, abs=1e-12)
    assert np.mean(c_transform_batch(dd, xs)) <= bound + 1e-12


def test_ct_bound_monotone_in_quad_norm():
    rng = np.random.default_rng(11)
    d = 2
    xs = rng.standard_normal((50, d))
    anchors = Anchors.symmetric(np.zeros(d), lam=1.0)
    b = np.zeros((4, d))
    prev = -np.inf
    for s in (0.0, 0.1, 0.2, 0.3):
        dd = DiscriminatorParams(quad=s * np.eye(d), logits=b, consts=np.zeros(4))
        cur = c_transform_upper_bound(dd, anchors, xs, eta=0.9)
        assert cur >= prev - 1e-12
        prev = cur


def test_ct_bound_dominates_mean_c_transform():
    rng = np.random.default_rng(12)
    d = 2
    for _ in range(25):
        eta = 0.9
        dd = feasible_disc(rng, d, eta)
        anchors = Anchors(d_vecs=rng.standard_normal((2, d)) * 0.2,
                          e_consts=np.zeros(2), lam=1.0)
        xs = rng.standard_normal((200, d))
        mean_ct = float(np.mean(c_transform_batch(dd, xs, tol=1e-9)))
        assert mean_ct <= c_transform_upper_bound(dd, anchors, xs, eta=eta) + 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no ascent on a bad batch
@pytest.mark.parametrize("bad", ["nan", "inf", "width"])
def test_c_transform_rejects_bad_batch(bad):
    d = 2
    dd = feasible_disc(np.random.default_rng(13), d, 0.9)
    anchors = Anchors.symmetric(np.zeros(d), lam=1.0)
    xs = np.random.default_rng(14).standard_normal((20, d))
    if bad == "width":
        xs = np.ones((20, d + 1))
    else:
        xs[3, 1] = float(bad)
    with pytest.raises(InvalidInput):
        c_transform_batch(dd, xs)
    with pytest.raises(InvalidInput):
        c_transform_upper_bound(dd, anchors, xs, eta=0.9)


def test_ct_bound_validates_eta():
    d = 2
    dd = DiscriminatorParams(quad=np.zeros((d, d)), logits=np.zeros((4, d)),
                             consts=np.zeros(4))
    anchors = Anchors.symmetric(np.zeros(d), lam=1.0)
    with pytest.raises(InvalidInput):
        c_transform_upper_bound(dd, anchors, np.zeros((5, d)), eta=1.0)


# --- contraction solvers against the fixed-step reference ---------------------------


def reference_ascent(grad, x, step, tol, max_iters):
    """Plain fixed-step ascent x <- x + step grad(x), the solvers' old loop."""
    for _ in range(max_iters):
        g = grad(x)
        if np.max(np.linalg.norm(g, axis=1)) <= tol:
            return x
        x = x + step * g
    raise AssertionError(f"reference ascent did not reach tol {tol} in {max_iters} steps")


def reference_c_transform(dd, xs, tol):
    """c-transform by ascent with the step (1 - eta) / 2."""
    step = 0.5 * (1.0 - disc_smoothness_bound(dd))
    u = reference_ascent(lambda u: disc_grad_x_batch(dd, xs + u) - u, np.zeros_like(xs), step,
                         tol, 400000)  # near eta = 1 it takes thousands of steps
    return disc_value_batch(dd, xs + u) - 0.5 * np.sum(u ** 2, axis=1)


def reference_tied_l2(game, tol):
    """Tied logit-block maximum by ascent with the step 1 / (2 lam + E||X||^2 + E||G||^2)."""
    step = 1.0 / (2.0 * game.anchors.lam + game.xm.mean_sq + game.gm.mean_sq)
    rows = reference_ascent(lambda r: game.disc_grads(0.0, r)[1],
                            np.repeat(game.anchors.d_vecs[:1], 2, axis=0), step, tol, 100000)
    return game.value(0.0, rows)


def critic_with(rng, d, eta, top):
    """A critic with lambda_max(A) = top and curvature bound eta = top + 2 max ||b_i||^2."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    spec = top - rng.uniform(0.0, 1.0, d)
    spec[0] = top
    b = rng.standard_normal((4, d))
    b *= np.sqrt((eta - top) / (2.0 * np.max(np.sum(b ** 2, axis=1))))
    return DiscriminatorParams(quad=symmetrize((q * spec) @ q.T), logits=b, consts=np.zeros(4))


def count_ascent_steps(monkeypatch):
    """Record the steps each ``_ascend`` call takes."""
    steps, ascend = [], objective._ascend

    def spy(*args, **kwargs):
        x, taken = ascend(*args, **kwargs)
        steps.append(taken)
        return x, taken

    monkeypatch.setattr(objective, "_ascend", spy)
    return steps


@pytest.mark.parametrize("eta, top", [(0.1, 0.05), (0.1, -0.3), (0.4, 0.25), (0.5, -1.0),
                                      (0.9, 0.6), (0.9, -0.2), (0.95, 0.9), (0.95, 0.5),
                                      (0.95, -2.0)])
@pytest.mark.parametrize("d", [1, 3])
def test_c_transform_matches_fixed_step_reference(eta, top, d):
    rng = np.random.default_rng([31, d, int(100 * eta), int(100 * top) + 300])
    dd = critic_with(rng, d, eta, top)
    assert disc_smoothness_bound(dd) == pytest.approx(eta, abs=1e-12)
    xs = 2.0 * rng.standard_normal((16, d))
    new = c_transform_batch(dd, xs, tol=1e-10)
    assert np.max(np.abs(new - reference_c_transform(dd, xs, 1e-10))) <= 1e-12


@pytest.mark.parametrize("excess", [1e-9, 1e-4, 0.1])
@pytest.mark.parametrize("side", ["population", "latent"])
def test_tied_inner_max_matches_fixed_step_reference(side, excess):
    # lam barely above E||X||^2 + E||G||^2: the margin lam - M is close to 0
    rng = np.random.default_rng(32)
    d = 3
    g = sym2(0.4 * np.eye(d) + 0.1 * rng.standard_normal((d, d)), rng.uniform(0.5, 1.0, d))
    d_vec = rng.standard_normal(d)
    if side == "population":
        mu_x, cov_x = rng.uniform(0.8, 1.2, d), 0.2 * np.eye(d)
        xm, gm = MixtureMoments(mu_x, cov_x), GeneratorMoments(g)
        anchors = Anchors.symmetric(d_vec, lam=(xm.mean_sq + gm.mean_sq) * (1.0 + excess))
        _, val = inner_max_solve_population(g, mu_x, cov_x, anchors, tol=1e-10)
    else:
        xs = rng.standard_normal((40, d)) + 1.5
        z, labels = rng.standard_normal((30, d)), rng.integers(0, 2, 30) * 2 - 1
        xm, gm = SampleMoments(xs), LatentMoments(g.cov_factor, g.means[0], z)
        anchors = Anchors.symmetric(d_vec, lam=(xm.mean_sq + gm.mean_sq) * (1.0 + excess))
        _, val = inner_max_solve(g, xs, anchors, z_eval=z, labels=labels, tol=1e-10)
    assert abs(val.l2 - reference_tied_l2(TiedGame(anchors, xm, gm), 1e-10)) <= 1e-12


def test_c_transform_takes_few_steps(monkeypatch):
    steps = count_ascent_steps(monkeypatch)
    # a critic as the benchmark builds it: d = 20, eta about 0.4, 640 standard normal points
    rng = np.random.default_rng(33)
    d = 20
    quad = symmetrize(rng.standard_normal((d, d)))
    quad *= 0.25 / np.max(np.abs(np.linalg.eigvalsh(quad)))
    rows = rng.standard_normal((4, d))
    rows *= np.sqrt(0.15 / (2.0 * np.max(np.sum(rows ** 2, axis=1))))
    c_transform_batch(DiscriminatorParams(quad=quad, logits=rows, consts=np.zeros(4)),
                      rng.standard_normal((640, d)))
    # d = 2 at eta = 0.9, where the fixed step (1 - eta) / 2 took about a thousand steps
    c_transform_batch(critic_with(rng, 2, 0.9, 0.6), 3.0 * rng.standard_normal((200, 2)))
    assert len(steps) == 2 and max(steps) <= 15, steps


# --- solver controls and cap warnings ---------------------------------------------


def _solve(solver, **controls):
    """One solver call on a small strongly concave (or c-concave) instance."""
    rng = np.random.default_rng(25)
    d = 2
    g = sym2(0.3 * np.eye(d), np.array([0.5, 0.2]))
    xs = 0.3 * rng.standard_normal((12, d))
    z, labels = rng.standard_normal((8, d)), rng.integers(0, 2, 8) * 2 - 1
    anchors = Anchors.symmetric(np.array([0.6, 0.3]), lam=10.0)
    mu, cov = np.array([0.4, 0.1]), 0.1 * np.eye(d)
    critic = feasible_disc(rng, d, 0.9)
    kmix = GeneratorParams(mode=SHARED_COV, cov_factor=0.3 * np.eye(d),
                           means=0.5 * rng.standard_normal((3, d)))
    kmix_anchors = Anchors(d_vecs=0.4 * rng.standard_normal((3, d)),
                           e_consts=0.1 * rng.standard_normal(3), lam=10.0)
    calls = {
        "tied latent": lambda: inner_max_solve(g, xs, anchors, z_eval=z, labels=labels,
                                               **controls),
        "tied quadrature": lambda: inner_max_solve(g, xs, anchors, **controls),
        "general shared_cov": lambda: inner_max_solve(kmix, xs, kmix_anchors, z_eval=z,
                                                      labels=labels % 3, **controls),
        "population": lambda: inner_max_solve_population(g, mu, cov, anchors, **controls),
        "envelope": lambda: envelope_generator_grad(g, MixtureMoments(mu, cov), anchors,
                                                    **controls),
        "stationarity": lambda: stationarity_grad_norm(g, xs, anchors, **controls),
        "c_transform_batch": lambda: c_transform_batch(critic, xs, **controls),
    }
    return calls[solver]()


_SOLVERS = ("tied latent", "tied quadrature", "general shared_cov", "population", "envelope",
            "stationarity", "c_transform_batch")
_TOL_NAME = {"envelope": "tol_inner", "stationarity": "tol_inner"}
_BAD_CONTROLS = ([(s, _TOL_NAME.get(s, "tol"), bad) for s in _SOLVERS
                  for bad in (-1.0, 0.0, float("nan"), float("inf"))]
                 + [(s, "max_iters", bad) for s in _SOLVERS
                    if s != "stationarity" for bad in (0, 2.0, True)])


@pytest.mark.parametrize("solver, control, bad", _BAD_CONTROLS)
def test_bad_solver_control_is_invalid_input(solver, control, bad):
    _solve(solver)  # the instance itself is fine
    with pytest.raises(InvalidInput):
        _solve(solver, **{control: bad})


@pytest.mark.parametrize("solver", ["tied latent", "tied quadrature", "general shared_cov",
                                    "c_transform_batch"])
def test_solver_cap_warning_names_the_iteration_cap(solver):
    with pytest.warns(RuntimeWarning, match=r"inner maximization|c-transform") as caught:
        _solve(solver, tol=1e-12, max_iters=1)
    assert "hit the iteration cap of 1 steps (last max gradient norm" in str(caught[0].message)
