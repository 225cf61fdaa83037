"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole suite takes about 6 minutes on a 2-core host (it trains
the two reproduction tasks over five seeds each, at full length).  Every
test here carries the ``acceptance`` marker, so ``pytest -m "not acceptance"``
runs the rest of the suite alone.
"""

import json

import numpy as np
import pytest

from gatgmm.datagen import make_isotropic, make_rotated
from gatgmm.em import GmmParams, em_fit, gmm_loglik
from gatgmm.gausscore import SeededRng, symmetrize
from gatgmm.metrics import condition1_check, gmm_objective, principal_direction
from gatgmm.model import (
    SHARED_COV,
    SYMMETRIC2,
    DiscriminatorParams,
    GeneratorParams,
    disc_vec,
    disc_with_vec,
    gen_second_moment,
    gen_vec,
    gen_with_vec,
    params_to_json,
)
from gatgmm.objective import (
    Anchors,
    GeneratorMoments,
    MixtureMoments,
    SampleMoments,
    c_transform_batch,
    gh_expect,
    inner_max_solve,
    inner_max_solve_population,
    l1_value,
    minimax_value_and_grads,
    c_transform_upper_bound,
)
from gatgmm.optimizer import TrainConfig, stationarity_grad_norm, train_gda
from gatgmm.transport import duality_gap_1d, sample_mixture

pytestmark = pytest.mark.acceptance

SEEDS = (1, 2, 3, 4, 5)

ISO_TRAIN = dict(max_iters=56000, lr_gen=1e-2, lr_disc=1e-1, lam=2.0,
                 sigma_init=0.1, eval_every=56000)
ROT_TRAIN = dict(max_iters=32000, lr_gen=1e-2, lr_disc=1e-1, lam=2.0,
                 sigma_init=0.1, eval_every=32000)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _train_task(make_dataset, train_fields, seed):
    ds = make_dataset(seed=seed)
    anchors = Anchors.symmetric(principal_direction(ds.samples), train_fields["lam"])
    cfg = TrainConfig(seed=seed, **train_fields)
    rep = train_gda(ds, cfg, anchors, truth=ds.meta.truth)
    g = rep.final_gen
    fitted_cov = g.cov_factor @ g.cov_factor.T
    gat_obj = gmm_objective(ds.meta.truth, g.means[0], fitted_cov)
    gat_fit = GmmParams.symmetric2(g.means[0], fitted_cov)
    em_params, em_trace = em_fit(ds.samples, 2, symmetric2=True, seed=seed)
    em_obj = gmm_objective(ds.meta.truth, em_params.means[0], em_params.covs[0])
    return {
        "dataset": ds,
        "anchors": anchors,
        "report": rep,
        "gen": g,
        "gat_obj": gat_obj,
        "gat_nll": -gmm_loglik(gat_fit, ds.samples),
        "em_obj": em_obj,
        "em_nll": -gmm_loglik(em_params, ds.samples),
        "em_trace": em_trace,
        "seconds": rep.wall_clock_seconds,
    }


@pytest.fixture(scope="module")
def iso_runs():
    return {seed: _train_task(make_isotropic, ISO_TRAIN, seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def rot_runs():
    return {seed: _train_task(make_rotated, ROT_TRAIN, seed) for seed in SEEDS}


def test_criterion_01_isotropic_reproduction(iso_runs):
    gat = [iso_runs[s]["gat_obj"] for s in SEEDS]
    em = [iso_runs[s]["em_obj"] for s in SEEDS]
    secs = [iso_runs[s]["seconds"] for s in SEEDS]
    ok = (np.median(gat) <= 0.02 and np.median(em) <= 0.02 and max(secs) <= 60.0)
    _report("criterion 1 (isotropic reproduction)", ok,
            f"median gat {np.median(gat):.4f} (<=0.02), median em {np.median(em):.4f} "
            f"(<=0.02), max runtime {max(secs):.0f}s (<=60)")


def test_criterion_02_rotated_reproduction(rot_runs):
    gat = [rot_runs[s]["gat_obj"] for s in SEEDS]
    em = [rot_runs[s]["em_obj"] for s in SEEDS]
    secs = [rot_runs[s]["seconds"] for s in SEEDS]
    med_gat, med_em = np.median(gat), np.median(em)
    ok = med_gat <= 2.0 and med_gat <= 2.0 * med_em and max(secs) <= 300.0
    _report("criterion 2 (rotated reproduction)", ok,
            f"median gat {med_gat:.3f} (<=2.0), ratio to em {med_gat / med_em:.2f} "
            f"(<=2.0), max runtime {max(secs):.0f}s (<=300)")


def test_criterion_03_nll_sanity(iso_runs):
    diffs = [abs(iso_runs[s]["gat_nll"] - iso_runs[s]["em_nll"]) for s in SEEDS]
    ok = float(np.median(diffs)) <= 1.0
    _report("criterion 3 (NLL sanity)", ok,
            f"median |nll_gat - nll_em| {np.median(diffs):.3f} (<=1.0)")


def _random_instance(rng, d, mode, tied):
    if mode == SYMMETRIC2:
        g = GeneratorParams(mode=mode, cov_factor=0.5 * rng.standard_normal((d, d)),
                            means=rng.standard_normal((1, d)))
        quad = symmetrize(0.4 * rng.standard_normal((d, d)))
        if tied:
            dd = DiscriminatorParams.tied_symmetric(
                quad, 0.6 * rng.standard_normal(d), 0.6 * rng.standard_normal(d))
        else:
            dd = DiscriminatorParams(quad=quad, logits=0.6 * rng.standard_normal((4, d)),
                                     consts=np.zeros(4), tied=False)
        anchors = Anchors.symmetric(rng.standard_normal(d), lam=0.5 + rng.uniform())
        labels = rng.integers(0, 2, 16) * 2 - 1
    else:
        k = 4
        g = GeneratorParams(mode=mode, cov_factor=0.5 * rng.standard_normal((d, d)),
                            means=rng.standard_normal((k, d)))
        dd = DiscriminatorParams(quad=symmetrize(0.4 * rng.standard_normal((d, d))),
                                 logits=0.6 * rng.standard_normal((2 * k, d)),
                                 consts=0.3 * rng.standard_normal(2 * k), tied=False)
        anchors = Anchors(d_vecs=rng.standard_normal((k, d)),
                          e_consts=0.2 * rng.standard_normal(k),
                          lam=0.5 + rng.uniform())
        labels = rng.integers(0, k, 16)
    xs = rng.standard_normal((16, d)) + 0.5
    z = rng.standard_normal((16, d))
    return g, dd, anchors, xs, z, labels


def test_criterion_04_gradient_correctness():
    h = 1e-5
    worst = 0.0
    configs = 0
    # each case is seeded by its index, so every run checks the same instances
    for seed, (mode, tied) in enumerate(((SYMMETRIC2, True), (SYMMETRIC2, False),
                                         (SHARED_COV, False))):
        rng = np.random.default_rng(seed)
        per_d = (34, 33, 33)
        for d, reps in zip((1, 2, 5), per_d):
            for _ in range(reps):
                g, dd, anchors, xs, z, labels = _random_instance(rng, d, mode, tied)
                include_c = mode == SHARED_COV
                _, gp = minimax_value_and_grads(g, dd, anchors, xs, z, labels)
                dvec = disc_vec(dd, include_consts=include_c)
                danal = np.concatenate([gp.quad.ravel(), gp.logits.ravel()]
                                       + ([gp.consts] if include_c else []))
                fd = np.zeros_like(dvec)
                for i in range(dvec.size):
                    vp, vm = dvec.copy(), dvec.copy()
                    vp[i] += h
                    vm[i] -= h
                    fp, _ = minimax_value_and_grads(
                        g, disc_with_vec(dd, vp, include_c), anchors, xs, z, labels)
                    fm, _ = minimax_value_and_grads(
                        g, disc_with_vec(dd, vm, include_c), anchors, xs, z, labels)
                    fd[i] = (fp - fm) / (2 * h)
                rel = np.linalg.norm(danal - fd) / max(1.0, np.linalg.norm(fd))
                worst = max(worst, rel)

                gvec = gen_vec(g)
                ganal = np.concatenate([gp.gen_cov_factor.ravel(), gp.gen_means.ravel()])
                fdg = np.zeros_like(gvec)
                for i in range(gvec.size):
                    vp, vm = gvec.copy(), gvec.copy()
                    vp[i] += h
                    vm[i] -= h
                    fp, _ = minimax_value_and_grads(gen_with_vec(g, vp), dd, anchors,
                                                    xs, z, labels)
                    fm, _ = minimax_value_and_grads(gen_with_vec(g, vm), dd, anchors,
                                                    xs, z, labels)
                    fdg[i] = (fp - fm) / (2 * h)
                rel = np.linalg.norm(ganal - fdg) / max(1.0, np.linalg.norm(fdg))
                worst = max(worst, rel)
                configs += 1
    ok = worst <= 1e-6
    _report("criterion 4 (gradient correctness)", ok,
            f"worst relative error {worst:.2e} over {configs} configurations (<=1e-6)")


def test_criterion_05_decomposition_consistency():
    rng = np.random.default_rng(55)
    worst = 0.0
    min_l1, min_l2 = np.inf, np.inf
    for _ in range(20):
        d = int(rng.integers(1, 4))
        g = GeneratorParams(mode=SYMMETRIC2,
                            cov_factor=0.3 * rng.standard_normal((d, d)),
                            means=0.6 * rng.standard_normal((1, d)))
        xs = 0.4 * rng.standard_normal((50, d)) + 0.5 * rng.standard_normal(d)
        lam = float(np.mean(np.sum(xs ** 2, axis=1))
                    + np.trace(gen_second_moment(g))) + 1.0 + rng.uniform()
        d_vec = rng.standard_normal(d)
        anchors = Anchors.symmetric(d_vec, lam=lam)
        dd, val = inner_max_solve(g, xs, anchors, tol=1e-11)

        # independent recomputation of the decomposition at the returned optimum
        xm = SampleMoments(xs)
        gm = GeneratorMoments(g)
        b1, b3 = dd.logits[0], dd.logits[2]
        l2_direct = ((xm.logcosh_expect(b1) - gm.logcosh_expect(b1)
                      - lam * float(np.sum((b1 - d_vec) ** 2)))
                     + (-xm.logcosh_expect(b3) + gm.logcosh_expect(b3)
                        - lam * float(np.sum((b3 - d_vec) ** 2))))
        l1_direct = l1_value(g, xm.second, lam)
        worst = max(worst, abs(val.total - (l1_direct + l2_direct)))
        min_l1 = min(min_l1, val.l1)
        min_l2 = min(min_l2, val.l2)
    ok = worst <= 1e-6 and min_l1 >= -1e-9 and min_l2 >= -1e-9
    _report("criterion 5 (decomposition consistency)", ok,
            f"worst |total-(l1+l2)| {worst:.2e} (<=1e-6), min l1 {min_l1:.2e}, "
            f"min l2 {min_l2:.2e} (>= -1e-9)")


def test_criterion_06_stationarity_at_truth():
    mu_x = np.array([1.1, 0.4])
    cov_x = np.diag([0.05, 0.07])
    direction = mu_x / np.linalg.norm(mu_x)
    holds, _ = condition1_check(mu_x, cov_x, direction)
    assert holds
    truth = GmmParams.symmetric2(mu_x, cov_x)
    anchors = Anchors.symmetric(direction, lam=8.0)
    g_true = GeneratorParams(mode=SYMMETRIC2,
                             cov_factor=np.diag(np.sqrt(np.diag(cov_x))),
                             means=mu_x[None, :])
    at_truth = stationarity_grad_norm(g_true, truth, anchors, tol_inner=1e-10)
    rng = np.random.default_rng(66)
    ratios = []
    for _ in range(3):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        g_off = GeneratorParams(mode=SYMMETRIC2, cov_factor=g_true.cov_factor,
                                means=(mu_x + 0.5 * u)[None, :])
        off = stationarity_grad_norm(g_off, truth, anchors, tol_inner=1e-10)
        ratios.append(off / max(at_truth, 1e-12))
    ok = at_truth <= 1e-3 and min(ratios) >= 10.0
    _report("criterion 6 (stationarity at truth)", ok,
            f"norm at truth {at_truth:.2e} (<=1e-3), min perturbed ratio "
            f"{min(ratios):.1f} (>=10)")


def test_criterion_07_moment_matching(iso_runs):
    run = iso_runs[1]
    xs = run["dataset"].samples
    g = run["gen"]
    d_vec = run["anchors"].d_vecs[0]
    sx = xs.T @ xs / len(xs)
    second_gap = float(np.linalg.norm(sx - gen_second_moment(g)))
    data_tanh = xs.T @ np.tanh(xs @ d_vec) / len(xs)
    gen_tanh = GeneratorMoments(g).logcosh_grad(d_vec)
    tanh_gap = float(np.linalg.norm(data_tanh - gen_tanh))
    ok = second_gap <= 0.1 and tanh_gap <= 0.1
    _report("criterion 7 (moment matching at convergence)", ok,
            f"second-moment gap {second_gap:.4f} (<=0.1), tanh-moment gap "
            f"{tanh_gap:.4f} (<=0.1)")


def test_criterion_08_regularized_ctransform_bound():
    rng = np.random.default_rng(88)
    d = 2
    eta = 0.9
    violations = 0
    for _ in range(200):
        quad = symmetrize(rng.standard_normal((d, d)))
        w = np.linalg.eigvalsh(quad)
        quad *= rng.uniform(0.1, 0.4) * eta / max(abs(w[0]), abs(w[-1]))
        b = rng.standard_normal((4, d))
        b *= np.sqrt(rng.uniform(0.05, 0.25) * eta / (2 * np.max(np.sum(b ** 2, axis=1))))
        dd = DiscriminatorParams(quad=quad, logits=b, consts=np.zeros(4))
        anchors = Anchors(d_vecs=0.3 * rng.standard_normal((2, d)),
                          e_consts=np.zeros(2), lam=1.0)
        xs = rng.standard_normal((200, d))
        mean_ct = float(np.mean(c_transform_batch(dd, xs, tol=1e-8)))
        if mean_ct > c_transform_upper_bound(dd, anchors, xs, eta=eta):
            violations += 1
    ok = violations == 0
    _report("criterion 8 (regularized c-transform bound)", ok,
            f"{violations} violations in 200 feasible trials (==0)")


def test_criterion_09_duality_sandwich():
    results = {sep: duality_gap_1d(sep, 1.0, sep + 0.3, 0.8, seed=7)
               for sep in (2.0, 3.0, 4.0, 5.0)}
    dual_ok = all(r.dual <= r.w2 + 2 * r.se for r in results.values())
    bound_ok = all(r.gap <= r.bound for r in results.values())
    trend_ok = results[5.0].gap <= results[2.0].gap
    ok = dual_ok and bound_ok and trend_ok
    _report("criterion 9 (duality sandwich, 1-D)", ok,
            f"dual<=w2+2se {dual_ok}, gap<=bound {bound_ok}, "
            f"gap(5)={results[5.0].gap:.4f} <= gap(2)={results[2.0].gap:.4f} {trend_ok}")


def test_criterion_10_generalization_trend():
    mu_x = np.array([0.8, 0.3])
    cov_x = np.diag([0.05, 0.04])
    truth = GmmParams.symmetric2(mu_x, cov_x)
    rng = SeededRng(1010)
    g = GeneratorParams(mode=SYMMETRIC2, cov_factor=np.diag([0.25, 0.18]),
                        means=np.array([[0.55, 0.15]]))
    anchors = Anchors.symmetric(mu_x / np.linalg.norm(mu_x), lam=4.0)
    _, pop_val = inner_max_solve_population(g, mu_x, cov_x, anchors, tol=1e-11)
    gaps = {}
    for n in (250, 4000):
        vals = []
        for rep in range(20):
            xs, _ = sample_mixture(truth, n, rng.split(1000 * n + rep))
            _, val = inner_max_solve(g, xs, anchors, tol=1e-11)
            vals.append(abs(val.total - pop_val.total))
        gaps[n] = float(np.mean(vals))
    ratio = gaps[250] / gaps[4000]
    ok = 2.0 <= ratio <= 8.0
    _report("criterion 10 (generalization-gap trend)", ok,
            f"gap(250)/gap(4000) = {ratio:.2f} (in [2, 8]; ~4 expected)")


def test_criterion_11_tanh_inequality_suite():
    worst1 = np.inf
    worst2 = -np.inf
    zero_gap = None
    for mu in np.arange(0.0, 3.01, 0.25):
        for std in (0.1, 0.5, 1.0, 2.0):
            v1 = mu * gh_expect(mu, std, "tanh") - mu ** 2 * gh_expect(mu, std, "tanh_prime")
            v2 = 2 * gh_expect(mu, std, "tanh_pp") + gh_expect(mu, std, "tanh_ppp")
            worst1 = min(worst1, v1)
            worst2 = max(worst2, v2)
            if mu == 0.0:
                zero_gap = max(zero_gap or 0.0, abs(v1))
    ok = worst1 >= -1e-10 and worst2 <= 1e-10 and zero_gap <= 1e-10
    _report("criterion 11 (tanh-moment inequality suite)", ok,
            f"min first-moment value {worst1:.2e} (>=-1e-10), max curvature value "
            f"{worst2:.2e} (<=1e-10), equality at mu=0 within {zero_gap:.1e}")


def test_criterion_12_condition1_on_datasets():
    margins = {}
    for name, make in (("isotropic", make_isotropic), ("rotated", make_rotated)):
        ds = make(seed=1)
        truth = ds.meta.truth
        holds, margin = condition1_check(truth.means[0], truth.covs[0],
                                         principal_direction(ds.samples))
        margins[name] = (holds, margin)
    ok = all(h and m > 0 for h, m in margins.values())
    _report("criterion 12 (separability condition on both datasets)", ok,
            ", ".join(f"{k}: margin {m:.3f}" for k, (h, m) in margins.items()))


def test_criterion_13_em_monotonicity(iso_runs, rot_runs):
    worst = np.inf
    for runs in (iso_runs, rot_runs):
        for seed in SEEDS:
            trace = runs[seed]["em_trace"]
            if len(trace) > 1:
                worst = min(worst, float(np.min(np.diff(trace))))
    ok = worst >= -1e-9
    _report("criterion 13 (EM loglik monotonicity)", ok,
            f"worst loglik step {worst:.2e} (>=-1e-9) across all fits")


def test_criterion_14_determinism():
    seed = 1
    blobs = []
    for _ in range(2):
        ds = make_isotropic(seed=seed)
        anchors = Anchors.symmetric(principal_direction(ds.samples), ISO_TRAIN["lam"])
        cfg = TrainConfig(seed=seed, **{**ISO_TRAIN, "max_iters": 4000,
                                        "eval_every": 1000})
        rep = train_gda(ds, cfg, anchors, truth=ds.meta.truth)
        em_params, em_trace = em_fit(ds.samples, 2, symmetric2=True, seed=seed)
        report_bytes = json.dumps(rep.to_json(), sort_keys=True).encode()
        em_bytes = json.dumps(em_params.to_json(), sort_keys=True).encode()
        csv_rows = ["%d,%.17g,%.17g,%.17g" % (r.iteration, r.objective, r.grad_norm,
                                              r.gmm_objective)
                    for r in rep.iterates]
        data_bytes = ds.samples.tobytes()
        blobs.append((report_bytes, em_bytes, tuple(csv_rows), data_bytes))
    ok = blobs[0] == blobs[1]
    _report("criterion 14 (determinism)", ok,
            "rerun with the same seed reproduces report, params, metrics rows, "
            "and data byte-for-byte" if ok else "byte mismatch between reruns")
