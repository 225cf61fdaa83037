"""Experiment harness: dataset generation, training, evaluation, comparison,
separability checks, and a verification battery, all seeded and scriptable.

Each flag's argparse dest is the config key it overrides.  A run of either
method makes its fit, and one writer puts its report.json, params.json,
metrics.csv, timing.json and scatter SVGs in the output directory.
Exit codes: 0 success, 2 configuration error (a bad input, or an output that
cannot be written), 3 numerical failure.
``sweep`` runs a list of configs in parallel worker processes, capped by the
GATGMM_THREADS environment variable and by the number of configs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import datagen, em, metrics, model, objective, optimizer, transport
from .errors import GatgmmError, InvalidInput, ParseError
from .gausscore import SeededRng, as_count, as_real, second_moment, sym_eigen, symmetrize

# per-dataset trained defaults (validated to reproduce the reference scores)
_TRAIN_DEFAULTS = {
    "isotropic": dict(max_iters=56000, lr_gen=1e-2, lr_disc=1e-1, lam=2.0,
                      sigma_init=0.1, eval_every=4000),
    "rotated": dict(max_iters=32000, lr_gen=1e-2, lr_disc=1e-1, lam=2.0,
                    sigma_init=0.1, eval_every=4000),
    "kmix": dict(max_iters=20000, lr_gen=2e-2, lr_disc=1e-1, lam=0.5,
                 sigma_init=0.1, eval_every=2000, mode=model.SHARED_COV, k=4),
}
_TRAIN_DEFAULTS["file"] = _TRAIN_DEFAULTS["rotated"]  # a data file trains as the rotated task


# ---------------------------------------------------------------------------
# config plumbing


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidInput(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        return _object(json.loads(Path(path).read_text()), f"config {path}")
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read config {path}: {exc}") from exc


# the config keys the flags set: each flag's dest is its key, and an unset flag is None
_RUN_KEYS = ("dataset", "method", "seed", "out", "holdout")
_TRAIN_KEYS = ("lam", "lr_gen", "lr_disc", "disc_steps_per_gen_step", "max_iters", "batch_size")


def _check_fields(cfg: dict) -> dict:
    """Reject a top-level key no run reads and type-check the run fields."""
    unknown = sorted(set(cfg) - set(_RUN_KEYS + ("train", "dataset_params")))
    if unknown:
        raise InvalidInput(f"unknown config keys {unknown}; see the README for the keys")
    for key in ("dataset", "method", "out"):
        if key in cfg and not isinstance(cfg[key], str):
            raise InvalidInput(f"{key} must be a string, got {cfg[key]!r}")
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InvalidInput(f"seed must be an integer, got {seed!r}")
    if not isinstance(cfg.get("holdout", False), bool):
        raise InvalidInput(f"holdout must be true or false, got {cfg['holdout']!r}")
    return cfg


def _merged_config(args) -> dict:
    """Config file first, command-line flags override."""
    flags = {key: val for key, val in vars(args).items() if val is not None}
    cfg = _load_config(args.config)
    cfg.update((key, flags[key]) for key in _RUN_KEYS if key in flags)
    _check_fields(cfg)
    cfg["train"] = dict(_object(cfg.get("train", {}), "train"))
    cfg["train"].update((key, flags[key]) for key in _TRAIN_KEYS if key in flags)
    return cfg


def _resolve_dataset(cfg: dict) -> datagen.Dataset:
    selector = cfg.get("dataset")
    if not selector:
        raise InvalidInput("no dataset specified (--dataset or config)")
    params = dict(_object(cfg.get("dataset_params", {}), "dataset_params"))
    if selector.startswith("file:"):
        if params:  # a file's samples are fixed: a key meant for a maker would be dropped
            raise InvalidInput(f"a file: dataset takes no dataset_params, got {sorted(params)}")
        return datagen.load_csv(selector[len("file:"):])
    maker = {"isotropic": datagen.make_isotropic, "rotated": datagen.make_rotated,
             "kmix": datagen.make_k_mixture}.get(selector)
    if maker is None:
        raise InvalidInput(f"unknown dataset selector {selector!r}")
    if selector == "kmix":  # the CLI sizes kmix's means (from its own key spread) and cov
        d = as_count(params.setdefault("d", 20), "d")
        k = as_count(params.setdefault("k", 4), "k", 2)
        if "means" not in params:
            if k > 2 * d:
                raise InvalidInput(f"kmix with k={k} and d={d} needs means: the default means "
                                   f"+-e_i give at most 2d = {2 * d} rows")
            base = np.eye(d)[:k] * as_real(params.pop("spread", 4.0), "spread")
            params["means"] = np.concatenate([base[: (k + 1) // 2], -base[: k // 2]])
        elif "spread" in params:
            raise InvalidInput("kmix takes means or spread, not both")
        params = {"cov": 0.05 * np.eye(d), "n": 640} | params
    # the other keys are the maker's arguments, the seed (a top-level key) excepted; their
    # values reach it unconverted, so its checks reject a count of 2.7 or a scale of 0
    takes = set(inspect.signature(maker).parameters) - {"seed"}
    if set(params) - takes:
        raise InvalidInput(f"unknown {selector} dataset_params {sorted(set(params) - takes)}; "
                           "see the README for the keys")
    return maker(**params, seed=cfg.get("seed", 0))


def _dataset_kind(cfg: dict) -> str:
    selector = cfg.get("dataset", "")
    return "file" if selector.startswith("file:") else selector


def _make_anchors(ds: datagen.Dataset, tcfg: optimizer.TrainConfig) -> objective.Anchors:
    """The principal direction for k = 2, else +- the top (k + 1) // 2
    eigenvectors of the data's second moment, k rows in all."""
    k, lam = tcfg.k, tcfg.lam
    if k == 2:
        return objective.Anchors.symmetric(metrics.principal_direction(ds.samples), lam)
    half = (k + 1) // 2
    if half > ds.d:
        raise InvalidInput(f"k={k} anchors need {half} eigenvectors; the data has d={ds.d}")
    vecs = sym_eigen(second_moment(ds.samples)).vectors[:, :half].T
    rows = np.stack([vecs, -vecs], axis=1).reshape(2 * half, ds.d)[:k]  # v1, -v1, v2, ...
    return objective.Anchors(d_vecs=rows, e_consts=np.zeros(k), lam=lam)


# ---------------------------------------------------------------------------
# outputs


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _scatter_svg(path: Path, groups, title: str) -> None:
    """Minimal scatter plot: groups is [(label, color, (m, 2) array)]."""
    width, height, margin = 640, 480, 40
    pts = np.concatenate([g[2] for g in groups if len(g[2])])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)

    def sx(v):
        return margin + (v - lo[0]) / span[0] * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - lo[1]) / span[1] * (height - 2 * margin)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<text x="{width / 2}" y="20" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>']
    for li, (label, color, arr) in enumerate(groups):
        for row in arr:
            parts.append(f'<circle cx="{sx(row[0]):.2f}" cy="{sy(row[1]):.2f}" '
                         f'r="2" fill="{color}" fill-opacity="0.5"/>')
        parts.append(f'<text x="{margin}" y="{18 * (li + 1) + 20}" fill="{color}" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _scatter_outputs(outdir: Path, ds: datagen.Dataset, model_samples: np.ndarray) -> None:
    if ds.d < 2:
        return
    groups_xy = [("data", "#1f77b4", ds.samples[:500, :2]),
                 ("model", "#d62728", model_samples[:500, :2])]
    _scatter_svg(outdir / "scatter_xy.svg", groups_xy, "first two coordinates")
    basis = sym_eigen(second_moment(ds.samples)).vectors[:, :2]
    groups_pca = [("data", "#1f77b4", ds.samples[:500] @ basis),
                  ("model", "#d62728", model_samples[:500] @ basis)]
    _scatter_svg(outdir / "scatter_pca.svg", groups_pca, "top-2 principal plane")


def _metrics_record(ds: datagen.Dataset, fit: em.GmmParams,
                    nll_xs: np.ndarray) -> metrics.MetricsRecord:
    """The fit's score against the dataset's truth (``metrics.fit_score``), its
    NLL, and condition 1 along the principal direction for a symmetric
    two-component truth, else for the fit's first component."""
    direction = metrics.principal_direction(ds.samples)
    truth = ds.meta.truth if ds.meta is not None else None
    law = truth if truth is not None and truth.is_symmetric2 else fit
    holds, margin = metrics.condition1_check(law.means[0], law.covs[0], direction)
    return metrics.MetricsRecord(gmm_objective=metrics.fit_score(truth, fit),
                                 nll=-em.gmm_loglik(fit, nll_xs),
                                 condition1_holds=bool(holds),
                                 condition1_margin=float(margin))


def _nll_samples(cfg: dict, ds: datagen.Dataset) -> np.ndarray:
    """Training samples by default; with --holdout, a fresh draw of the
    dataset's own recipe at the seed shifted by 104729."""
    if not cfg.get("holdout"):
        return ds.samples
    if ds.meta is None:
        raise InvalidInput("--holdout needs a dataset with a recorded recipe")
    return datagen.redraw(ds.meta, ds.meta.seed + 104729).samples


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(args) -> int:
    cfg = _merged_config(args)
    ds = _resolve_dataset(cfg)
    outdir = Path(cfg.get("out", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{_dataset_kind(cfg)}.csv"
    datagen.save_csv(ds, path)
    print(f"wrote {path} ({ds.n} x {ds.d}) and {path.with_suffix('.meta.json')}")
    return 0


def _run_experiment(cfg: dict) -> dict:
    ds = _resolve_dataset(cfg)
    kind = _dataset_kind(cfg)
    method = cfg.get("method", "gatgmm")
    seed = cfg.get("seed", 0)
    outdir = Path(cfg.get("out", f"runs/{kind}-{method}-{seed}"))
    outdir.mkdir(parents=True, exist_ok=True)

    train_fields = dict(_TRAIN_DEFAULTS.get(kind, _TRAIN_DEFAULTS["file"]))
    train_fields.update(_object(cfg.get("train", {}), "train"), seed=seed)
    try:
        tcfg = optimizer.TrainConfig(**train_fields)
    except TypeError as exc:  # a field name TrainConfig does not have
        raise InvalidInput(f"bad train config: {exc}") from exc
    nll_xs = _nll_samples(cfg, ds)
    n_shown, shown_rng = min(500, ds.n), SeededRng(seed, 7)

    # each method makes its fit, report body, params, metrics.csv text,
    # timing and model samples; one tail scores and writes them.  scipy loads
    # on first use, so each method imports what its timed part calls before
    # the clock starts.
    if method == "em":
        import scipy.linalg  # noqa: F401  em_fit's solves
        t0 = time.perf_counter()
        fit, trace = em.em_fit(ds.samples, k=max(tcfg.k, 2),
                               symmetric2=(tcfg.mode == model.SYMMETRIC2),
                               shared_cov=True, seed=seed)
        timing = {"wall_clock_seconds": time.perf_counter() - t0}
        params = fit.to_json()
        report = {"loglik_trace": trace, "final_params": params}
        rows = ["iter,loglik"] + ["%d,%.17g" % (i, v) for i, v in enumerate(trace)]
        model_samples = transport.sample_mixture(fit, n_shown, shown_rng)[0]
    elif method == "gatgmm":
        truth = ds.meta.truth if ds.meta is not None else None
        if truth is not None and not truth.is_symmetric2:
            import scipy.optimize  # noqa: F401  the matched score's assignment, at each eval
        run = optimizer.train_gda(ds, tcfg, _make_anchors(ds, tcfg), truth=truth)
        g = run.final_gen
        fit = em.GmmParams.from_generator(g)
        report = run.to_json()
        params = model.params_to_json(g, run.final_disc)
        timing = {"wall_clock_seconds": run.wall_clock_seconds,
                  "eval_seconds": [r.seconds for r in run.iterates]}
        rows = ["iter,objective,grad_norm,gmm_objective"] + [
            "%d,%.17g,%.17g,%.17g" % (r.iteration, r.objective, r.grad_norm, r.gmm_objective)
            for r in run.iterates]
        model_samples = model.gen_sample_batch(g, n_shown, shown_rng)
    else:
        raise InvalidInput(f"unknown method {method!r}")

    rec = _metrics_record(ds, fit, nll_xs)
    _write_json(outdir / "report.json", report | {"method": method, "metrics": rec.to_json()})
    _write_json(outdir / "params.json", params)
    _write_json(outdir / "timing.json", timing)
    (outdir / "metrics.csv").write_text("".join(row + "\n" for row in rows))
    _scatter_outputs(outdir, ds, model_samples)
    return {"method": method, "metrics": rec, "out": str(outdir)}


def _cmd_train(args) -> int:
    cfg = _merged_config(args)
    res = _run_experiment(cfg)
    rec = res["metrics"]
    print(f"{res['method']}: gmm_objective {rec.gmm_objective:.6g} nll {rec.nll:.6g} "
          f"-> {res['out']}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _merged_config(args)
    ds = _resolve_dataset(cfg)
    try:
        obj = json.loads(Path(args.params).read_text())
        fit = em.GmmParams.from_json(obj) if "weights" in obj \
            else em.GmmParams.from_generator(model.params_from_json(obj)[0])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"cannot read params {args.params}: {exc}") from exc
    rec = _metrics_record(ds, fit, _nll_samples(cfg, ds))
    print(json.dumps(rec.to_json(), sort_keys=True, indent=1))
    if cfg.get("out"):
        _write_json(Path(cfg["out"]) / "metrics_record.json", rec.to_json())
    return 0


def _cmd_compare(args) -> int:
    cfg = _merged_config(args)
    outdir = Path(cfg.get("out", "runs/compare"))
    outdir.mkdir(parents=True, exist_ok=True)
    rows = ["method,gmm_objective,nll"]
    for method in ("gatgmm", "em"):
        rec = _run_experiment(cfg | {"method": method, "out": str(outdir / method)})["metrics"]
        rows.append("%s,%.17g,%.17g" % (method, rec.gmm_objective, rec.nll))
    table = outdir / "compare.csv"
    table.write_text("".join(row + "\n" for row in rows))
    print(table.read_text().strip())
    return 0


def _cmd_check_condition1(args) -> int:
    ds = _resolve_dataset(_merged_config(args))
    truth = ds.meta.truth if ds.meta is not None else None
    if truth is None or not truth.is_symmetric2:
        raise InvalidInput("check-condition1 needs a stored symmetric two-component truth")
    holds, margin = metrics.condition1_check(truth.means[0], truth.covs[0],
                                             metrics.principal_direction(ds.samples))
    print(f"condition1 along principal direction: holds={holds} margin={margin:.6g}")
    return 0


def _cmd_verify(args) -> int:
    checks: list[tuple[str, bool, str]] = []

    def record(name, ok, detail=""):
        checks.append((name, ok, detail))
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))

    rng = np.random.default_rng(0)

    # gradient spot check against central finite differences
    worst = 0.0
    for _ in range(5):
        d = 2
        g = model.GeneratorParams(mode=model.SYMMETRIC2,
                                  cov_factor=0.4 * rng.standard_normal((d, d)),
                                  means=rng.standard_normal((1, d)))
        dd = model.DiscriminatorParams.tied_symmetric(
            symmetrize(0.3 * rng.standard_normal((d, d))),
            0.5 * rng.standard_normal(d), 0.5 * rng.standard_normal(d))
        anchors = objective.Anchors.symmetric(rng.standard_normal(d), lam=1.0)
        xs = rng.standard_normal((16, d))
        z = rng.standard_normal((16, d))
        labels = rng.integers(0, 2, 16) * 2 - 1
        _, gp = objective.minimax_value_and_grads(g, dd, anchors, xs, z, labels)
        vec = model.disc_vec(dd)
        analytic = np.concatenate([gp.quad.ravel(), gp.logits.ravel()])
        h = 1e-5
        fd = np.zeros_like(vec)
        for i in range(vec.size):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            fp, _ = objective.minimax_value_and_grads(
                g, model.disc_with_vec(dd, vp), anchors, xs, z, labels)
            fm, _ = objective.minimax_value_and_grads(
                g, model.disc_with_vec(dd, vm), anchors, xs, z, labels)
            fd[i] = (fp - fm) / (2 * h)
        worst = max(worst, float(np.linalg.norm(analytic - fd)
                                 / max(1.0, np.linalg.norm(fd))))
    record("analytic gradients match finite differences", worst <= 1e-6,
           f"worst rel err {worst:.2e}")

    # the inner maximum's total against F at its maximizer, by the generic block;
    # the latents have their own generator, so the later checks draw as before
    ok, worst, latent_rng = True, 0.0, np.random.default_rng(1)
    for trial in range(5):
        d = 2
        g = model.GeneratorParams(mode=model.SYMMETRIC2,
                                  cov_factor=0.2 * rng.standard_normal((d, d)),
                                  means=0.5 * rng.standard_normal((1, d)))
        xs = rng.standard_normal((40, d)) * 0.4
        z, labels = latent_rng.standard_normal((40, d)), latent_rng.integers(0, 2, 40) * 2 - 1
        lam = float(np.mean(np.sum(xs ** 2, axis=1))
                    + np.mean(np.sum(model.gen_apply(g, z, labels) ** 2, axis=1))) + 1.0
        anchors = objective.Anchors.symmetric(rng.standard_normal(d), lam=lam)
        dd, val = objective.inner_max_solve(g, xs, anchors, z_eval=z, labels=labels, tol=1e-10)
        value, _ = objective.minimax_value_and_grads(g, dd, anchors, xs, z, labels)
        worst = max(worst, abs(value - val.total))
        ok = ok and val.l1 >= -1e-9 and val.l2 >= -1e-9
    record("inner-maximum total is F at the maximizer, both blocks nonnegative",
           ok and worst <= 1e-9, f"worst |F - total| {worst:.2e}")

    # tanh-moment inequality grid
    ok = True
    for mu in np.arange(0.0, 3.01, 0.25):
        for std in (0.1, 0.5, 1.0, 2.0):
            v1 = mu * objective.gh_expect(mu, std, "tanh") \
                - mu ** 2 * objective.gh_expect(mu, std, "tanh_prime")
            v2 = 2 * objective.gh_expect(mu, std, "tanh_pp") \
                + objective.gh_expect(mu, std, "tanh_ppp")
            ok = ok and v1 >= -1e-10 and v2 <= 1e-10
    record("tanh-moment inequalities on the full grid", ok)

    # regularized c-transform bound
    ok = True
    for _ in range(20):
        d = 2
        quad = symmetrize(rng.standard_normal((d, d)))
        w = np.linalg.eigvalsh(quad)
        quad *= 0.25 / max(abs(w[0]), abs(w[-1]))
        b = rng.standard_normal((4, d))
        b *= np.sqrt(0.15 / (2 * np.max(np.sum(b ** 2, axis=1))))
        dd = model.DiscriminatorParams(quad=quad, logits=b, consts=np.zeros(4))
        anchors = objective.Anchors(d_vecs=0.2 * rng.standard_normal((2, d)),
                                    e_consts=np.zeros(2), lam=1.0)
        xs = rng.standard_normal((200, d))
        mean_ct = float(np.mean(objective.c_transform_batch(dd, xs, tol=1e-8)))
        ok = ok and mean_ct <= objective.c_transform_upper_bound(dd, anchors, xs, eta=0.9) + 1e-10
    record("c-transform bounded by its regularized upper bound", ok)

    # 1-D duality sandwich
    res2 = transport.duality_gap_1d(2.0, 1.0, 2.3, 0.8, seed=3)
    res5 = transport.duality_gap_1d(5.0, 1.0, 5.3, 0.8, seed=3)
    ok = (res2.dual <= res2.w2 + 2 * res2.se and res5.dual <= res5.w2 + 2 * res5.se
          and res2.gap <= res2.bound and res5.gap <= res5.bound
          and res5.gap <= res2.gap)
    record("one-dimensional duality sandwich", ok,
           f"gap(2)={res2.gap:.4g} gap(5)={res5.gap:.4g}")

    # exact assignment oracle vs brute force
    from itertools import permutations
    a = rng.standard_normal((5, 2))
    b = rng.standard_normal((5, 2))
    brute = min(np.mean([0.5 * np.sum((a[i] - b[p[i]]) ** 2) for i in range(5)])
                for p in permutations(range(5)))
    ok = abs(transport.w2_assignment_exact(a, b) - brute) <= 1e-12
    record("assignment oracle equals permutation brute force", ok)

    # population stationarity at the matched point
    mu_x = np.array([0.9, 0.3])
    cov_x = np.diag([0.05, 0.08])
    g_true = model.GeneratorParams(mode=model.SYMMETRIC2,
                                   cov_factor=np.diag(np.sqrt(np.diag(cov_x))),
                                   means=mu_x[None, :])
    anchors = objective.Anchors.symmetric(
        mu_x / np.linalg.norm(mu_x), lam=6.0)
    norm_at_truth = optimizer.stationarity_grad_norm(
        g_true, em.GmmParams.symmetric2(mu_x, cov_x), anchors, tol_inner=1e-10)
    record("population stationarity at the matched generator",
           norm_at_truth <= 1e-3, f"norm {norm_at_truth:.2e}")

    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        print(f"{len(failed)} verification check(s) failed")
        return 3
    print(f"all {len(checks)} verification checks passed")
    return 0


def _sweep_worker(cfg: dict) -> str:
    res = _run_experiment(cfg)
    rec = res["metrics"]
    return f"{res['out']}: {res['method']} gmm_objective {rec.gmm_objective:.6g}"


def _cmd_sweep(args) -> int:
    try:
        configs = json.loads(Path(args.configs).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read sweep configs: {exc}") from exc
    if not isinstance(configs, list):
        raise InvalidInput("sweep config file must hold a JSON list of run configs")
    configs = [_check_fields(_object(cfg, "sweep run config")) for cfg in configs]
    try:
        workers = int(os.environ.get("GATGMM_THREADS", "1") or "1")
    except ValueError as exc:
        raise InvalidInput(f"GATGMM_THREADS must be an integer: {exc}") from exc
    # the pool forks all its workers at the first submit: never more than there are runs
    workers = min(workers, len(configs))
    if workers <= 1:
        for cfg in configs:
            print(_sweep_worker(cfg))
        return 0
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for line in pool.map(_sweep_worker, configs):
            print(line)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--seed", type=int, help="experiment seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--dataset", help="isotropic | rotated | kmix | file:PATH")
    p.add_argument("--method", choices=["gatgmm", "em"])
    p.add_argument("--lambda", dest="lam", type=float, help="regularization weight")
    p.add_argument("--lr-gen", type=float)
    p.add_argument("--lr-disc", type=float)
    p.add_argument("--disc-steps", dest="disc_steps_per_gen_step", type=int)
    p.add_argument("--iters", dest="max_iters", type=int)
    p.add_argument("--batch", dest="batch_size", type=int)
    p.add_argument("--holdout", action="store_true", default=None,
                   help="evaluate NLL on a fresh sample instead of the training set")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gatgmm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("gen-data", _cmd_gen_data), ("train", _cmd_train),
                     ("eval", _cmd_eval), ("compare", _cmd_compare),
                     ("check-condition1", _cmd_check_condition1),
                     ("verify", _cmd_verify), ("sweep", _cmd_sweep)]:
        p = sub.add_parser(name)
        _add_common(p)
        if name == "eval":
            p.add_argument("--params", required=True, help="fitted-parameter JSON file")
        if name == "sweep":
            p.add_argument("--configs", required=True, help="JSON list of run configs")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    # every file read maps its OSError to ParseError or InvalidInput, so an
    # OSError here failed to create or write an output (say --out names a file)
    except (ParseError, InvalidInput, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GatgmmError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
