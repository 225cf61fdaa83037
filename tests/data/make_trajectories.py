"""Write ``tests/data/trajectories.json``: scalars of seeded runs that a change
made for speed alone must not move.

    PYTHONPATH=src python tests/data/make_trajectories.py
    PYTHONPATH=src python tests/data/make_trajectories.py --drift
    PYTHONPATH=src python tests/data/make_trajectories.py --add

``--drift`` writes nothing: it reruns every run and prints, per run family
(``gda/isotropic``, ``em/kmix``, ``inner``, ...), the largest relative move
of any scalar against the committed file.  A change made for speed reports
these numbers.  ``--add`` writes only the runs the file lacks and leaves
every pinned scalar as it is, so a new family does not re-pin the others at
the host's BLAS rounding.

Each run is a name and a function returning a flat dict of float scalars:

* ``gda/<kind>/<seed>``: ``train_gda`` on the benchmark's datasets, anchors
  and shortened configs (the CLI's trained defaults cut to 700, 160 and 300
  rounds, two eval points), seeds 41-43.  ``gda/isotropic-batch`` and
  ``gda/kmix-batch`` take the odd minibatch ``BATCH_SIZE`` (the pairs phase
  truncates its negated half), isotropic also two ascent steps per round.
  Every eval record's objective,
  grad_norm and gmm_objective, then ||mu||^2, tr C C^T and the final mu and C
  contracted with a seeded probe.
* ``em/<kind>/<seed>``: ``em_fit`` on the same datasets, symmetric for the
  two-component tasks (10 iterations) and shared-covariance k = 4 for kmix
  (30 iterations), tol 0: every trace entry and the fit contracted with a
  probe.
* ``inner/<seed>``: l1, l2 and total of the exact inner maximum through
  ``inner_max_solve`` (tied latent and tied quadrature sides), the generic
  ``BatchGame`` on the symmetric generator (the untied latent side) and
  ``inner_max_solve_population``, and ``stationarity_grad_norm`` on the
  sample and on the population data side, on small seeded instances.
* ``transport/<case>``: the six fields of ``duality_gap_1d`` at ``gatgmm
  verify``'s two settings (``verify-2``, ``verify-5``, seed 3) and at the
  ``oracles`` benchmark setting (2.0, 1.0, 2.3, 0.8) for seeds 41-43
  (``duality-<seed>``); ``bayes_error`` of N(+-1, 1) with 20,000 draws on
  stream 903 (``bayes-<seed>``); ``gmm_loglik`` of a shared-covariance and of
  a per-component k = 4 fit of the kmix dataset (``loglik-<seed>``, the EM
  runs' 30 iterations).  A Bayes error ``pe`` is a count over draws, so the
  test compares it exactly.

``tests/test_trajectories.py`` reruns every run and compares it with the
file at a relative tolerance.  A change that moves these numbers on purpose
reruns this script and commits the new file.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from gatgmm import cli, datagen, em, model, objective, optimizer, transport
from gatgmm.gausscore import SeededRng

OUT = Path(__file__).with_name("trajectories.json")
SEEDS = (41, 42, 43)
ROUNDS = {"isotropic": 700, "rotated": 160, "kmix": 300}
EM_ITERS = {"isotropic": 10, "rotated": 10, "kmix": 30}
# minibatch families: name -> (dataset kind, config fields over the shortened ones)
BATCH_SIZE = 101
VARIANTS = {
    "isotropic-batch": ("isotropic", {"batch_size": BATCH_SIZE, "disc_steps_per_gen_step": 2}),
    "kmix-batch": ("kmix", {"batch_size": BATCH_SIZE}),
}
PROBE_SEED = 7919  # the probe matrices' Philox seed; the stream names the quantity


def shortened_config(kind: str, seed: int, changes=None) -> optimizer.TrainConfig:
    fields = dict(cli._TRAIN_DEFAULTS[kind])
    fields.update(max_iters=ROUNDS[kind], eval_every=ROUNDS[kind] // 2, seed=seed,
                  **(changes or {}))
    return optimizer.TrainConfig(**fields)


def dataset(kind: str, seed: int) -> datagen.Dataset:
    return cli._MAKERS[kind](seed=seed)  # the CLI's task: the maker's defaults


def contract(a: np.ndarray, stream: int) -> float:
    """a summed against a seeded probe of its shape, uniform on [1, 2]: a
    positive probe keeps a covariance's positive diagonal from cancelling."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.sum(a * SeededRng(PROBE_SEED, stream).gen.uniform(1.0, 2.0, a.shape)))


def gda_run(kind: str, seed: int, changes=None) -> dict:
    ds = dataset(kind, seed)
    cfg = shortened_config(kind, seed, changes)
    rep = optimizer.train_gda(ds, cfg, objective.Anchors.from_data(ds.samples, cfg.k, cfg.lam),
                              truth=ds.meta.truth)
    out = {}
    for rec in rep.iterates:
        for name in ("objective", "grad_norm", "gmm_objective"):
            out[f"eval{rec.iteration}.{name}"] = float(getattr(rec, name))
    g = rep.final_gen
    out.update(mu_sq=float(np.sum(g.means ** 2)), cc_trace=float(np.sum(g.cov_factor ** 2)),
               mu_probe=contract(g.means, 1), c_probe=contract(g.cov_factor, 2))
    return out


def em_run(kind: str, seed: int) -> dict:
    xs = dataset(kind, seed).samples
    if kind == "kmix":
        args = {"k": 4, "shared_cov": True}
    else:
        args = {"k": 2, "symmetric2": True}
    fit, trace = em.em_fit(xs, seed=seed, max_iters=EM_ITERS[kind], tol=0.0, **args)
    out = {f"trace{i}": float(v) for i, v in enumerate(trace)}
    out.update(weights_probe=contract(fit.weights, 3), means_probe=contract(fit.means, 4),
               covs_probe=contract(fit.covs, 5))
    return out


def inner_run(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    d = 3
    mu, cov = 0.8 * rng.standard_normal(d), np.diag(rng.uniform(0.03, 0.1, d))
    truth = em.GmmParams.symmetric2(mu, cov)
    half = rng.standard_normal((40, d)) @ np.sqrt(cov) + mu
    xs = np.concatenate([half, -half])
    g = model.GeneratorParams(mode=model.SYMMETRIC2,
                              cov_factor=0.3 * np.eye(d) + 0.05 * rng.standard_normal((d, d)),
                              means=(mu + 0.3 * rng.standard_normal(d))[None, :])
    z, labels = rng.standard_normal((50, d)), rng.integers(0, 2, 50) * 2 - 1
    # above the margin of every side: sample and population data, latent and quadrature G
    need = max(float(np.mean(np.sum(xs ** 2, axis=1))), float(np.trace(truth.covs[0]) + mu @ mu))
    need += max(float(np.mean(np.sum(model.gen_apply(g, z, labels) ** 2, axis=1))),
                float(np.trace(model.gen_second_moment(g))))
    anchors = objective.Anchors.symmetric(mu / np.linalg.norm(mu), lam=need + 1.0)
    sides = {
        "tied_latent": objective.inner_max_solve(g, xs, anchors, z_eval=z, labels=labels),
        "tied_quadrature": objective.inner_max_solve(g, xs, anchors),
        "untied_latent": objective._inner_max(  # the generic game on the symmetric generator
            objective.BatchGame(anchors, g, objective.SampleMoments(xs), z, labels), 1e-8),
        "population": objective.inner_max_solve_population(g, mu, cov, anchors),
    }
    out = {}
    for side, (_, val) in sides.items():
        out.update({f"{side}.l1": val.l1, f"{side}.l2": val.l2, f"{side}.total": val.total})
    out["stationarity.sample"] = optimizer.stationarity_grad_norm(g, xs, anchors)
    out["stationarity.population"] = optimizer.stationarity_grad_norm(g, truth, anchors)
    return out


DUALITY_SETTINGS = {"verify-2": ((2.0, 1.0, 2.3, 0.8), 3), "verify-5": ((5.0, 1.0, 5.3, 0.8), 3),
                    **{f"duality-{seed}": ((2.0, 1.0, 2.3, 0.8), seed) for seed in SEEDS}}
BAYES_DRAWS, BAYES_STREAM = 20_000, 903


def duality_run(case: str) -> dict:
    args, seed = DUALITY_SETTINGS[case]
    res = transport.duality_gap_1d(*args, seed=seed)
    return {name: float(getattr(res, name)) for name in ("dual", "w2", "gap", "se", "bound", "pe")}


def bayes_run(seed: int) -> dict:
    mixture = em.GmmParams.symmetric2(np.array([1.0]), np.array([[1.0]]))
    return {"pe": transport.bayes_error(mixture, BAYES_DRAWS, SeededRng(seed, BAYES_STREAM))}


def loglik_run(seed: int) -> dict:
    xs = dataset("kmix", seed).samples
    out = {}
    for name, shared in (("shared", True), ("per_component", False)):
        fit, _ = em.em_fit(xs, 4, shared_cov=shared, max_iters=EM_ITERS["kmix"], tol=0.0,
                           seed=seed)
        out[name] = em.gmm_loglik(fit, xs)
    return out


RUNS = {
    **{f"gda/{kind}/{seed}": (gda_run, kind, seed) for kind in ROUNDS for seed in SEEDS},
    **{f"gda/{name}/{seed}": (gda_run, kind, seed, changes)
       for name, (kind, changes) in VARIANTS.items() for seed in SEEDS},
    **{f"em/{kind}/{seed}": (em_run, kind, seed) for kind in EM_ITERS for seed in SEEDS},
    **{f"inner/{seed}": (inner_run, seed) for seed in (1, 2)},
    **{f"transport/{case}": (duality_run, case) for case in DUALITY_SETTINGS},
    **{f"transport/bayes-{seed}": (bayes_run, seed) for seed in SEEDS},
    **{f"transport/loglik-{seed}": (loglik_run, seed) for seed in SEEDS},
}


def run(name: str) -> dict:
    fn, *args = RUNS[name]
    return fn(*args)


def relative_move(got: float, want: float) -> float:
    """|got - want| / |want|, or |got| where the pinned value is 0."""
    return abs(got - want) / abs(want) if want else abs(got)


def drift(names=None) -> dict:
    """The largest relative move of each run family's scalars against the
    committed file, over ``names`` (every run by default)."""
    pinned = json.loads(OUT.read_text())
    worst: dict[str, float] = {}
    for name in names or RUNS:
        got, want = run(name), pinned[name]
        if sorted(got) != sorted(want):
            raise SystemExit(f"{name}: the run's scalars are not the pinned ones")
        family = name.rsplit("/", 1)[0]
        worst[family] = max([worst.get(family, 0.0)]
                            + [relative_move(got[key], want[key]) for key in want])
    return worst


def write(runs: dict) -> None:
    OUT.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")


def add() -> list[str]:
    """Run and write the runs the committed file lacks, keeping every pinned
    scalar as it is; returns the names added."""
    pinned = json.loads(OUT.read_text())
    names = [name for name in RUNS if name not in pinned]
    write({**pinned, **{name: run(name) for name in names}})
    return names


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--drift", action="store_true",
                      help="print each run family's largest relative move against the "
                           "committed file and write nothing")
    mode.add_argument("--add", action="store_true",
                      help="write only the runs the committed file lacks")
    args = parser.parse_args()
    if args.drift:
        for family, move in drift().items():
            print(f"{family}: {move:.3g}")
    elif args.add:
        print("added:", " ".join(add()) or "nothing")
    else:
        write({name: run(name) for name in RUNS})


if __name__ == "__main__":
    main()
