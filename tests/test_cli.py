import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gatgmm import cli, optimizer
from gatgmm.cli import main
from gatgmm.datagen import make_isotropic, save_csv
from gatgmm.em import GmmParams, gmm_loglik
from gatgmm.gausscore import SeededRng
from gatgmm.objective import LatentMoments
from gatgmm.optimizer import TrainConfig
from gatgmm.transport import sample_mixture


def run(args):
    return main(args)


def test_gen_data_and_roundtrip(tmp_path):
    out = tmp_path / "data"
    code = run(["gen-data", "--dataset", "isotropic", "--seed", "3", "--out", str(out),
                "--config", str(_cfg(tmp_path, {"dataset_params": {"d": 4, "n": 24}}))])
    assert code == 0
    csv = out / "isotropic.csv"
    assert csv.exists()
    assert (out / "isotropic.meta.json").exists()
    from gatgmm.datagen import load_csv
    ds = load_csv(csv)
    assert ds.samples.shape == (24, 4)
    assert ds.meta.seed == 3


def _cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def _small_train_cfg(tmp_path, **extra):
    cfg = {
        "dataset": "isotropic",
        "dataset_params": {"d": 3, "n": 64, "scale": 0.02},
        "train": {"max_iters": 400, "eval_every": 200, "sigma_init": 0.1},
    }
    cfg.update(extra)
    return _cfg(tmp_path, cfg)


def test_train_gatgmm_outputs(tmp_path):
    out = tmp_path / "run"
    code = run(["train", "--config", str(_small_train_cfg(tmp_path)),
                "--seed", "1", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "gatgmm"
    assert "metrics" in report and "final_params" in report
    assert "wall_clock_seconds" not in report
    assert (out / "params.json").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "scatter_xy.svg").exists()
    assert (out / "scatter_pca.svg").exists()
    assert (out / "timing.json").exists()
    rows = (out / "metrics.csv").read_text().splitlines()
    assert rows[0] == "iter,objective,grad_norm,gmm_objective"
    timing = json.loads((out / "timing.json").read_text())
    evals = timing["eval_seconds"]  # one per metrics.csv row, in order
    assert len(evals) == len(rows) - 1 and evals == sorted(evals)
    assert 0.0 < evals[-1] <= timing["wall_clock_seconds"]


def test_train_em_outputs(tmp_path):
    out = tmp_path / "run_em"
    code = run(["train", "--config", str(_small_train_cfg(tmp_path)),
                "--method", "em", "--seed", "1", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "em"
    assert json.loads((out / "timing.json").read_text())["wall_clock_seconds"] > 0.0
    trace = report["loglik_trace"]
    assert all(b - a >= -1e-9 for a, b in zip(trace, trace[1:]))


def test_train_deterministic_files(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["train", "--config", str(_small_train_cfg(tmp_path)),
                    "--seed", "5", "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "params.json").read_bytes() == (outs[1] / "params.json").read_bytes()
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()


def test_eval_subcommand(tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--config", str(_small_train_cfg(tmp_path)),
                "--seed", "1", "--out", str(out)]) == 0
    code = run(["eval", "--params", str(out / "params.json"),
                "--config", str(_small_train_cfg(tmp_path)), "--seed", "1"])
    assert code == 0


def test_compare_writes_table(tmp_path):
    out = tmp_path / "cmp"
    code = run(["compare", "--config", str(_small_train_cfg(tmp_path)),
                "--seed", "2", "--out", str(out)])
    assert code == 0
    rows = (out / "compare.csv").read_text().splitlines()
    assert rows[0] == "method,gmm_objective,nll"
    assert rows[1].startswith("gatgmm,")
    assert rows[2].startswith("em,")


def test_check_condition1(tmp_path, capsys):
    code = run(["check-condition1", "--dataset", "isotropic", "--seed", "0",
                "--config", str(_cfg(tmp_path, {"dataset_params": {"d": 5, "n": 64}}))])
    assert code == 0
    assert "holds=True" in capsys.readouterr().out


def test_check_condition1_needs_a_symmetric_truth(tmp_path, capsys):
    # the kmix truth has four components: Condition 1 is not defined for it
    cfg = _cfg(tmp_path, {"dataset_params": {"d": 4, "n": 64}})
    assert run(["check-condition1", "--dataset", "kmix", "--config", str(cfg)]) == 2
    assert "symmetric two-component" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["gatgmm", "em"])
def test_train_scores_an_unmirrored_two_component_kmix(tmp_path, method):
    # two components that are not mirrored: the matched score, not an exit 2
    params = {"d": 2, "k": 2, "n": 64, "means": [[1, 0], [0, 1]], "cov": [[0.05, 0], [0, 0.05]]}
    cfg = _cfg(tmp_path, {"dataset": "kmix", "dataset_params": params,
                          "train": {"k": 2, "max_iters": 60, "eval_every": 30}})
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--method", method, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    score = report["metrics"]["gmm_objective"]
    assert score is not None and 0.0 < score < float("inf")


def test_bad_dataset_is_config_error(tmp_path):
    assert run(["train", "--dataset", "nosuch", "--out", str(tmp_path)]) == 2


def test_missing_file_is_config_error(tmp_path):
    assert run(["train", "--dataset", f"file:{tmp_path}/missing.csv"]) == 2


@pytest.mark.parametrize("extra", [
    {"train": {"eval_every": 0}},
    {"anchor_policy": "fixed-vector", "anchor_vector": [1.0, 0.0]},
    {"train": {"no_such_field": 1}},
    {"dataset_params": {"d": "three"}},
    {"anchor_policy": "fixed-vector"},
    {"train": {"antithetic_from": 5}},
    {"train": {"latent_batch": 5}},
    {"anchor_policy": "princpal-eig"},
    {"datset_params": {"d": 3, "n": 64, "scale": 0.02}},
    {"train": {"tied": False}},
    {"train": {"project_feasible": True}},
])
def test_bad_train_config_is_config_error(tmp_path, extra):
    cfg = _small_train_cfg(tmp_path, **extra)
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert not (tmp_path / "bad").exists()  # refused before the output directory is made


def test_refused_compare_leaves_no_output_directory(tmp_path):
    cfg = _small_train_cfg(tmp_path, train={"no_such_field": 1})
    assert run(["compare", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert not (tmp_path / "bad").exists()


def test_shortened_run_pairs_its_second_half(tmp_path, monkeypatch):
    # `--iters 40` on the isotropic defaults: rounds 1-20 draw i.i.d. latents,
    # rounds 21-40 antithetic pairs (z, -z)
    paired = []

    def latent_moments(cov, mu, z):
        h = (len(z) + 1) // 2
        paired.append(np.array_equal(z[h:], -z[:len(z) - h]))
        return LatentMoments(cov, mu, z)

    monkeypatch.setattr(optimizer, "LatentMoments", latent_moments)
    cfg = _cfg(tmp_path, {"dataset_params": {"d": 3, "n": 64, "scale": 0.02}})
    assert run(["train", "--dataset", "isotropic", "--iters", "40", "--config", str(cfg),
                "--out", str(tmp_path / "run")]) == 0
    assert paired == [False] * 20 + [True] * 20


# a config file for a small d = 2 isotropic dataset
_D2 = {"c.json": '{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 16}}'}


# "@" in argv and in a file's text stands for the test's tmp_path; each case
# writes its files, then runs argv
@pytest.mark.parametrize("files, argv, env", [
    ({"c.json": "[1, 2]"}, ["train", "--config", "@c.json", "--out", "@run"], {}),
    ({"p.json": "{"}, ["eval", "--dataset", "isotropic", "--params", "@p.json"], {}),
    ({"p.json": '{"mode": "symmetric2"}'},
     ["eval", "--dataset", "isotropic", "--params", "@p.json"], {}),
    ({"s.json": "[{}, {}]"}, ["sweep", "--configs", "@s.json"], {"GATGMM_THREADS": "two"}),
    ({"d.csv": "x0,x1\n1,2\n3,4\n", "d.meta.json": '{"kind": "isotropic"}'},
     ["train", "--dataset", "file:@d.csv", "--out", "@run"], {}),
    ({"c.json": '{"dataset": 5}'}, ["train", "--config", "@c.json", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "isotropic", "out": 5, "dataset_params": {"d": 2, "n": 16}}'},
     ["train", "--config", "@c.json", "--method", "em"], {}),
    ({"c.json": '{"dataset": "isotropic", "seed": 1.5}'},
     ["train", "--config", "@c.json", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "isotropic", "seed": true}'},
     ["gen-data", "--config", "@c.json", "--out", "@run"], {}),
    ({"s.json": '[{"dataset": "isotropic", "method": "em", "out": 5}]'},
     ["sweep", "--configs", "@s.json"], {}),
    ({"p/": ""}, ["eval", "--dataset", "isotropic", "--params", "@p"], {}),
    ({"d.csv": "x0,x1\n1,2\n3,4\n", "d.meta.json/": ""},
     ["train", "--dataset", "file:@d.csv", "--method", "em", "--out", "@run"], {}),
    (_D2 | {"p.json": '{"weights": [0.5, 0.5], "means": [[NaN, 0], [0, 1]], '
                      '"covs": [[1, 0], [0, 1]]}'},
     ["eval", "--config", "@c.json", "--params", "@p.json"], {}),
    (_D2 | {"p.json": '{"weights": [NaN, 0.5], "means": [[1, 0], [-1, 0]], '
                      '"covs": [[1, 0], [0, 1]]}'},
     ["eval", "--config", "@c.json", "--params", "@p.json"], {}),
    (_D2 | {"taken": "a file"}, ["train", "--config", "@c.json", "--method", "em",
                                 "--out", "@taken"], {}),
    (_D2 | {"taken": "a file"}, ["gen-data", "--config", "@c.json", "--out", "@taken"], {}),
    (_D2, ["train", "--config", "@c.json", "--lr-gen", "nan", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "isotropic", "dataset_params": {"d": 2.7, "n": 16.9}}'},
     ["gen-data", "--config", "@c.json", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "kmix", "dataset_params": {"d": 4, "k": 2.5, "n": 16}}'},
     ["train", "--config", "@c.json", "--method", "em", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 16, "scale": true}}'},
     ["gen-data", "--config", "@c.json", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 16, "scale": "0.5"}}'},
     ["gen-data", "--config", "@c.json", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "kmix", "dataset_params": {"d": 4, "k": 2, "n": 16, '
                '"spread": true}}'},
     ["gen-data", "--config", "@c.json", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 16, "scale": -1}}'},
     ["train", "--config", "@c.json", "--method", "em", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 16, "scale": 0}}'},
     ["train", "--config", "@c.json", "--method", "em", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 16, "scale": NaN}}'},
     ["gen-data", "--config", "@c.json", "--out", "@run"], {}),
    ({"d.csv": "x0,x1\n1,2\n-1,-2\n", "d.meta.json": '{"kind": "isotropic", "d": 2, "n": 2, '
      '"seed": 0, "params": {"scale": "abc"}}'},
     ["train", "--dataset", "file:@d.csv", "--method", "em", "--holdout", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "kmix", "dataset_params": {"d": 2, "k": 2, "n": 16, '
                '"cov": [[-1, 0], [0, -1]]}}'},
     ["gen-data", "--config", "@c.json", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "kmix", "dataset_params": {"d": 2, "k": 2, "n": 16, "cov": "abc"}}'},
     ["gen-data", "--config", "@c.json", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "kmix", "dataset_params": {"d": 2, "k": 2, "n": 16, '
                '"means": "abc"}}'},
     ["gen-data", "--config", "@c.json", "--out", "@run"], {}),
    ({"s.json": '[{"dataset": "isotropic", "method": "em", "datset_params": {"d": 2}}]'},
     ["sweep", "--configs", "@s.json"], {}),
    ({"c.json": '{"dataset": "isotropic", "dataset_params": {"d": 3, "n": 8, "scal": 0.5}}'},
     ["train", "--config", "@c.json", "--method", "em", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "rotated", "dataset_params": {"d": 3, "n": 8, "scale": 0.5}}'},
     ["train", "--config", "@c.json", "--method", "em", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "kmix", "dataset_params": {"d": 2, "k": 2, "n": 16, "spred": 2}}'},
     ["gen-data", "--config", "@c.json", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "kmix", "dataset_params": {"d": 2, "k": 2, "n": 16, "spread": 2, '
                '"means": [[1, 0], [-1, 0]]}}'},
     ["gen-data", "--config", "@c.json", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 16, "seed": 3}}'},
     ["gen-data", "--config", "@c.json", "--out", "@run"], {}),
    ({"c.json": '{"dataset_params": {"scal": 9}}', "d.csv": "x0,x1\n1,2\n-1,-2\n"},
     ["train", "--config", "@c.json", "--dataset", "file:@d.csv", "--method", "em",
      "--out", "@run"], {}),
    ({"c.json": '{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 16}, "holdout": "no"}'},
     ["train", "--config", "@c.json", "--method", "em", "--out", "@run"], {}),
    ({"d.csv": "x0,x1\n1,2\n-1,-2\n", "d.meta.json": '{"kind": "isotropic", "d": 2, "n": 2.7, '
      '"seed": 0}'},
     ["train", "--dataset", "file:@d.csv", "--method", "em", "--out", "@run"], {}),
    ({"d.csv": "x0,x1\n1,2\n-1,-2\n", "d.meta.json": '{"kind": "isotropic", "d": 2, "n": 2, '
      '"seed": "5"}'},
     ["train", "--dataset", "file:@d.csv", "--method", "em", "--out", "@run"], {}),
    ({"d.csv": "x0,x1\n1,2\n-1,-2\n", "d.meta.json": '{"kind": "isotropic", "d": 2, "n": 3, '
      '"seed": 0}'},
     ["train", "--dataset", "file:@d.csv", "--method", "em", "--out", "@run"], {}),
    (_D2 | {"p.json": '{"mode": "symmetric2", "lambda": [[1, 0], [0, 1]], "means": [[1, 0]], '
                      '"A": [[1, 0], [0, 1]], "b": [[0, 0], [0, 0], [0, 0], [0, 0]], '
                      '"c": [0, 0, 0, 0], "tied": "false"}'},
     ["eval", "--config", "@c.json", "--params", "@p.json"], {}),
    ({"c.json": '{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 16}, '
                '"train": {"k": 4}}'},
     ["train", "--config", "@c.json", "--method", "em", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 16}, '
                '"train": {"mode": "x"}}'},
     ["train", "--config", "@c.json", "--out", "@run"], {}),
    ({"c.json": "{"}, ["train", "--config", "@c.json", "--out", "@run"], {}),
    ({}, ["train", "--method", "em", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "kmix", "dataset_params": {"d": 1, "k": 3, "n": 16, '
                '"means": [[1], [0], [-1]]}}'},
     ["train", "--config", "@c.json", "--out", "@run"], {}),
    ({"d.csv": "x0,x1\n1,2\n-1,-2\n"},
     ["train", "--dataset", "file:@d.csv", "--method", "em", "--holdout", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 16}, "method": "x"}'},
     ["train", "--config", "@c.json", "--out", "@run"], {}),
    ({"s.json": "["}, ["sweep", "--configs", "@s.json"], {}),
    ({"s.json": "{}"}, ["sweep", "--configs", "@s.json"], {}),
    ({"c.json": '{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 16}, '
                '"train": {"seed": 7}}'},
     ["train", "--config", "@c.json", "--method", "em", "--out", "@run"], {}),
    ({"c.json": '{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 16}, '
                '"train": {"seed": 7, "max_iters": 5}}'},
     ["compare", "--config", "@c.json", "--out", "@run"], {}),
    ({"s.json": '[{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 16}, "method": "em", '
                '"out": "@run", "train": {"seed": 7}}]'},
     ["sweep", "--configs", "@s.json"], {}),
], ids=["config-not-object", "params-not-json", "params-incomplete", "threads-not-integer",
        "meta-incomplete", "dataset-not-string", "out-not-string", "seed-not-integer",
        "seed-bool", "sweep-out-not-string", "params-directory", "meta-directory",
        "params-nan-mean", "params-nan-weight", "train-out-is-a-file",
        "gen-data-out-is-a-file", "lr-gen-nan", "dataset-count-not-integer",
        "kmix-k-not-integer", "scale-bool", "scale-string", "spread-bool", "scale-negative",
        "scale-zero", "scale-nan", "holdout-meta-scale-string", "kmix-cov-not-psd",
        "kmix-cov-string", "kmix-means-string", "sweep-unknown-key", "isotropic-param-typo",
        "rotated-param-scale", "kmix-param-typo", "kmix-spread-and-means", "dataset-param-seed",
        "file-dataset-params", "holdout-string", "sidecar-n-not-integer",
        "sidecar-seed-string", "sidecar-n-not-the-csv", "params-tied-string",
        "train-symmetric-k4", "train-mode-unknown", "config-not-json", "no-dataset",
        "kmix-anchors-above-d", "holdout-without-sidecar", "method-unknown",
        "sweep-not-json", "sweep-not-a-list", "train-seed", "compare-train-seed",
        "sweep-train-seed"])
def test_bad_input_is_config_error(tmp_path, monkeypatch, capsys, files, argv, env):
    for name, text in files.items():  # a name ending in "/" is a directory
        if name.endswith("/"):
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_text(text.replace("@", f"{tmp_path}/"))
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    assert run([a.replace("@", f"{tmp_path}/") for a in argv]) == 2
    assert "config error:" in capsys.readouterr().err
    # a refused command leaves nothing behind: no output directory, no file
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(n.rstrip("/") for n in files)


@pytest.mark.parametrize("method", ["em", "gatgmm"])
def test_sidecar_truth_of_another_dimension_is_a_config_error(tmp_path, capsys, method):
    # a 2-column CSV whose sidecar records a 3-dimensional truth is refused on load
    (tmp_path / "d.csv").write_text("x0,x1\n1,2\n-1,-2\n")
    truth = {"weights": [0.5, 0.5], "means": [[1, 1, 1], [-1, -1, -1]],
             "covs": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    (tmp_path / "d.meta.json").write_text(
        json.dumps({"kind": "isotropic", "d": 2, "n": 2, "seed": 0, "truth": truth}))
    argv = ["train", "--dataset", f"file:{tmp_path}/d.csv", "--method", method,
            "--out", str(tmp_path / "run")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "truth has dimension 3, the dataset d=2" in err
    assert not (tmp_path / "run").exists()


def test_kmix_default_means_need_k_at_most_2d(tmp_path, capsys):
    # the default means are +-e_i: at d = 2 they give 4 rows, so k = 5 needs given means
    cfg = _cfg(tmp_path, {"dataset": "kmix", "dataset_params": {"d": 2, "k": 5, "n": 16}})
    assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "k=5 and d=2 needs means" in err and "at most 2d = 4 rows" in err
    assert not (tmp_path / "run").exists()
    params = {"d": 2, "k": 4, "n": 16}
    assert cli._resolve_dataset({"dataset": "kmix", "dataset_params": params}).meta.truth.k == 4


def test_compare_kmix_reports_finite_scores(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"dataset": "kmix", "dataset_params": {"d": 4, "n": 64},
                          "train": {"max_iters": 60, "eval_every": 30, "sigma_init": 0.1}})
    assert run(["compare", "--config", str(cfg), "--seed", "4", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    for row in out.splitlines()[1:]:
        assert float(row.split(",")[1]) > 0.0


def test_eval_kmix_truth_scores_zero(tmp_path):
    cfg = {"dataset": "kmix", "dataset_params": {"d": 4, "n": 64}, "seed": 4}
    truth = cli._resolve_dataset(cfg).meta.truth
    params = _cfg(tmp_path, truth.to_json(), "truth.json")
    assert run(["eval", "--config", str(_cfg(tmp_path, cfg)), "--params", str(params),
                "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "metrics_record.json").read_text())
    assert record["gmm_objective"] == pytest.approx(0.0, abs=1e-10)


def test_train_kmix_defaults(tmp_path):
    assert run(["train", "--dataset", "kmix", "--iters", "50", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("dataset, params", [
    ("kmix", {"d": 4, "n": 64}),
    ("isotropic", {"d": 3, "n": 64, "scale": 0.02}),
])
def test_eval_reproduces_train_nll(tmp_path, dataset, params):
    cfg = _cfg(tmp_path, {"dataset": dataset, "dataset_params": params,
                          "train": {"max_iters": 60, "eval_every": 30, "sigma_init": 0.1}})
    assert run(["train", "--config", str(cfg), "--seed", "4", "--out", str(tmp_path / "run")]) == 0
    assert run(["eval", "--config", str(cfg), "--seed", "4", "--out", str(tmp_path / "ev"),
                "--params", str(tmp_path / "run" / "params.json")]) == 0
    trained = json.loads((tmp_path / "run" / "report.json").read_text())["metrics"]
    evaluated = json.loads((tmp_path / "ev" / "metrics_record.json").read_text())
    assert evaluated["nll"] == trained["nll"]


def test_holdout_redraws_the_file_dataset_recipe(tmp_path):
    data = tmp_path / "data"
    gen_cfg = _cfg(tmp_path, {"dataset_params": {"d": 3, "n": 40, "scale": 0.5}})
    assert run(["gen-data", "--dataset", "isotropic", "--config", str(gen_cfg), "--seed", "3",
                "--out", str(data)]) == 0
    out = tmp_path / "run"
    assert run(["train", "--dataset", f"file:{data}/isotropic.csv", "--method", "em",
                "--holdout", "--out", str(out)]) == 0
    fit = GmmParams.from_json(json.loads((out / "params.json").read_text()))
    truth = make_isotropic(d=3, n=40, scale=0.5, seed=3).meta.truth
    holdout = sample_mixture(truth, 40, SeededRng(3 + 104729))[0]
    nll = json.loads((out / "report.json").read_text())["metrics"]["nll"]
    assert nll == -gmm_loglik(fit, holdout)


@pytest.mark.parametrize("dataset, params", [
    ("rotated", {"d": 3, "n": 40}),
    ("kmix", {"d": 4, "n": 40}),
])
def test_holdout_redraws_rotated_and_kmix(tmp_path, dataset, params):
    cfg = {"dataset": dataset, "dataset_params": params}
    out = tmp_path / "run"
    assert run(["train", "--config", str(_cfg(tmp_path, cfg)), "--method", "em", "--seed", "3",
                "--holdout", "--out", str(out)]) == 0
    fit = GmmParams.from_json(json.loads((out / "params.json").read_text()))
    truth = cli._resolve_dataset(cfg | {"seed": 3}).meta.truth
    holdout = sample_mixture(truth, 40, SeededRng(3 + 104729))[0]
    nll = json.loads((out / "report.json").read_text())["metrics"]["nll"]
    assert nll == -gmm_loglik(fit, holdout)


# a config that sets every key a flag can set; no flag given leaves it as it is
_FLAG_CONFIG = {"dataset": "isotropic", "method": "gatgmm", "seed": 5, "out": "a",
                "holdout": False,
                "train": {"lam": 1.0, "lr_gen": 0.1, "lr_disc": 0.2,
                          "disc_steps_per_gen_step": 2, "max_iters": 7, "batch_size": 8}}


def _merged(tmp_path, flags, config=_FLAG_CONFIG):
    argv = ["train", "--config", str(_cfg(tmp_path, config)), *flags]
    return cli._merged_config(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("config", [_FLAG_CONFIG, _FLAG_CONFIG | {"holdout": True}])
def test_unset_flags_keep_the_config(tmp_path, config):
    assert _merged(tmp_path, [], config) == config


_OVERRIDES = [  # flags, whether the key is a train key, the key, its new value
    (["--dataset", "kmix"], False, "dataset", "kmix"),
    (["--method", "em"], False, "method", "em"),
    (["--seed", "0"], False, "seed", 0),
    (["--out", "b"], False, "out", "b"),
    (["--holdout"], False, "holdout", True),
    (["--lambda", "3.5"], True, "lam", 3.5),
    (["--lr-gen", "0.5"], True, "lr_gen", 0.5),
    (["--lr-disc", "0.25"], True, "lr_disc", 0.25),
    (["--disc-steps", "4"], True, "disc_steps_per_gen_step", 4),
    (["--iters", "9"], True, "max_iters", 9),
    (["--batch", "16"], True, "batch_size", 16),
]


@pytest.mark.parametrize("flags, train, key, value", _OVERRIDES,
                         ids=[flags[0] for flags, *_ in _OVERRIDES])
def test_flag_overrides_its_config_key(tmp_path, flags, train, key, value):
    want = json.loads(json.dumps(_FLAG_CONFIG))
    (want["train"] if train else want)[key] = value
    assert _merged(tmp_path, flags) == want


_RIGHT = {
    "int": st.integers(-2, 20),
    "float": st.sampled_from([-1.0, 0.0, 1e-3, 0.05, 0.5, 2.0, 1e3, float("nan"), float("inf")]),
    "str": st.sampled_from(["symmetric2", "shared_cov", "bogus"]),
}
_WRONG = st.sampled_from(["1", [1, 2], {"a": 1}, None, True, 1.5])
_KINDS = {f.name: f.type.partition(" | ")[0] for f in dataclasses.fields(TrainConfig)}


def _value(name):
    if name not in _KINDS:  # a field TrainConfig does not have
        return st.just(1)
    right = _RIGHT[_KINDS[name]]
    return st.one_of(right, right, right, _WRONG)


_TRAIN = st.lists(st.sampled_from(sorted(_KINDS) + ["grad_tol", "no_such_field"]),
                  max_size=4, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({n: _value(n) for n in names}))


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dataset=st.sampled_from(["isotropic", "kmix"]), d=st.integers(1, 3), train=_TRAIN,
       iters=st.integers(0, 20))
def test_random_train_configs_exit_cleanly(tmp_path, dataset, d, train, iters):
    train.setdefault("max_iters", iters)  # every int drawn is <= 20
    cfg = _cfg(tmp_path, {"dataset": dataset, "dataset_params": {"d": d, "n": 16},
                          "train": train})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) in (0, 2, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_is_numerical_failure(tmp_path):
    cfg = _cfg(tmp_path, {
        "dataset": "isotropic",
        "dataset_params": {"d": 3, "n": 32},
        "train": {"max_iters": 400, "eval_every": 400, "sigma_init": 0.1,
                  "lr_gen": 1e7, "lr_disc": 1e7},
    })
    assert run(["train", "--config", str(cfg), "--seed", "1",
                "--out", str(tmp_path / "boom")]) == 3


def test_overflowing_score_is_numerical_failure(tmp_path, capsys):
    # a valid scale of 1e300: the EM fit is finite, its transport score overflows
    cfg = _cfg(tmp_path, {"dataset": "isotropic",
                          "dataset_params": {"d": 2, "n": 16, "scale": 1e300}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["train", "--config", str(cfg), "--method", "em",
                    "--out", str(tmp_path / "run")]) == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_em_on_overflowing_data_is_numerical_failure(tmp_path, capsys):
    # finite samples whose covariance overflows
    (tmp_path / "d.csv").write_text("x0\n1e300\n-1e300\n1\n2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["train", "--dataset", f"file:{tmp_path}/d.csv", "--method", "em",
                    "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure:" in err and "Traceback" not in err


def _refuse(token):
    raise AssertionError(f"{token} written as a JSON number")


def _strict_json(path):
    """The file's JSON, refusing the NaN and Infinity tokens json.dump writes."""
    return json.loads(path.read_text(), parse_constant=_refuse)


def test_written_json_has_no_nan(tmp_path):
    # zero rounds, and a data file with no sidecar (no truth to score against)
    assert run(["train", "--config", str(_small_train_cfg(tmp_path)), "--iters", "0",
                "--out", str(tmp_path / "zero")]) == 0
    report = _strict_json(tmp_path / "zero" / "report.json")
    assert report["iterates"] == [] and report["metrics"]["gmm_objective"] is not None
    assert (tmp_path / "zero" / "metrics.csv").read_text() == \
        "iter,objective,grad_norm,gmm_objective\n"
    data = tmp_path / "data.csv"
    data.write_text("x0,x1\n1,2\n-1,-2.5\n1.5,2\n-1,-1.5\n")
    for method in ("gatgmm", "em"):
        out = tmp_path / method
        assert run(["train", "--dataset", f"file:{data}", "--method", method, "--iters", "4",
                    "--out", str(out)]) == 0
        assert _strict_json(out / "report.json")["metrics"]["gmm_objective"] is None
        for name in ("params.json", "timing.json"):
            _strict_json(out / name)
    assert run(["eval", "--dataset", f"file:{data}", "--params", str(tmp_path / "em/params.json"),
                "--out", str(tmp_path / "ev")]) == 0
    assert _strict_json(tmp_path / "ev" / "metrics_record.json")["gmm_objective"] is None


def _kmix_k3(tmp_path):
    # the kmix maker at k = 3: the run trains three components, not the default four
    cfg = _cfg(tmp_path, {"dataset": "kmix", "dataset_params": {"d": 4, "k": 3, "n": 64},
                          "train": {"max_iters": 40, "eval_every": 20}})
    return ["--config", str(cfg)]


def _kmix_file(tmp_path):
    # a CSV written by gen-data --dataset kmix: trained as the kmix task its sidecar records
    cfg = _cfg(tmp_path, {"dataset_params": {"d": 4, "n": 64}}, "gen.json")
    assert run(["gen-data", "--dataset", "kmix", "--config", str(cfg),
                "--out", str(tmp_path / "data")]) == 0
    return ["--dataset", f"file:{tmp_path}/data/kmix.csv", "--iters", "40"]


@pytest.mark.parametrize("method", ["gatgmm", "em"])
@pytest.mark.parametrize("dataset_args, k", [(_kmix_k3, 3), (_kmix_file, 4)], ids=["k3", "file"])
def test_kmix_run_trains_the_truths_law(tmp_path, dataset_args, k, method):
    out = tmp_path / "run"
    assert run(["train", *dataset_args(tmp_path), "--method", method, "--out", str(out)]) == 0
    params = _strict_json(out / "params.json")
    assert len(params["means"]) == k
    assert params.get("mode", "shared_cov") == "shared_cov"
    score = _strict_json(out / "report.json")["metrics"]["gmm_objective"]
    assert score is not None and 0.0 < score < float("inf")


def test_compare_kmix_file_reports_finite_scores(tmp_path, capsys):
    argv = ["compare", *_kmix_file(tmp_path), "--out", str(tmp_path / "cmp")]
    capsys.readouterr()
    assert run(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["gatgmm", "em"]
    for row in rows:
        assert 0.0 < float(row.split(",")[1]) < float("inf")


def test_file_run_is_named_after_the_recorded_kind(tmp_path, monkeypatch):
    argv = ["train", *_kmix_file(tmp_path), "--method", "em", "--seed", "2"]
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    assert (tmp_path / "runs" / "kmix-em-2" / "report.json").exists()
    # a kind with no trained defaults is named, and trained, as a file of no known kind
    (tmp_path / "d.csv").write_text("x0,x1\n1,2\n-1,-2\n")
    (tmp_path / "d.meta.json").write_text('{"kind": "../up", "d": 2, "n": 2, "seed": 0}')
    assert run(["train", "--dataset", "file:d.csv", "--method", "em"]) == 0
    assert (tmp_path / "runs" / "file-em-0" / "report.json").exists()
    assert not (tmp_path / "up-em-0").exists()


def test_holdout_flag(tmp_path):
    out = tmp_path / "run_h"
    code = run(["train", "--config", str(_small_train_cfg(tmp_path)),
                "--seed", "1", "--out", str(out), "--holdout"])
    assert code == 0


def test_verify_battery(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert "all 7 verification checks passed" in out


def test_unknown_flag_exits_2(capsys):
    assert run(["train", "--no-such-flag"]) == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err


def test_verify_exits_3_when_a_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli.transport, "w2_assignment_exact", lambda a, b: -1.0)
    assert run(["verify"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] assignment oracle equals permutation brute force" in out
    assert "1 verification check(s) failed" in out


def test_sweep_runs_configs(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GATGMM_THREADS", "1")
    cfgs = []
    for seed in (1, 2):
        cfgs.append({
            "dataset": "isotropic",
            "dataset_params": {"d": 2, "n": 32, "scale": 0.02},
            "seed": seed,
            "out": str(tmp_path / f"sweep{seed}"),
            "train": {"max_iters": 100, "eval_every": 100, "sigma_init": 0.1},
        })
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfgs))
    assert run(["sweep", "--configs", str(path)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_sweep_pool_never_exceeds_run_count(tmp_path, capsys, monkeypatch):
    class RecordingPool:
        sizes = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("GATGMM_THREADS", "64")
    cfgs = [{"dataset": "isotropic", "method": "em", "seed": seed,
             "dataset_params": {"d": 2, "n": 32}, "out": str(tmp_path / f"sweep{seed}")}
            for seed in (1, 2)]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfgs))
    assert run(["sweep", "--configs", str(path)]) == 0
    assert RecordingPool.sizes == [2]
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_sweep_pool_reports_a_diverged_run_as_numerical_failure(tmp_path, capsys, monkeypatch):
    # the real process pool: a worker's Diverged comes back whole, and exits 3
    monkeypatch.setenv("GATGMM_THREADS", "2")
    cfgs = [{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 32, "scale": 0.02},
             "seed": 1, "out": str(tmp_path / f"sweep{lr}"),
             "train": {"max_iters": 20, "eval_every": 10, "sigma_init": 0.1, "lr_gen": lr}}
            for lr in (1e-2, 1e300)]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfgs))
    assert run(["sweep", "--configs", str(path)]) == 3
    assert "numerical failure:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["train-only", "file-same-kind"])
def test_sweep_refuses_runs_that_write_one_directory(tmp_path, capsys, monkeypatch, case):
    # both runs default to runs/isotropic-gatgmm-0: the sweep exits 2 before either starts
    monkeypatch.chdir(tmp_path)
    if case == "train-only":
        cfgs = [{"dataset": "isotropic", "dataset_params": {"d": 2, "n": 32},
                 "train": {"max_iters": 20, "lr_gen": lr}} for lr in (0.01, 0.02)]
    else:
        for seed, name in enumerate("ab"):
            save_csv(make_isotropic(d=2, n=32, seed=seed), tmp_path / f"{name}.csv")
        cfgs = [{"dataset": f"file:{name}.csv", "train": {"max_iters": 20}} for name in "ab"]
    (tmp_path / "sweep.json").write_text(json.dumps(cfgs))
    before = sorted(tmp_path.iterdir())
    assert run(["sweep", "--configs", "sweep.json"]) == 2
    err = capsys.readouterr().err
    assert "sweep runs 1 and 2 both write" in err and "isotropic-gatgmm-0" in err
    assert sorted(tmp_path.iterdir()) == before
