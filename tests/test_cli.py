import json

import pytest

from gatgmm.cli import main


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
        "train": {"max_iters": 400, "eval_every": 200, "sigma_init": 0.1,
                  "antithetic_from": 200},
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
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "iter,objective,grad_norm,gmm_objective,seconds"


def test_train_em_outputs(tmp_path):
    out = tmp_path / "run_em"
    code = run(["train", "--config", str(_small_train_cfg(tmp_path)),
                "--method", "em", "--seed", "1", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "em"
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

    def strip_seconds(path):
        rows = path.read_text().splitlines()
        return [",".join(r.split(",")[:-1]) for r in rows]

    assert strip_seconds(outs[0] / "metrics.csv") == strip_seconds(outs[1] / "metrics.csv")


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


def test_bad_dataset_is_config_error(tmp_path):
    assert run(["train", "--dataset", "nosuch", "--out", str(tmp_path)]) == 2


def test_missing_file_is_config_error(tmp_path):
    assert run(["train", "--dataset", f"file:{tmp_path}/missing.csv"]) == 2


@pytest.mark.parametrize("extra", [
    {"train": {"eval_every": 0}},
    {"anchor_policy": "fixed-vector", "anchor_vector": [1.0, 0.0]},
])
def test_bad_train_config_is_config_error(tmp_path, extra):
    cfg = _small_train_cfg(tmp_path, **extra)
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_numerical_failure(tmp_path):
    cfg = _cfg(tmp_path, {
        "dataset": "isotropic",
        "dataset_params": {"d": 3, "n": 32},
        "train": {"max_iters": 400, "eval_every": 400, "sigma_init": 0.1,
                  "lr_gen": 1e7, "lr_disc": 1e7},
    })
    assert run(["train", "--config", str(cfg), "--seed", "1",
                "--out", str(tmp_path / "boom")]) == 3


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
