import json

import numpy as np
import pytest

from gatgmm.datagen import (
    Dataset,
    DatasetMeta,
    load_csv,
    make_isotropic,
    make_k_mixture,
    make_rotated,
    redraw,
    save_csv,
)
from gatgmm.errors import InvalidInput, ParseError
from gatgmm.gausscore import SeededRng
from gatgmm.transport import sample_mixture


@pytest.mark.parametrize("scale", [-1.0, 0.0, float("nan")])
def test_isotropic_rejects_a_scale_that_is_not_positive(scale):
    # a zero scale would make a dataset of two atoms, a negative one a nan
    # square root
    with pytest.raises(InvalidInput, match="scale"):
        make_isotropic(d=3, n=40, scale=scale, seed=0)


def test_isotropic_second_moment():
    ds = make_isotropic(d=5, n=100000, seed=1)
    truth = ds.meta.truth
    target = np.outer(truth.means[0], truth.means[0]) + truth.covs[0]
    emp = ds.samples.T @ ds.samples / ds.n
    assert np.linalg.norm(emp - target) <= 5 * np.linalg.norm(target) / np.sqrt(ds.n)


def test_isotropic_reproducible():
    a = make_isotropic(seed=7)
    b = make_isotropic(seed=7)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, make_isotropic(seed=8).samples)


def test_rotated_eigenvalue_range():
    ds = make_rotated(d=30, n=10, seed=2)
    eigs = np.linalg.eigvalsh(ds.meta.truth.covs[0])
    assert np.all(eigs > 1.0 / 60 - 1e-9)
    assert np.all(eigs < 0.5 + 1e-9)


def test_rotated_condition1_along_principal_direction():
    from gatgmm.metrics import condition1_check, principal_direction
    ds = make_rotated(seed=3)
    truth = ds.meta.truth
    holds, margin = condition1_check(truth.means[0], truth.covs[0],
                                     principal_direction(ds.samples))
    assert holds and margin > 0


def test_rotated_reproducible():
    assert np.array_equal(make_rotated(d=10, n=20, seed=5).samples,
                          make_rotated(d=10, n=20, seed=5).samples)


def test_k_mixture_reduces_to_symmetric_for_opposite_means():
    mu = np.array([1.0, -2.0])
    ds = make_k_mixture(d=2, k=2, means=np.stack([mu, -mu]), cov=0.1 * np.eye(2),
                        n=50000, seed=4)
    emp = ds.samples.T @ ds.samples / ds.n
    target = np.outer(mu, mu) + 0.1 * np.eye(2)
    assert np.linalg.norm(emp - target) <= 5 * np.linalg.norm(target) / np.sqrt(ds.n) * 2


@pytest.mark.parametrize("seed", [0, 41])
def test_k_mixture_defaults_are_the_kmix_task(seed):
    axes = 4.0 * np.eye(20)[:2]
    explicit = make_k_mixture(20, 4, np.concatenate([axes, -axes]), 0.05 * np.eye(20), 640, seed)
    ds = make_k_mixture(seed=seed)
    assert ds.samples.tobytes() == explicit.samples.tobytes()
    assert ds.meta.to_json() == explicit.meta.to_json()


def test_k_mixture_default_means_at_odd_k():
    # h = (k + 1) // 2 positive axes first, then the first k // 2 negated
    want = [[4.0, 0, 0, 0], [0, 4.0, 0, 0], [-4.0, 0, 0, 0]]
    assert np.array_equal(make_k_mixture(d=4, k=3, n=8).meta.truth.means, want)


def test_k_mixture_default_means_need_k_at_most_2d():
    with pytest.raises(InvalidInput, match=r"k=5 and d=2 needs means.*at most 2d = 4 rows"):
        make_k_mixture(d=2, k=5, n=16)
    assert make_k_mixture(d=2, k=4, n=16).meta.truth.k == 4
    assert make_k_mixture(d=2, k=5, means=np.ones((5, 2)), n=16).meta.truth.k == 5


def test_k_mixture_label_frequencies():
    means = 4.0 * np.eye(4)
    ds = make_k_mixture(d=4, k=4, means=means, cov=0.01 * np.eye(4), n=40000, seed=5)
    # assign each sample to the nearest mean
    dists = ((ds.samples[:, None, :] - means[None]) ** 2).sum(axis=2)
    counts = np.bincount(np.argmin(dists, axis=1), minlength=4) / ds.n
    assert np.all(np.abs(counts - 0.25) <= 5 * np.sqrt(0.25 * 0.75 / ds.n) + 0.01)


_EDGE_ROWS = np.array([[-0.0, 5e-324, 1e308],
                       [-1e308, -5e-324, 0.0],
                       [-0.1, 2.0 / 3.0, -123456789.125],
                       [np.nextafter(1.0, 2.0), -np.pi, 1e-300]])


def test_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    cases = [rng.standard_normal((n, d)) * 10 ** rng.integers(-8, 8)
             for d, n in ((3, 17), (100, 50))]
    for i, samples in enumerate(cases + [_EDGE_ROWS]):
        path = tmp_path / f"case_{i}.csv"
        save_csv(Dataset(samples=samples), path)
        back = load_csv(path)
        assert np.array_equal(back.samples.view(np.uint64), samples.view(np.uint64))  # -0.0 too
        assert back.meta is None


def test_csv_bytes_match_per_value_format(tmp_path):
    # the row format holds one "%.17g" per value: the file is what formatting
    # each value on its own writes
    path = tmp_path / "edge.csv"
    save_csv(Dataset(samples=_EDGE_ROWS), path)
    want = "x0,x1,x2\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                   for row in _EDGE_ROWS)
    assert path.read_bytes() == want.encode()


def test_csv_meta_roundtrip(tmp_path):
    ds = make_isotropic(d=4, n=12, seed=9)
    path = tmp_path / "iso.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.samples, ds.samples)
    assert back.meta.kind == "isotropic"
    assert back.meta.seed == 9
    assert np.array_equal(back.meta.truth.means, ds.meta.truth.means)


@pytest.mark.parametrize("field, value", [
    ("n", 2.7), ("d", True), ("n", "12"), ("seed", "5"), ("seed", 1.5), ("kind", ["kmix"]),
    ("n", 11), ("d", 3),
])
def test_csv_bad_sidecar_field_raises(tmp_path, field, value):
    # a field of the wrong type, or a d or n that disagrees with the CSV itself
    path = tmp_path / "iso.csv"
    save_csv(make_isotropic(d=4, n=12, seed=9), path)
    meta_path = tmp_path / "iso.meta.json"
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps(meta | {field: value}))
    with pytest.raises(ParseError, match=rf"\b{field}( must|=)"):
        load_csv(path)


def test_csv_sidecar_truth_of_another_dimension_raises(tmp_path):
    path = tmp_path / "iso.csv"
    save_csv(make_isotropic(d=2, n=12, seed=9), path)
    meta_path = tmp_path / "iso.meta.json"
    truth = make_isotropic(d=3, n=1).meta.truth.to_json()
    meta_path.write_text(json.dumps(json.loads(meta_path.read_text()) | {"truth": truth}))
    with pytest.raises(ParseError, match=r"truth has dimension 3, the dataset d=2"):
        load_csv(path)


def test_redraw_of_rotated_comes_from_its_truth():
    # the holdout is the recorded law's draw; a rerun of make_rotated at the
    # holdout seed would also draw a new rotation
    ds = make_rotated(d=3, n=20000, seed=3)
    truth, seed = ds.meta.truth, 3 + 104729
    held = redraw(ds.meta, seed)
    assert held.samples.tobytes() == sample_mixture(truth, ds.n, SeededRng(seed))[0].tobytes()
    assert held.meta.seed == seed and held.meta.truth is truth
    law = truth.covs[0] + np.outer(truth.means[0], truth.means[0])  # mean 0 by symmetry
    assert np.abs(np.cov(held.samples, rowvar=False, bias=True) - law).max() < 0.05


def test_redraw_needs_a_truth():
    with pytest.raises(InvalidInput, match="no truth"):
        redraw(DatasetMeta(kind="isotropic", d=2, n=4, seed=0), 1)


def test_sidecar_params_disagreeing_with_the_truth_are_ignored(tmp_path):
    # the sidecar's truth is the one record of the law: a stale params object
    # loads and the holdout still follows the truth
    path = tmp_path / "iso.csv"
    ds = make_isotropic(d=3, n=40, scale=0.03, seed=9)
    save_csv(ds, path)
    meta_path = tmp_path / "iso.meta.json"
    meta = json.loads(meta_path.read_text())
    assert "params" not in meta
    meta_path.write_text(json.dumps(meta | {"params": {"scale": 5}}))
    back = load_csv(path)
    assert np.array_equal(back.meta.truth.covs, ds.meta.truth.covs)
    assert np.array_equal(redraw(back.meta, 5).samples,
                          sample_mixture(ds.meta.truth, 40, SeededRng(5))[0])


def test_csv_ragged_row_raises(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1\n1.0,2.0\n3.0\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.line == 3


@pytest.mark.parametrize("text, line", [("", 1), ("x0,x1\n", 2), ("x0,x1\n\n \n", 2)],
                         ids=["empty", "header-only", "blank-rows-only"])
def test_csv_without_data_rows_raises(tmp_path, text, line):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.line == line


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("x0,x1\n1.0,2.0\n\n  \n3.0,4.0\n")
    assert np.array_equal(load_csv(path).samples, [[1.0, 2.0], [3.0, 4.0]])


def test_csv_bad_header_raises(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ParseError):
        load_csv(path)


def test_csv_bad_float_raises(tmp_path):
    path = tmp_path / "bad3.csv"
    path.write_text("x0\n1.0\nxyz\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.line == 3
