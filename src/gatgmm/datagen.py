"""Synthetic dataset generation and CSV/sidecar-JSON file I/O.

A dataset is an (n, d) sample matrix plus provenance metadata: the
generating configuration, seed, and (when synthetic) the ground-truth
mixture, stored next to the CSV in ``<stem>.meta.json``.  CSV floats are
written with 17 significant digits so a save/load round trip is
bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .em import GmmParams
from .errors import InvalidInput, NotPsd, ParseError
from .gausscore import (
    SeededRng,
    as_count,
    as_gaussian,
    as_points,
    as_real,
    random_orthogonal,
    sqrtm_psd,
    symmetrize,
)
from .model import SHARED_COV, SYMMETRIC2, GeneratorParams, gen_sample_batch

__all__ = [
    "DatasetMeta",
    "Dataset",
    "make_isotropic",
    "make_rotated",
    "make_k_mixture",
    "redraw",
    "save_csv",
    "load_csv",
]


@dataclass(frozen=True)
class DatasetMeta:
    kind: str
    d: int
    n: int
    seed: int
    truth: GmmParams | None = None
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "n": self.n,
            "seed": self.seed,
            "truth": None if self.truth is None else self.truth.to_json(),
            "params": self.params,
        }

    @staticmethod
    def from_json(obj: dict) -> "DatasetMeta":
        truth = obj.get("truth")
        return DatasetMeta(
            kind=obj["kind"], d=int(obj["d"]), n=int(obj["n"]), seed=int(obj["seed"]),
            truth=None if truth is None else GmmParams.from_json(truth),
            params=obj.get("params", {}))


@dataclass(frozen=True)
class Dataset:
    samples: np.ndarray            # (n, d)
    meta: DatasetMeta | None = None

    def __post_init__(self):
        object.__setattr__(self, "samples", as_points(self.samples, what="dataset samples"))

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


def make_isotropic(d: int = 20, n: int = 640, scale: float = 0.03,
                   seed: int = 0) -> Dataset:
    """Symmetric two-component mixture with all-ones mean and scale * I
    covariance, scale > 0."""
    d, n = as_count(d, "d"), as_count(n, "n")
    scale = as_real(scale, "scale", positive=True)
    mu = np.ones(d)
    truth = GmmParams.symmetric2(mu, scale * np.eye(d))
    g = GeneratorParams(mode=SYMMETRIC2, cov_factor=np.sqrt(scale) * np.eye(d), means=mu)
    xs = gen_sample_batch(g, n, SeededRng(seed))
    meta = DatasetMeta(kind="isotropic", d=d, n=n, seed=seed, truth=truth,
                       params={"scale": scale})
    return Dataset(samples=xs, meta=meta)


def make_rotated(d: int = 100, n: int = 640, seed: int = 0) -> Dataset:
    """Symmetric two-component mixture with a randomly rotated covariance:
    eigenvalues uniform on (1/(2d), 1/2) in a Haar-random eigenbasis."""
    d, n = as_count(d, "d"), as_count(n, "n")
    rng = SeededRng(seed)
    eigs = rng.split(1).gen.uniform(1.0 / (2 * d), 0.5, size=d)
    q = random_orthogonal(d, rng.split(2))
    cov = symmetrize((q * eigs) @ q.T)
    factor = symmetrize((q * np.sqrt(eigs)) @ q.T)
    truth = GmmParams.symmetric2(np.ones(d), cov)
    g = GeneratorParams(mode=SYMMETRIC2, cov_factor=factor, means=np.ones(d))
    xs = gen_sample_batch(g, n, rng.split(3))
    meta = DatasetMeta(kind="rotated", d=d, n=n, seed=seed, truth=truth)
    return Dataset(samples=xs, meta=meta)


def make_k_mixture(d: int, k: int, means: np.ndarray, cov: np.ndarray,
                   n: int, seed: int = 0) -> Dataset:
    """Uniform-weight shared-covariance k-component mixture: k finite mean
    rows of width d and a finite PSD d x d covariance, else InvalidInput."""
    d, n, k = as_count(d, "d"), as_count(n, "n"), as_count(k, "k", 2)
    means = as_points(means, d, "means")
    if means.shape[0] != k:
        raise InvalidInput(f"means must be ({k}, {d}), got {means.shape}")
    cov = as_gaussian(means[0], cov)[1]
    try:
        factor = sqrtm_psd(cov)
    except NotPsd as exc:
        raise InvalidInput(f"cov must be positive semidefinite: {exc}") from exc
    truth = GmmParams(weights=np.full(k, 1.0 / k), means=means,
                      covs=np.repeat(cov[None], k, axis=0), shared_cov=True)
    g = GeneratorParams(mode=SHARED_COV, cov_factor=factor, means=means)
    meta = DatasetMeta(kind="kmix", d=d, n=n, seed=seed, truth=truth, params={"k": k})
    return Dataset(samples=gen_sample_batch(g, n, SeededRng(seed)), meta=meta)


def redraw(meta: DatasetMeta, seed: int) -> Dataset:
    """A fresh draw of the recipe ``meta`` records (kind, d, n, params,
    truth) at another seed."""
    if meta.kind == "isotropic" and "scale" in meta.params:
        return make_isotropic(meta.d, meta.n, meta.params["scale"], seed)
    if meta.kind == "rotated":
        return make_rotated(meta.d, meta.n, seed)
    if meta.kind == "kmix" and meta.truth is not None:
        t = meta.truth
        return make_k_mixture(meta.d, t.k, t.means, t.covs[0], meta.n, seed)
    raise InvalidInput(f"dataset kind {meta.kind!r} records no recipe to draw from")


def _meta_path(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def save_csv(ds: Dataset, path) -> None:
    """Write samples as CSV (17 significant digits) plus the meta sidecar."""
    path = Path(path)
    d = ds.d
    header = ",".join(f"x{i}" for i in range(d))
    row_fmt = ",".join(["%.17g"] * d) + "\n"  # one % per row, not one per value
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("".join([row_fmt % tuple(row) for row in ds.samples.tolist()]))
    if ds.meta is not None:
        with open(_meta_path(path), "w") as fh:
            json.dump(ds.meta.to_json(), fh, sort_keys=True, indent=1)
            fh.write("\n")


def load_csv(path) -> Dataset:
    """Read a dataset CSV; the sidecar is optional (meta is then absent)."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].split(",")
    if not all(name.strip() == f"x{i}" for i, name in enumerate(header)):
        raise ParseError(f"bad header {lines[0]!r}; expected x0,...,x{len(header) - 1}", line=1)
    d = len(header)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != d:
            raise ParseError(f"expected {d} columns, found {len(parts)}", line=lineno)
        try:
            rows.append([float(v) for v in parts])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    if not rows:
        raise ParseError("no data rows", line=2)
    meta = None
    mpath = _meta_path(path)
    if mpath.exists():
        try:
            meta = DatasetMeta.from_json(json.loads(mpath.read_text()))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad metadata {mpath}: {exc}") from exc
    return Dataset(samples=np.array(rows, dtype=np.float64), meta=meta)
