"""Seeded runs against the committed scalars of ``tests/data/trajectories.json``.

The fixture pins the benchmark's shortened GDA trainings, the EM fits and
the exact inner maxima (``tests/data/make_trajectories.py`` writes it).
A change that only makes code faster keeps every scalar within RTOL.  A
change of math on purpose reruns the script and commits the new file.

RTOL sits between two measurements on a 2-core Xeon with OpenBLAS 0.3.31:
running under OPENBLAS_CORETYPE = Haswell, Sandybridge or Prescott instead
of the default SkylakeX kernels moved no scalar by more than 2.8e-13
relative, and scaling the discriminator step lr_disc by (1 + 1e-9) moved
every GDA run by at least 2.6e-10 relative.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

DATA = Path(__file__).with_name("data")
RTOL = 1e-11

_spec = importlib.util.spec_from_file_location("make_trajectories",
                                               DATA / "make_trajectories.py")
make_trajectories = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_trajectories)
PINNED = json.loads((DATA / "trajectories.json").read_text())


def test_fixture_covers_every_run():
    assert sorted(PINNED) == sorted(make_trajectories.RUNS)


@pytest.mark.parametrize("name", sorted(make_trajectories.RUNS))
def test_run_matches_pinned_scalars(name):
    got, want = make_trajectories.run(name), PINNED[name]
    assert sorted(got) == sorted(want)
    moved = {key: (got[key], want[key]) for key in want
             if not math.isclose(got[key], want[key], rel_tol=RTOL, abs_tol=0.0)}
    assert not moved, f"{name}: scalars moved beyond rel {RTOL}: {moved}"


def test_drift_reports_each_family_and_writes_nothing():
    before = (DATA / "trajectories.json").read_bytes()
    moves = make_trajectories.drift(["inner/1", "inner/2"])
    assert list(moves) == ["inner"] and 0.0 <= moves["inner"] <= RTOL
    assert (DATA / "trajectories.json").read_bytes() == before
    assert make_trajectories.relative_move(3.0, 2.0) == 0.5
    assert make_trajectories.relative_move(1e-3, 0.0) == 1e-3


def test_add_writes_only_the_missing_runs(tmp_path, monkeypatch):
    fixture = tmp_path / "trajectories.json"
    kept = {name: PINNED[name] for name in PINNED if name != "inner/1"}
    kept["inner/2"] = {key: 1.0 for key in kept["inner/2"]}  # a pinned run it must not touch
    fixture.write_text(json.dumps(kept))
    monkeypatch.setattr(make_trajectories, "OUT", fixture)
    assert make_trajectories.add() == ["inner/1"]
    written = json.loads(fixture.read_text())
    assert sorted(written) == sorted(PINNED)
    assert {name: written[name] for name in kept} == kept
    assert all(math.isclose(written["inner/1"][key], want, rel_tol=RTOL, abs_tol=0.0)
               for key, want in PINNED["inner/1"].items())
