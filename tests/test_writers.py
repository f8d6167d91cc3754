"""The block CSV writer: the same bytes as formatting the whole file at once, in bounded memory."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nearq.cli import main
from nearq.core import CSV_BLOCK_ROWS, ActionSpace, OfflineDataset, save_csv
from nearq.envs import UNIFORM_RANDOM, CancerParams, simulate_cancer_cohort, save_trajectories_csv
from nearq.evalkit import save_blip_csv

C = CSV_BLOCK_ROWS
SIZES = [1, C - 1, C, C + 1, 2 * C + 1]


# Reference formatters: each builds the whole file as one string, one line per row.

def cohort_text(ds):
    d = ds.features.shape[1]
    lines = [",".join(["patient_id", "stage", *(f"cov_{j}" for j in range(d)), "action_index", "reward"])]
    for i, t, covs, a, r in zip(ds.patient.tolist(), ds.stage.tolist(), ds.features.tolist(),
                                ds.actions.tolist(), ds.rewards.tolist()):
        lines.append(f"{i},{t},{','.join(map(repr, covs))},{a},{r!r}")
    return "\n".join(lines) + "\n"


def trajectories_text(cohort):
    n_decisions = cohort.dose_index.shape[1]
    grid = [repr(v) for v in cohort.action_space.values]
    lines = ["patient_id,stage,tumor,toxicity,dose,reward,alive"]
    for i in range(len(cohort.tumor)):
        for t in range(n_decisions + 1):
            dose = grid[cohort.dose_index[i, t]] if t < n_decisions and cohort.dose_index[i, t] >= 0 else ""
            reward = repr(float(cohort.rewards[i, t])) if t < n_decisions and cohort.alive[i, t] else ""
            lines.append(f"{i},{t},{float(cohort.tumor[i, t])!r},{float(cohort.toxicity[i, t])!r},"
                         f"{dose},{reward},{int(cohort.alive[i, t])}")
    return "\n".join(lines) + "\n"


def blip_text(grid):
    return "\n".join(["x0,x1,blip"] + [f"{x0!r},{x1!r},{b!r}" for x0, x1, b in grid.tolist()]) + "\n"


def _cohort(n_rows, d=3, seed=0):
    """Two-stage cohort of ``n_rows`` rows; with an odd count the last patient stops after stage 0."""
    rng = np.random.default_rng(seed)
    rows = np.arange(n_rows)
    features = rng.normal(size=(n_rows, d)) * 10.0 ** rng.integers(-300, 300, size=(n_rows, d))
    features[::7, 0] = -0.0
    space = ActionSpace((0.0, 0.5, 1.0))
    return OfflineDataset.from_rows(rows // 2, rows % 2, features, rng.integers(0, 3, n_rows),
                                    rng.normal(size=n_rows), 1, (space, space), (d, d))


@pytest.mark.parametrize("n_rows", SIZES)
def test_save_csv_matches_the_whole_file_formatter_at_block_boundaries(tmp_path, n_rows):
    ds = _cohort(n_rows)
    save_csv(ds, tmp_path / "cohort.csv")
    assert (tmp_path / "cohort.csv").read_bytes() == cohort_text(ds).encode()


@pytest.fixture(scope="module")
def cancer_cohort():
    return simulate_cancer_cohort(CancerParams(), UNIFORM_RANDOM, 2 * C + 1, seed=5)


@pytest.mark.parametrize("n_patients", SIZES)
def test_save_trajectories_csv_matches_the_whole_file_formatter_at_block_boundaries(
    tmp_path, cancer_cohort, n_patients
):
    cohort = replace(cancer_cohort, **{
        name: getattr(cancer_cohort, name)[:n_patients]
        for name in ("tumor", "toxicity", "alive", "dose_index", "rewards")
    })
    if n_patients >= C - 1:  # patients who die and patients in remission on both sides of a block edge
        assert not cohort.alive[:, -1].all() and (cohort.tumor[:, -1] == 0).any()
    save_trajectories_csv(cohort, tmp_path / "trajectories.csv")
    assert (tmp_path / "trajectories.csv").read_bytes() == trajectories_text(cohort).encode()


@pytest.mark.parametrize("n_rows", SIZES)
def test_save_blip_csv_matches_the_whole_file_formatter_at_block_boundaries(tmp_path, n_rows):
    grid = np.random.default_rng(n_rows).normal(size=(n_rows, 3))
    save_blip_csv(grid, tmp_path / "blip.csv")
    assert (tmp_path / "blip.csv").read_bytes() == blip_text(grid).encode()


def _traced_peak_mb(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_save_csv_peak_memory_is_bounded_by_the_block(tmp_path):
    # 20,000 rows x 10 covariates: formatting the whole file at once peaks near 17 MB, a block at a time near 2.2 MB
    ds = _cohort(20_000, d=10)
    save_csv(ds, tmp_path / "warm.csv")
    assert _traced_peak_mb(lambda: save_csv(ds, tmp_path / "cohort.csv")) < 4.0


def test_itr_run_peak_memory_is_bounded(tmp_path):
    # nearq itr 3500/8750 peaks near 8.0 MB when each CSV is formatted whole, near 3.4 MB a block at a time
    argv = ["itr", "--seed", "2", "--n-train", "3500", "--n-test", "8750"]
    assert main(["itr", "--n-train", "40", "--n-test", "20", "--out", str(tmp_path / "warm")]) == 0
    assert _traced_peak_mb(lambda: main([*argv, "--out", str(tmp_path / "run")])) < 5.0
    assert (tmp_path / "run" / "run.meta").is_file()
