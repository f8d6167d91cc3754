"""The block CSV writers: the same bytes as formatting the whole file at once, in bounded memory."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nearq.core
from nearq.cli import main
from nearq.core import CSV_BLOCK_ROWS, ActionSpace, OfflineDataset, save_csv, write_csv
from nearq.envs import UNIFORM_RANDOM, CancerCohort, CancerParams, simulate_cancer_cohort, save_trajectories_csv
from nearq.evalkit import save_blip_csv

C = CSV_BLOCK_ROWS
EDGES = [1, C - 1, C, C + 1, 2 * C + 1]  # record counts at the first block edges
SIZES = [1, 16 * C - 1, 16 * C, 16 * C + 1, 32 * C + 1]  # the same edges, many blocks in


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
    return simulate_cancer_cohort(CancerParams(), UNIFORM_RANDOM, max(SIZES), seed=5)


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


def _first(cohort, n_patients):
    return replace(cohort, **{
        name: getattr(cohort, name)[:n_patients] for name in ("tumor", "toxicity", "alive", "dose_index", "rewards")
    })


def _assert_cohort_files(tmp_path, cohort):
    """trajectories.csv and train.csv written in one pass equal the whole-file formatters, and
    train.csv with its sidecar equals what save_csv writes for the cohort's dataset."""
    save_trajectories_csv(cohort, tmp_path / "trajectories.csv", train=tmp_path / "train.csv")
    save_csv(cohort.dataset, tmp_path / "alone.csv")
    assert (tmp_path / "trajectories.csv").read_bytes() == trajectories_text(cohort).encode()
    assert (tmp_path / "train.csv").read_bytes() == cohort_text(cohort.dataset).encode()
    for suffix in ("", ".meta.json"):
        assert (tmp_path / f"train.csv{suffix}").read_bytes() == (tmp_path / f"alone.csv{suffix}").read_bytes()


@pytest.mark.parametrize("n_patients", EDGES)
def test_one_pass_cohort_files_match_save_csv_and_the_formatter(tmp_path, cancer_cohort, n_patients):
    cohort = _first(cancer_cohort, n_patients)
    if n_patients == 2 * C + 1:  # somebody dies in every month
        assert (cohort.alive[:, :-1] & ~cohort.alive[:, 1:]).any(axis=0).all()
    _assert_cohort_files(tmp_path, cohort)


@pytest.mark.parametrize("n_patients", [1, C + 1])
def test_one_pass_cohort_files_when_everyone_dies_at_stage_zero(tmp_path, n_patients):
    cohort = simulate_cancer_cohort(CancerParams(hazard_intercept=50.0), UNIFORM_RANDOM, n_patients, seed=3)
    assert not cohort.alive[:, 1:].any()
    _assert_cohort_files(tmp_path, cohort)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
               1e-300, -1e300, 1.7976931348623157e308, 0.1, 15.0, -5.0, -60.0]
FLOATS = st.one_of(st.sampled_from([0.0, -0.0]), st.sampled_from(EDGE_FLOATS), st.floats())


@st.composite
def float_runs(draw):
    """A float64 array made of runs of repeated values."""
    runs = draw(st.lists(st.tuples(FLOATS, st.integers(1, 9)), min_size=1, max_size=30))
    return np.repeat(np.array([v for v, _ in runs], dtype=float), [k for _, k in runs])


def _cohort_holding(values, last_alive):
    """A 3-month cohort whose rewards and states are ``values`` cycled, patient i alive at months
    0..last_alive[i]; a state after death is carried forward, as the rollouts leave it."""
    n_stages, n = 3, len(last_alive)
    alive = np.arange(n_stages + 1) <= np.asarray(last_alive)[:, None]
    decided = alive[:, :-1]
    states = [np.resize(v, (n, n_stages + 1)) for v in (values, values[::-1])]
    for t in range(1, n_stages + 1):
        for state in states:
            state[~alive[:, t - 1], t] = state[~alive[:, t - 1], t - 1]
    rewards = np.where(decided, np.resize(values, (n, n_stages)), 0.0)
    dose_index = np.where(decided, np.arange(n * n_stages).reshape(n, n_stages) % 3, -1)
    return CancerCohort(*states, alive, dose_index, rewards, ActionSpace((0.0, 0.5, 1.0)))


@settings(max_examples=150, deadline=None)
@given(values=float_runs(), last_alive=st.lists(st.integers(0, 3), min_size=1, max_size=12))
@example(values=np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0]), last_alive=[3, 3])
def test_every_written_float_is_its_repr(tmp_path_factory, values, last_alive):
    # blocks of 2 records: runs, signed zeros and subnormals fall on both sides of block edges
    out = tmp_path_factory.mktemp("floats")
    with mock.patch.object(nearq.core, "CSV_BLOCK_ROWS", 2):
        write_csv(out / "values.csv", "value", values)
        assert (out / "values.csv").read_text().splitlines()[1:] == [repr(float(v)) for v in values]
        _assert_cohort_files(out, _cohort_holding(values, last_alive))


@st.composite
def integer_arrays(draw):
    """An int8, int64 or uint64 array whose values span up to 400 integers from any start."""
    dtype = np.dtype(draw(st.sampled_from(["int8", "int64", "uint64"])))
    info = np.iinfo(dtype)
    lo = draw(st.integers(int(info.min), int(info.max)))
    width = draw(st.integers(0, min(int(info.max) - lo, 400)))
    return np.array(draw(st.lists(st.integers(lo, lo + width), max_size=300)), dtype=dtype)


@settings(max_examples=200, deadline=None)
@given(values=integer_arrays())
@example(values=np.array([], dtype=np.int64))
@example(values=np.array([-7], dtype=np.int8))
@example(values=np.full(5, -3, dtype=np.int64))
@example(values=np.array([-10**18, 0, 10**18, 3], dtype=np.int64))  # wider span than length
@example(values=np.tile(np.arange(-100, 101, dtype=np.int8), 2))  # int8 differences wrap
@example(values=np.tile(np.arange(-128, 128, dtype=np.int8), 2))  # every int8
@example(values=np.array([2**64 - 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64))
@example(values=np.repeat(np.arange(-5, 40), 7)[::-3])  # a strided view
def test_integer_cells_are_the_str_of_each_value(values):
    assert nearq.core.cell_texts(values) == list(map(str, values.tolist()))


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
