"""The block CSV writers: the same bytes as formatting the whole file at once, in bounded memory."""

import json
import math
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nearq.core
from nearq.cli import main
from nearq.core import (
    CSV_BLOCK_ROWS,
    FLOAT_KERNEL_MIN_SIZE,
    ActionSpace,
    FloatTexts,
    OfflineDataset,
    cell_texts,
    save_csv,
    write_csv,
)
from nearq.envs import UNIFORM_RANDOM, CancerCohort, CancerParams, simulate_cancer_cohort, save_trajectories_csv
from nearq.evalkit import EvalResult, save_blip_csv, save_results_csvs
from nearq.qlearn import backward_fit, save_stack, stack_from_dict, stack_to_dict
from nearq.regression import DesignSpec

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
    """trajectories.csv and train.csv, written by one save_trajectories_csv call (one write_csv call
    each), equal the whole-file formatters, and train.csv with its sidecar equals what save_csv
    writes for the cohort's dataset."""
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


def records_text(values, texts, index):
    """Whole-file reference of 2-D columns: record i is one line ``i,j,values[i, j],texts[index[i, j]]``
    per entry j of its row."""
    lines = ["record,entry,value,text"]
    for i, (row, at) in enumerate(zip(values.tolist(), index.tolist())):
        lines.extend(f"{i},{j},{v!r},{texts[k]}" for j, (v, k) in enumerate(zip(row, at)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block_rows", [3, C])
@pytest.mark.parametrize("n_records", EDGES)
def test_2d_columns_match_the_whole_file_formatter_at_block_boundaries(tmp_path, monkeypatch, n_records,
                                                                       block_rows):
    # a record of 3 lines, as trajectories.csv writes a patient's months: a 2-D float array, a (texts,
    # 2-D index) column that is not contiguous, and broadcast record and entry numbers
    monkeypatch.setattr(nearq.core, "CSV_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(n_records)
    values = rng.normal(size=(n_records, 3))
    values[::5, 1] = -0.0
    ((texts, index),) = FloatTexts(rng.choice([-1.5, -0.0, 0.0, 0.25, 5e-324], size=(n_records, 3))).columns
    index = index[:, ::-1]
    write_csv(tmp_path / "records.csv", "record,entry,value,text",
              np.broadcast_to(np.arange(n_records)[:, None], (n_records, 3)), np.broadcast_to(np.arange(3), (n_records, 3)),
              values, (texts, index))
    assert (tmp_path / "records.csv").read_bytes() == records_text(values, texts, index).encode()


@pytest.mark.parametrize("columns", [
    (np.zeros((5, 2)), np.arange(5)),  # a 2-D column beside a 1-D one of the same length
    (np.arange(5), (["a", "b"], np.zeros((5, 2), dtype=int))),  # a 2-D index beside a 1-D column
    (np.zeros((5, 2)), np.zeros((5, 3))),  # records of different line counts
    (np.arange(5), np.arange(6)),  # a longer column after a shorter one
    (np.arange(6), (["a"], np.zeros(5, dtype=int))),
], ids=["2d-beside-1d", "2d-index-beside-1d", "different-widths", "longer-second", "shorter-second"])
def test_columns_of_different_shapes_raise_before_the_file_is_opened(tmp_path, columns):
    with pytest.raises(ValueError, match="one shape is expected"):
        write_csv(tmp_path / "bad.csv", "a,b", *columns)
    assert not (tmp_path / "bad.csv").exists()


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


def _float_bits(value: float) -> int:
    return int(np.array(value).view(np.uint64))


# NaNs of either sign and any payload, quiet or signalling
NAN_BITS = st.builds(lambda sign, payload: sign << 63 | 0x7FF << 52 | payload, st.integers(0, 1),
                     st.integers(1, 2**52 - 1))
INF_BITS = st.sampled_from([_float_bits(math.inf), _float_bits(-math.inf)])
ENTRY_BITS = st.one_of(FLOATS.map(_float_bits), NAN_BITS, INF_BITS)


@st.composite
def float_arrays(draw):
    """A float64 array of drawn bit patterns, often empty, often a strided view, sometimes 2-D."""
    values = np.array(draw(st.lists(ENTRY_BITS, max_size=40)), dtype=np.uint64).view(np.float64)
    values = values[::draw(st.integers(1, 3))]
    if len(values) % 2 == 0 and draw(st.booleans()):
        values = values.reshape(-1, 2)[:, ::-1]  # 2-D and not contiguous
    return values


@settings(max_examples=200, deadline=None)
@given(arrays=st.lists(float_arrays(), min_size=1, max_size=4), probe=float_arrays())
@example(arrays=[np.array([0.0, -0.0, 0.0]), np.array([-0.0])], probe=np.array([-0.0, 0.0]))
@example(arrays=[np.array([], dtype=float)], probe=np.array([], dtype=float))
@example(arrays=[np.array([_float_bits(math.nan), 0x7FF0000000000001, 0xFFF8000000000002], dtype=np.uint64)
                 .view(np.float64)], probe=np.array([math.nan]))
def test_float_texts_give_each_entry_the_cell_text_of_that_entry_alone(arrays, probe):
    table = FloatTexts(*arrays)
    for array, (texts, index) in zip(arrays, table.columns, strict=True):
        assert texts is table.texts and index.shape == array.shape
        flat = array.reshape(-1)
        alone = [cell_texts(flat[k:k + 1])[0] for k in range(flat.size)]
        assert [texts[k] for k in index.reshape(-1).tolist()] == alone
    # one text per distinct bit pattern, so -0.0 and 0.0, and NaNs of different payloads, stay apart
    bits = np.concatenate([np.ascontiguousarray(a).reshape(-1).view(np.int64) for a in arrays])
    assert table.keys.tolist() == sorted(set(bits.tolist())) and table.texts[len(table.keys):] == [""]
    zeros = [text for value, text in zip(table.keys.view(np.float64).tolist(), table.texts) if value == 0.0]
    assert sorted(zeros) in ([], ["-0.0"], ["0.0"], ["-0.0", "0.0"])
    # looked up by bits: in this table, in one holding part of it, and in an empty one
    for known in (table, FloatTexts(*arrays[1:]), FloatTexts()):
        for values in (probe, *arrays):
            assert known.texts_of(values) == cell_texts(values.reshape(-1))


def _binades(rng, size, lo, hi):
    """Doubles of random sign and significand whose binary exponents run from ``lo`` to ``hi``."""
    significand = rng.integers(2**52, 2**53, size).astype(float)
    return rng.choice([-1.0, 1.0], size) * np.ldexp(significand, rng.integers(lo, hi + 1, size) - 52)


_POWERS = np.array([2.0**j for j in range(-14, 51)] + [10.0**j for j in range(-4, 16)])
_POWERS = np.concatenate([_POWERS, np.nextafter(_POWERS, 0.0), np.nextafter(_POWERS, math.inf)])
# the ends of the fixed-notation range, 1e-4 and 1e15, and the 16 doubles on each side of them
_ENDS = (np.array([1e-4, 1e15]).view(np.int64)[:, None] + np.arange(-16, 17)).ravel().view(np.float64)
_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf, -math.inf, math.nan])

FIXED_RANGE_FAMILIES = {
    "bit patterns": lambda rng, n: rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64),
    "exponents of the range": lambda rng, n: _binades(rng, n, -14, 49),
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, n),
    "scaled normals": lambda rng, n: rng.normal(size=n) * 10.0 ** rng.integers(-4, 16, n),
    "decimals": lambda rng, n: np.round(rng.uniform(-1000.0, 1000.0, n), rng.integers(0, 6)),
    "integers": lambda rng, n: rng.integers(-10**15 + 1, 10**15, n).astype(float),
    "powers of 2 and 10 and their neighbours": lambda rng, n: rng.choice([-1.0, 1.0], n) * rng.choice(_POWERS, n),
    "ends of the range": lambda rng, n: rng.choice([-1.0, 1.0], n) * rng.choice(_ENDS, n),
    "ties of 2**40 to 2**49": lambda rng, n: _binades(rng, n, 40, 49),
    "specials among normals": lambda rng, n: np.where(rng.random(n) < 0.2, rng.choice(_SPECIALS, n),
                                                     rng.normal(size=n) * 10.0 ** rng.integers(-4, 16, n)),
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(family=st.sampled_from(sorted(FIXED_RANGE_FAMILIES)), seed=st.integers(0, 2**64 - 1),
       size=st.integers(FLOAT_KERNEL_MIN_SIZE, 2 * nearq.core._FIXED_PASS + 1), step=st.sampled_from([1, 1, 3]))
def test_cell_texts_of_a_float_array_past_the_kernel_size_are_the_repr_of_each_value(family, seed, size, step):
    # arrays that cell_texts formats from the bits where 1e-4 <= |x| < 1e15, in one or more passes, and
    # by repr elsewhere
    values = FIXED_RANGE_FAMILIES[family](np.random.default_rng(seed), size * step)[::step]
    assert cell_texts(values) == list(map(repr, values.tolist()))


def blip_grid(n_rows, seed):
    """Blip rows whose x0 and x1 repeat a few grid values, signed zeros among them, as a blip grid does."""
    rng = np.random.default_rng(seed)
    axis = np.array([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0])
    return np.column_stack([rng.choice(axis, n_rows), rng.choice(axis, n_rows), rng.normal(size=n_rows)])


@pytest.mark.parametrize("block_rows", [3, C])
@pytest.mark.parametrize("n_rows", SIZES)
def test_save_blip_csv_matches_the_whole_file_formatter_at_block_boundaries(tmp_path, monkeypatch, n_rows,
                                                                            block_rows):
    monkeypatch.setattr(nearq.core, "CSV_BLOCK_ROWS", block_rows)
    grid = blip_grid(n_rows, n_rows)
    save_blip_csv(grid, tmp_path / "blip.csv")
    assert (tmp_path / "blip.csv").read_bytes() == blip_text(grid).encode()


def curves_text(results):
    lines = ["policy_label,month,mean_combined,stderr_combined,mean_cum_reward"]
    for res in results:
        lines.extend(f"{res.label},{t},{mean!r},{err!r},{res.mean_cum_reward!r}"
                     for t, (mean, err) in enumerate(zip(res.mean_combined, res.stderr_combined)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block_rows", [3, C])
@pytest.mark.parametrize("n_policies", [1, 2, 40])
def test_save_results_csvs_match_the_whole_file_formatter_at_block_boundaries(tmp_path, monkeypatch, n_policies,
                                                                              block_rows):
    # files that share their first results, as each tolerance's curves share the baselines and opt
    monkeypatch.setattr(nearq.core, "CSV_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(n_policies)

    def result(label):
        mean, err = rng.normal(size=(2, 7)).round(rng.integers(0, 3))
        return EvalResult(label, tuple(mean.tolist()), tuple(err.tolist()), float(rng.choice([-0.0, 0.0, 2.5])), 0.0)

    shared = [result(f"p{j}") for j in range(n_policies)]
    files = {tmp_path / f"curves{k}.csv": shared + [result(f"f{k}r{j}") for j in range(k)] for k in range(3)}
    save_results_csvs(files)
    for path, results in files.items():
        assert path.read_bytes() == curves_text(results).encode()


def _stack_dataset(seed, n_patients, zeros):
    """A small cancer training set in which nobody dies and the highest dose is never given, so its
    action falls back to the mean at every stage, with ``-0.0`` at the drawn feature cells."""
    ds = simulate_cancer_cohort(CancerParams(hazard_intercept=-math.inf), UNIFORM_RANDOM, n_patients, seed).dataset
    features = ds.features.copy()
    features.flat[[k % features.size for k in zeros]] = -0.0
    actions = np.minimum(ds.actions, ds.action_spaces[0].size - 2)
    return OfflineDataset.from_rows(ds.patient, ds.stage, features, actions, ds.rewards, ds.horizon,
                                    ds.action_spaces, ds.feature_dims)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), n_patients=st.integers(6, 30), zeros=st.lists(st.integers(0, 10**6), min_size=1,
                                                                                   max_size=5))
@pytest.mark.parametrize("spec", [DesignSpec.per_action_kernel(0.7, ridge=0.3), DesignSpec.interaction_linear(0.1)],
                         ids=["kernel", "linear"])
def test_save_stack_writes_the_bytes_of_json_dumps(tmp_path_factory, spec, seed, n_patients, zeros):
    out = tmp_path_factory.mktemp("stack")
    ds = _stack_dataset(seed, n_patients, zeros)
    stack = backward_fit(ds, spec)
    if spec.mode == "per-action-kernel":
        assert all(model.meta for model in stack.models)  # a mean-fallback (constant) action
        assert any(np.signbit(comp[1]).any() for model in stack.models for comp in model.components
                   if comp[0] == "kernel")  # a -0.0 kernel input
    text = json.dumps(stack_to_dict(stack))
    save_stack(stack, out / "fitted.json", FloatTexts(ds.features))
    assert (out / "fitted.json").read_text() == text
    # a loaded stack, none or few of whose inputs are in the table
    loaded = stack_from_dict(json.loads(text))
    for k, known in enumerate([FloatTexts(), FloatTexts(ds.features[:1])]):
        save_stack(loaded, out / f"loaded{k}.json", known)
        assert (out / f"loaded{k}.json").read_text() == text


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


def test_cohort_files_peak_memory_is_bounded_by_the_block(tmp_path, cancer_cohort):
    # 3,000 patients: trajectories.csv and train.csv, one write_csv call each over whole columns, peak
    # near 0.64 MB (the dose and reward index arrays, one block's text; 0.82 MB when the reward
    # column copied the cohort's texts to append a blank); formatted whole (a block as large as
    # the file) near 4.9 MB
    cohort = _first(cancer_cohort, 3000)
    save_trajectories_csv(cohort, tmp_path / "warm.csv", train=tmp_path / "warm_train.csv")  # builds texts, dataset
    peak = _traced_peak_mb(
        lambda: save_trajectories_csv(cohort, tmp_path / "trajectories.csv", train=tmp_path / "train.csv"))
    assert peak < 0.75


def test_itr_run_peak_memory_is_bounded(tmp_path):
    # nearq itr 3500/8750 peaks near 8.0 MB when each CSV is formatted whole, near 3.4 MB a block at a time
    argv = ["itr", "--seed", "2", "--n-train", "3500", "--n-test", "8750"]
    assert main(["itr", "--n-train", "40", "--n-test", "20", "--out", str(tmp_path / "warm")]) == 0
    assert _traced_peak_mb(lambda: main([*argv, "--out", str(tmp_path / "run")])) < 5.0
    assert (tmp_path / "run" / "run.meta").is_file()


def test_a_cancer_run_formats_each_value_it_repeats_once(tmp_path, monkeypatch):
    # before each value's text was made once per run, this run made 29,741 float texts (13,117 distinct):
    # 19,120 by cell_texts and 10,621 by json.dumps, which wrote qstack.json
    formatted = []

    def counted(values):
        if values.dtype.kind == "f":
            formatted.append(np.ascontiguousarray(values).reshape(-1).view(np.int64).copy())
        return cell_texts(values)

    for module in [module for name, module in sys.modules.items() if name.startswith("nearq")]:
        if getattr(module, "cell_texts", None) is cell_texts:
            monkeypatch.setattr(module, "cell_texts", counted)
    argv = ["cancer", "--seed", "2", "--n-train", "1000", "--n-test", "120", "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    seen = np.concatenate(formatted)
    assert seen.size <= 18_000
    # every kernel input, weight and mean of the written stack went through cell_texts
    stack = stack_from_dict(json.loads((tmp_path / "run" / "qstack.json").read_text()))
    parts = [np.ravel(part) for model in stack.models for comp in model.components for part in comp[1:]]
    assert np.isin(np.concatenate(parts).view(np.int64), seen).all()
