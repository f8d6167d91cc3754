"""In-memory span recorder and the traced rebuild of ``nearq cancer`` / ``nearq itr``.

The traced pipelines call the same public ``nearq`` functions, in the same
order, as ``cmd_cancer`` and ``cmd_itr`` in ``nearq.cli``, with a span around
each call. Spans live in memory and are written out once the run ends. The
rebuild stages each artifact through a temporary file as the CLI does, but
writes it at once rather than at the end, and it skips ``run.meta`` and the
CLI's header checks; that CLI-only work shows up in ``cli.overhead_s``. The
benchmark checks that every other artifact is byte-identical to the CLI's for
the same seed, so the rebuild cannot drift from the commands it stands for.
"""

from __future__ import annotations

import json
import math
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from nearq.cli import RunConfig
from nearq.core import load_csv, save_csv, validate
from nearq.envs import (
    UNIFORM_RANDOM,
    CancerParams,
    ItrConfig,
    save_trajectories_csv,
    simulate_cancer_cohort,
    simulate_itr,
)
from nearq.evalkit import (
    band_stats,
    blip_surface,
    constant_dose_baselines,
    epsilon_band_curve,
    evaluate_policy,
    save_band_csv,
    save_band_stats_csv,
    save_blip_csv,
    save_results_csv,
)
from nearq.nearequiv import (
    EpsilonConfig,
    backward_fit_near_equiv,
    policy_set,
    save_admissible_csv,
)
from nearq.qlearn import backward_fit, greedy_policy, stack_to_dict
from nearq.regression import PerActionKernelQ, save_model

ROOT_SPAN = "cli.invocation"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None  # id of the enclosing span
    invocation: int
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans of one process in memory; one thread of control."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.invocation = 0

    @contextmanager
    def span(self, name: str, tag: str = ""):
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), name, math.nan, math.nan, parent, self.invocation, tag)
        self.spans.append(record)
        self._open.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def _timed_policy(rec: Recorder, policy, counts: Counter):
    def decide(t, feats):
        with rec.span("regression.predict"):
            actions = policy(t, feats)
        counts["regression.predict_rows"] += feats.shape[0]
        return actions

    return decide


def _time_predictions(rec: Recorder, model, counts: Counter) -> None:
    """Put a span around every ``predict_matrix`` call made on ``model`` from now on."""
    inner = model.predict_matrix

    def predict_matrix(features, action_index):
        with rec.span("regression.predict"):
            values = inner(features, action_index)
        counts["regression.predict_rows"] += len(features)
        return values

    model.predict_matrix = predict_matrix


def _model_counts(models, counts: Counter) -> None:
    buffers = {}
    for model in models:
        counts["regression.models"] += 1
        if isinstance(model, PerActionKernelQ):
            for comp in model.components:
                if comp[0] == "kernel":
                    counts["regression.kernel_components"] += 1
                    buffers[id(comp[1])] = comp[1].nbytes
    counts["regression.kernel_input_bytes"] += sum(buffers.values())


def _read_back(rec: Recorder, path: Path) -> None:
    with rec.span("core.load_csv"):
        dataset = load_csv(path)
    with rec.span("core.validate"):
        report = validate(dataset)
    if not report.ok:
        raise ValueError(f"cohort failed validation: {path}: {report.errors}")


def _stage(rec: Recorder, path: Path, write) -> None:
    """Write one artifact as the CLI does: to a temporary file, read back as text.

    Reading back in text mode turns the ``\\r\\n`` rows of ``csv.writer`` into
    ``\\n``, so this staging is part of what makes the artifact bytes.
    """
    with rec.span("cli.serialize"), tempfile.TemporaryDirectory() as tmp:
        staged = Path(tmp) / "artifact"
        write(staged)
        path.write_text(staged.read_text())
        sidecar = Path(str(staged) + ".meta.json")
        if sidecar.exists():
            Path(str(path) + ".meta.json").write_text(sidecar.read_text())


def _save_cohort(rec: Recorder, dataset, path: Path) -> None:
    def write(staged):
        with rec.span("core.save_csv"):
            save_csv(dataset, staged)

    _stage(rec, path, write)


def traced_cancer(rec: Recorder, cfg: RunConfig) -> Counter:
    """``cmd_cancer`` with spans; returns the invocation's counts."""
    counts: Counter = Counter()
    out = cfg.out
    out.mkdir(parents=True)
    params = CancerParams()
    spec = cfg.design_spec()
    with rec.span("envs.simulate"):
        cohort = simulate_cancer_cohort(params, UNIFORM_RANDOM, cfg.n_train, cfg.seed, label="train")
    train = cohort.dataset
    with rec.span("core.stage_rows"):
        for t in range(train.horizon + 1):
            train.stage_rows(t)
    with rec.span("qlearn.backward_fit"):
        stack = backward_fit(train, spec)
    classical = greedy_policy(stack)
    models = list(stack.models)

    eval_seed = cfg.seed + 1
    with rec.span("evalkit.rollout"):
        baselines = constant_dose_baselines(params, cfg.n_test, eval_seed)
    with rec.span("evalkit.rollout"):
        opt = evaluate_policy(
            params, _timed_policy(rec, classical, counts), cfg.n_test, eval_seed, label="opt"
        )
    counts["envs.rollouts"] += len(baselines) + 1
    counts["evalkit.policy_evals"] += 1

    _save_cohort(rec, train, out / "train.csv")
    _stage(rec, out / "trajectories.csv", lambda p: save_trajectories_csv(cohort, p))
    with rec.span("cli.serialize"):
        (out / "qstack.json").write_text(json.dumps(stack_to_dict(stack)))

    for eps in cfg.epsilons:
        tag = f"eps{eps}"
        with rec.span("nearequiv.fit", tag):
            ne_stack = backward_fit_near_equiv(train, spec, EpsilonConfig(eps, cfg.mode))
        counts[f"nearequiv.m.{tag}"] = ne_stack.m
        counts["nearequiv.chain_fits"] += ne_stack.m * ne_stack.horizon
        counts["nearequiv.padded"] += int(ne_stack.padding_log.sum())
        counts["nearequiv.slots"] += ne_stack.m * len(ne_stack.padding_log)
        models.append(ne_stack.final_model)
        models.extend(m for chain in ne_stack.column_models for m in chain)

        ne_results = []
        for j, policy in enumerate(policy_set(ne_stack)):
            with rec.span("evalkit.rollout"):
                ne_results.append(
                    evaluate_policy(
                        params, _timed_policy(rec, policy, counts), cfg.n_test, eval_seed,
                        label=f"{tag}-rank{j + 1}",
                    )
                )
        counts["envs.rollouts"] += len(ne_results)
        counts["evalkit.policy_evals"] += len(ne_results)
        with rec.span("evalkit.band"):
            band = epsilon_band_curve(opt, ne_results, eps)
        results = baselines + [opt] + ne_results
        _stage(rec, out / f"curves_{tag}.csv", lambda p: save_results_csv(results, p))
        _stage(rec, out / f"band_{tag}.csv", lambda p: save_band_csv(band, p))
        _stage(rec, out / f"admissible_{tag}.csv", lambda p: save_admissible_csv(ne_stack, p))

    _model_counts(models, counts)
    _read_back(rec, out / "train.csv")
    return counts


def traced_itr(rec: Recorder, cfg: RunConfig) -> Counter:
    """``cmd_itr`` with spans; returns the invocation's counts."""
    counts: Counter = Counter()
    out = cfg.out
    out.mkdir(parents=True)
    spec = cfg.design_spec()
    with rec.span("envs.simulate"):
        train = simulate_itr(ItrConfig(cfg.n_train, cfg.seed))
        test = simulate_itr(ItrConfig(cfg.n_test, cfg.seed + 1))
    with rec.span("core.stage_rows"):
        train.stage_rows(0)
        test.stage_rows(0)
    with rec.span("qlearn.backward_fit"):
        stack = backward_fit(train, spec)
    model = stack.models[0]
    _model_counts(stack.models, counts)
    _time_predictions(rec, model, counts)

    _save_cohort(rec, train, out / "train.csv")
    _save_cohort(rec, test, out / "test.csv")
    _stage(rec, out / "model.json", lambda p: save_model(model, p))

    def write_blip(p):
        with rec.span("evalkit.itr_stats"):
            grid = blip_surface(model, cfg.grid_resolution)
        save_blip_csv(grid, p)

    _stage(rec, out / "blip_surface.csv", write_blip)
    with rec.span("evalkit.itr_stats"):
        stats = [band_stats(model, test, eps) for eps in cfg.epsilons]
    for eps, stat in zip(cfg.epsilons, stats):
        _stage(rec, out / f"band_stats_eps{eps}.csv", lambda p: save_band_stats_csv([stat], p))

    _read_back(rec, out / "train.csv")
    _read_back(rec, out / "test.csv")
    return counts


TRACED = {"cancer": traced_cancer, "itr": traced_itr}


def layer_metrics(spans: list[Span], counts: Counter, epsilons) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (spans of that invocation only)."""
    own = self_times(spans)
    total: Counter = Counter()
    self_total: Counter = Counter()
    for s, own_s in zip(spans, own):
        key = f"{s.name}.{s.tag}" if s.tag else s.name
        total[key] += s.duration
        total[s.name] += s.duration if s.tag else 0.0
        self_total[s.name] += own_s
    eval_s = total["evalkit.rollout"] + total["evalkit.band"] + total["evalkit.itr_stats"]
    fit_classical = total["qlearn.backward_fit"]
    out = {
        "traced_total_s": total[ROOT_SPAN],
        "envs.simulate_s": total["envs.simulate"],
        "envs.rollout_self_s": self_total["evalkit.rollout"],
        "envs.rollouts": counts["envs.rollouts"],
        "core.stage_rows_s": total["core.stage_rows"],
        "core.save_csv_s": total["core.save_csv"],
        "core.load_csv_s": total["core.load_csv"],
        "core.validate_s": total["core.validate"],
        "regression.predict_s": total["regression.predict"],
        "regression.predict_rows": counts["regression.predict_rows"],
        "regression.models": counts["regression.models"],
        "regression.kernel_components": counts["regression.kernel_components"],
        "regression.kernel_input_mb": counts["regression.kernel_input_bytes"] / 1e6,
        "qlearn.backward_fit_s": fit_classical,
        "nearequiv.fit_s": total["nearequiv.fit"],
        "nearequiv.chain_fits": counts["nearequiv.chain_fits"],
        "nearequiv.pad_fraction": (
            counts["nearequiv.padded"] / counts["nearequiv.slots"] if counts["nearequiv.slots"] else 0.0
        ),
        "evalkit.eval_s": eval_s,
        "evalkit.eval_s_per_policy": (
            total["evalkit.rollout"] / counts["envs.rollouts"] if counts["envs.rollouts"] else 0.0
        ),
        "evalkit.policy_evals": counts["evalkit.policy_evals"],
        "evalkit.itr_stats_s": total["evalkit.itr_stats"],
        "cli.serialize_s": self_total["cli.serialize"],
    }
    for eps in epsilons:
        tag = f"eps{eps}"
        fit_eps = total[f"nearequiv.fit.{tag}"]
        out[f"nearequiv.fit_s.{tag}"] = fit_eps
        out[f"nearequiv.m.{tag}"] = counts[f"nearequiv.m.{tag}"]
        out[f"nearequiv.fit_ratio.{tag}"] = fit_eps / fit_classical if fit_classical else 0.0
    return out
