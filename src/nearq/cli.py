"""Command-line reproduction harness.

Three commands:

* ``itr``: single-stage experiment (train/test cohorts, fitted model, blip
  surface, band statistics per epsilon).
* ``cancer``: multi-stage experiment (training cohort, classical stack,
  near-equivalent audit tables, evaluation curves, tolerance bands, timings).
* ``oracle``: tabular consistency check of the backward fit against the
  counting reference.

``itr`` and ``cancer`` write into a fresh sibling of ``--out``
(``<out>.partial-<pid>``), which replaces ``--out`` whole once every artifact
is written and checked. A failed run therefore leaves ``--out`` as it was, and
a successful one leaves no file of an earlier run. ``run.meta`` marks a nearq
output directory: a run refuses, before any work, an ``--out`` that is a file
or a non-empty directory without ``run.meta``. ``run.meta`` records everything
needed to repeat the run; timings live only there so repeated runs give
bitwise-identical CSVs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import __version__
from .core import _is_int, _is_number, _list_of, save_csv, validate
from .envs import (
    RNG_FAMILY,
    UNIFORM_RANDOM,
    CancerParams,
    ItrConfig,
    save_trajectories_csv,
    simulate_cancer_cohort,
    simulate_itr,
)
from .evalkit import (
    band_stats,
    blip_surface,
    constant_dose_baselines,
    epsilon_band_curve,
    evaluate_policies,
    save_band_csv,
    save_band_stats_csv,
    save_blip_csv,
    save_results_csv,
)
from .nearequiv import (
    ABSOLUTE,
    RELATIVE,
    EpsilonConfig,
    fit_tolerances,
    policy_set,
    save_admissible_csv,
)
from .oracle import build_fixture_dataset, dp_oracle, max_discrepancy
from .qlearn import backward_fit, greedy_policy, stack_to_dict
from .regression import DesignSpec, save_model

DEFAULT_EPSILONS = (0.1, 0.3, 0.5, 0.9)


@dataclass
class RunConfig:
    experiment: str
    seed: int = 7
    n_train: int = 500
    n_test: int = 1000
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    mode: str = RELATIVE
    regression_mode: str = "per-action-kernel"
    ridge: float | None = None
    kernel_bandwidth: float | None = None
    grid_resolution: int = 61
    out: Path = field(default_factory=lambda: Path("out"))
    dry_run: bool = False

    def validate(self) -> None:
        if self.experiment not in ("itr", "cancer", "oracle"):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be >= 1")
        for i, eps in enumerate(self.epsilons):
            if not 0.0 <= eps < 1.0:
                raise ValueError(f"epsilon must be in [0, 1), got {eps}")
            if eps in self.epsilons[:i]:
                raise ValueError(f"epsilon {eps} given twice")
        if self.mode not in (RELATIVE, ABSOLUTE):
            raise ValueError(f"mode must be {RELATIVE!r} or {ABSOLUTE!r}")
        if self.regression_mode not in ("interaction-linear", "per-action-kernel"):
            raise ValueError(f"unknown regression mode {self.regression_mode!r}")
        if self.regression_mode == "interaction-linear" and self.kernel_bandwidth is not None:
            raise ValueError("'kernel_bandwidth' applies only to the per-action-kernel backend")
        if self.experiment == "itr" and self.regression_mode != "interaction-linear":
            raise ValueError("the itr experiment requires the interaction-linear backend")
        if self.grid_resolution < 2:
            raise ValueError("grid resolution must be >= 2")
        self.design_spec()
        if self.experiment != "oracle":
            # resolved, so that `--out .` has a name and a parent to stage beside
            out = self.out = self.out.resolve()
            if out.exists() and not (out / "run.meta").is_file() and (not out.is_dir() or any(out.iterdir())):
                raise ValueError(f"--out {out} is a file or a non-empty directory without run.meta; "
                                 "a run replaces only an earlier run's output")

    def design_spec(self) -> DesignSpec:
        if self.regression_mode == "interaction-linear":
            return DesignSpec.interaction_linear(ridge=self.ridge if self.ridge is not None else 0.0)
        return DesignSpec.per_action_kernel(
            kernel_bandwidth=self.kernel_bandwidth,
            ridge=self.ridge if self.ridge is not None else 1.0,
        )


def _meta_lines(cfg: RunConfig, fit_seconds: float) -> str:
    pairs = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in ("out", "dry_run")}
    pairs["epsilons"] = ",".join(repr(e) for e in cfg.epsilons)
    pairs["version"] = __version__
    pairs["rng"] = f"{RNG_FAMILY} keyed by (seed, blake2s64(label))"
    pairs["timing_fit_seconds"] = fit_seconds
    return "\n".join(f"{k}={v}" for k, v in pairs.items()) + "\n"


def cmd_itr(cfg: RunConfig) -> int:
    spec = cfg.design_spec()
    with _staged(cfg.out) as stage:
        train = simulate_itr(ItrConfig(cfg.n_train, cfg.seed))
        test = simulate_itr(ItrConfig(cfg.n_test, cfg.seed + 1))
        for name, cohort in (("train.csv", train), ("test.csv", test)):
            _check_cohort(name, cohort)
            save_csv(cohort, stage / name)
        t0 = time.perf_counter()
        stack = backward_fit(train, spec)
        fit_seconds = time.perf_counter() - t0
        model = stack.models[0]
        save_model(model, stage / "model.json")
        save_blip_csv(blip_surface(model, cfg.grid_resolution), stage / "blip_surface.csv")
        for eps in cfg.epsilons:
            save_band_stats_csv([band_stats(model, test, eps)], stage / f"band_stats_eps{eps}.csv")
        (stage / "run.meta").write_text(_meta_lines(cfg, fit_seconds))
    return 0


def cmd_cancer(cfg: RunConfig) -> int:
    params = CancerParams()
    spec = cfg.design_spec()
    with _staged(cfg.out) as stage:
        cohort = simulate_cancer_cohort(params, UNIFORM_RANDOM, cfg.n_train, cfg.seed, label="train")
        train = cohort.dataset
        _check_cohort("train.csv", train)
        save_csv(train, stage / "train.csv")
        save_trajectories_csv(cohort, stage / "trajectories.csv")

        t0 = time.perf_counter()
        stack, ne_stacks = fit_tolerances(
            train, spec, tuple(EpsilonConfig(eps, cfg.mode) for eps in cfg.epsilons)
        )
        fit_seconds = time.perf_counter() - t0
        (stage / "qstack.json").write_text(json.dumps(stack_to_dict(stack)))

        eval_seed = cfg.seed + 1
        baselines = constant_dose_baselines(params, cfg.n_test, eval_seed)
        # one lockstep rollout for every learned policy; the rank-1 chains are the
        # classical ones, so their curve is opt's
        named = {"opt": greedy_policy(stack)}
        for eps, ne_stack in zip(cfg.epsilons, ne_stacks):
            for j, policy in enumerate(policy_set(ne_stack)[1:], start=2):
                named[f"eps{eps}-rank{j}"] = policy
        learned = dict(zip(named, evaluate_policies(params, named.values(), cfg.n_test, eval_seed, named)))
        opt_result = learned["opt"]
        for eps, ne_stack in zip(cfg.epsilons, ne_stacks):
            ne_results = [replace(opt_result, label=f"eps{eps}-rank1")] + [
                learned[f"eps{eps}-rank{j}"] for j in range(2, ne_stack.m + 1)
            ]
            band = epsilon_band_curve(opt_result, ne_results, eps)
            save_results_csv(baselines + [opt_result] + ne_results, stage / f"curves_eps{eps}.csv")
            save_band_csv(band, stage / f"band_eps{eps}.csv")
            save_admissible_csv(ne_stack, stage / f"admissible_eps{eps}.csv")
        (stage / "run.meta").write_text(_meta_lines(cfg, fit_seconds))
    return 0


def _check_cohort(name: str, dataset) -> None:
    report = validate(dataset)
    if not report.ok:
        raise ValueError(f"cohort failed validation: {name}: {report.errors}")


@contextmanager
def _staged(out: Path):
    """Yield an empty sibling of ``out`` to write a run into; it replaces ``out`` if the block succeeds.

    Before the swap every staged file must be nonempty and every CSV must
    open with a header row. An existing ``out`` is moved aside, the staged
    directory renamed in, and the old one deleted. Any exception removes the
    staged directory and leaves ``out`` as it was.
    """
    stage = out.with_name(f"{out.name}.partial-{os.getpid()}")
    old = out.with_name(f"{out.name}.old-{os.getpid()}")
    stage.mkdir(parents=True)
    try:
        yield stage
        for path in stage.iterdir():
            if path.stat().st_size == 0:
                raise ValueError(f"artifact is empty: {path.name}")
            if path.suffix == ".csv":
                with path.open() as fh:
                    if "," not in fh.readline():
                        raise ValueError(f"artifact has no CSV header: {path.name}")
        moved = out.exists()
        if moved:
            out.rename(old)
        try:
            stage.rename(out)
        except BaseException:
            if moved:
                old.rename(out)
            raise
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    if moved:
        shutil.rmtree(old, ignore_errors=True)
    for path in sorted(out.iterdir()):
        print(f"wrote {path}")


def cmd_oracle(cfg: RunConfig) -> int:
    dataset = build_fixture_dataset()
    stack = backward_fit(dataset, DesignSpec.interaction_linear())
    worst = max_discrepancy(stack, dp_oracle(dataset))
    print(f"max |fitted - reference| = {worst:.3e}")
    if worst >= 1e-8:
        print("oracle check FAILED", file=sys.stderr)
        return 1
    print("oracle check passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearq", description="offline Q-learning experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("itr", "cancer", "oracle"):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int)
        p.add_argument("--n-train", type=int, dest="n_train")
        p.add_argument("--n-test", type=int, dest="n_test")
        p.add_argument("--epsilon", type=float, action="append", dest="epsilons")
        p.add_argument("--mode", choices=(RELATIVE, ABSOLUTE))
        p.add_argument("--regression", choices=("interaction-linear", "per-action-kernel"),
                       dest="regression_mode")
        p.add_argument("--ridge", type=float)
        p.add_argument("--kernel-bandwidth", type=float, dest="kernel_bandwidth")
        p.add_argument("--grid-resolution", type=int, dest="grid_resolution")
        p.add_argument("--out", type=Path)
        p.add_argument("--config", type=Path)
        p.add_argument("--dry-run", action="store_true", dest="dry_run")
    return parser


_EXPERIMENT_DEFAULTS = {
    "itr": dict(n_train=1000, n_test=2000, mode=ABSOLUTE, regression_mode="interaction-linear"),
    "cancer": dict(
        n_train=500,
        n_test=1000,
        mode=RELATIVE,
        regression_mode="per-action-kernel",
        # calibrated so the learned policy reliably dominates the constant
        # regimes at this training size
        kernel_bandwidth=2.0,
        ridge=0.1,
    ),
    "oracle": dict(),
}

_CONFIG_KEYS = (
    "seed", "n_train", "n_test", "epsilons", "mode", "regression_mode",
    "ridge", "kernel_bandwidth", "grid_resolution", "out",
)


_INT_KEYS = ("seed", "n_train", "n_test", "grid_resolution")
_FLOAT_KEYS = ("ridge", "kernel_bandwidth")


def _config_value(key: str, value):
    """A config-file value as its ``RunConfig`` field; ValueError naming the key on a wrong JSON type."""
    if key in _INT_KEYS:
        if _is_int(value):
            return value
        expected = "an integer"
    elif key in _FLOAT_KEYS:
        if _is_number(value):
            return float(value)
        expected = "a number"
    elif key == "epsilons":
        if _list_of(_is_number)(value):
            return tuple(float(v) for v in value)
        expected = "a list of numbers"
    elif key == "out":
        if isinstance(value, str):
            return Path(value)
        expected = "a string"
    else:
        return value
    raise ValueError(f"config key {key!r} must be {expected}, got {json.dumps(value)}")


def config_from_args(args: argparse.Namespace) -> RunConfig:
    given = {}
    if args.config:
        payload = json.loads(args.config.read_text())
        if not isinstance(payload, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in payload.items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            given[key] = _config_value(key, value)
    for key in _CONFIG_KEYS:
        value = getattr(args, key)
        if value is not None:
            given[key] = tuple(value) if key == "epsilons" else value
    settings = {**_EXPERIMENT_DEFAULTS[args.command], **given}
    if settings.get("regression_mode") == "interaction-linear" and "kernel_bandwidth" not in given:
        settings.pop("kernel_bandwidth", None)  # a default of the kernel backend only
    return RunConfig(args.command, dry_run=args.dry_run, **settings)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        cfg.validate()
    except (ValueError, OSError) as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return 2
    if cfg.dry_run:
        print(f"{args.command} config ok (dry run, nothing executed)")
        return 0
    try:
        if args.command == "itr":
            return cmd_itr(cfg)
        if args.command == "cancer":
            return cmd_cancer(cfg)
        return cmd_oracle(cfg)
    except Exception as err:
        print(f"run failed: {err}", file=sys.stderr)
        for cause in _causes(err):
            print(f"caused by: {type(cause).__name__}: {cause}", file=sys.stderr)
        return 1


def _causes(err: BaseException):
    """The exceptions chained below ``err``, outermost first, as a traceback shows them."""
    seen = {id(err)}
    while True:
        err = err.__cause__ if err.__cause__ is not None else (
            None if err.__suppress_context__ else err.__context__
        )
        if err is None or id(err) in seen:
            return
        seen.add(id(err))
        yield err


if __name__ == "__main__":
    raise SystemExit(main())
