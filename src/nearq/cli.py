"""Command-line reproduction harness.

Three commands:

* ``itr``: single-stage experiment (train/test cohorts, fitted model, blip
  surface, band statistics per epsilon).
* ``cancer``: multi-stage experiment (training cohort, classical stack,
  near-equivalent audit tables, evaluation curves, tolerance bands, timings).
* ``oracle``: tabular consistency check of the backward fit against the
  counting reference.

Every artifact is computed first and written only at the end, so a run that
fails before writing leaves no output. Writing goes file by file into the
output directory, which keeps files from earlier runs. ``run.meta`` records
everything needed to repeat the run; timings live only there so repeated runs
give bitwise-identical CSVs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import __version__
from .core import load_csv, save_csv, validate
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
    evaluate_policy,
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
        for eps in self.epsilons:
            if not 0.0 <= eps < 1.0:
                raise ValueError(f"epsilon must be in [0, 1), got {eps}")
        if self.mode not in (RELATIVE, ABSOLUTE):
            raise ValueError(f"mode must be {RELATIVE!r} or {ABSOLUTE!r}")
        if self.regression_mode not in ("interaction-linear", "per-action-kernel"):
            raise ValueError(f"unknown regression mode {self.regression_mode!r}")
        if self.grid_resolution < 2:
            raise ValueError("grid resolution must be >= 2")
        self.design_spec()

    def design_spec(self) -> DesignSpec:
        if self.regression_mode == "interaction-linear":
            return DesignSpec.interaction_linear(ridge=self.ridge if self.ridge is not None else 0.0)
        return DesignSpec.per_action_kernel(
            kernel_bandwidth=self.kernel_bandwidth,
            ridge=self.ridge if self.ridge is not None else 1.0,
        )


class _Artifacts:
    """In-memory staging: nothing touches disk until flush()."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: dict[str, str] = {}

    def add_text(self, name: str, text: str) -> None:
        self.files[name] = text

    def add_writer(self, name: str, write_fn) -> None:
        # adapt path-based writers by letting them write to a temp file
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp) / "artifact"
            write_fn(tmp_path)
            self.files[name] = tmp_path.read_text()
            sidecar = Path(str(tmp_path) + ".meta.json")
            if sidecar.exists():
                self.files[name + ".meta.json"] = sidecar.read_text()

    def flush(self) -> list[Path]:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for name, text in sorted(self.files.items()):
            path = self.out_dir / name
            path.write_text(text)
            written.append(path)
        return written


def _meta_lines(cfg: RunConfig, extra: dict) -> str:
    pairs = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "n_train": cfg.n_train,
        "n_test": cfg.n_test,
        "epsilons": ",".join(repr(e) for e in cfg.epsilons),
        "mode": cfg.mode,
        "regression_mode": cfg.regression_mode,
        "ridge": cfg.ridge,
        "kernel_bandwidth": cfg.kernel_bandwidth,
        "grid_resolution": cfg.grid_resolution,
        "version": __version__,
        "rng": f"{RNG_FAMILY} keyed by (seed, blake2s64(label))",
    }
    pairs.update(extra)
    return "\n".join(f"{k}={v}" for k, v in pairs.items()) + "\n"


def cmd_itr(cfg: RunConfig) -> int:
    cfg.validate()
    if cfg.regression_mode != "interaction-linear":
        print("the itr experiment requires the interaction-linear backend", file=sys.stderr)
        return 2
    if cfg.dry_run:
        print("itr config ok (dry run, nothing executed)")
        return 0
    spec = cfg.design_spec()
    art = _Artifacts(cfg.out)

    train = simulate_itr(ItrConfig(cfg.n_train, cfg.seed))
    test = simulate_itr(ItrConfig(cfg.n_test, cfg.seed + 1))
    t0 = time.perf_counter()
    stack = backward_fit(train, spec)
    fit_seconds = time.perf_counter() - t0
    model = stack.models[0]

    art.add_writer("train.csv", lambda p: save_csv(train, p))
    art.add_writer("test.csv", lambda p: save_csv(test, p))
    art.add_writer("model.json", lambda p: save_model(model, p))
    art.add_writer("blip_surface.csv", lambda p: save_blip_csv(blip_surface(model, cfg.grid_resolution), p))
    stats = [band_stats(model, test, eps) for eps in cfg.epsilons]
    for eps, stat in zip(cfg.epsilons, stats):
        art.add_writer(f"band_stats_eps{eps}.csv", lambda p, s=stat: save_band_stats_csv([s], p))
    art.add_text("run.meta", _meta_lines(cfg, {"timing_fit_seconds": fit_seconds}))

    written = art.flush()
    return _verify_outputs(written)


def cmd_cancer(cfg: RunConfig) -> int:
    cfg.validate()
    if cfg.dry_run:
        print("cancer config ok (dry run, nothing executed)")
        return 0
    params = CancerParams()
    spec = cfg.design_spec()
    art = _Artifacts(cfg.out)

    cohort = simulate_cancer_cohort(params, UNIFORM_RANDOM, cfg.n_train, cfg.seed, label="train")
    train = cohort.dataset

    t0 = time.perf_counter()
    stack, ne_stacks = fit_tolerances(
        train, spec, tuple(EpsilonConfig(eps, cfg.mode) for eps in cfg.epsilons)
    )
    fit_seconds = time.perf_counter() - t0

    eval_seed = cfg.seed + 1
    baselines = constant_dose_baselines(params, cfg.n_test, eval_seed)
    opt_result = evaluate_policy(params, greedy_policy(stack), cfg.n_test, eval_seed, label="opt")

    art.add_writer("train.csv", lambda p: save_csv(train, p))
    art.add_writer("trajectories.csv", lambda p: save_trajectories_csv(cohort, p))
    art.add_text("qstack.json", json.dumps(stack_to_dict(stack)))

    for eps, ne_stack in zip(cfg.epsilons, ne_stacks):
        # the rank-1 chain is the classical one, so its rollout is opt's
        ne_results = [replace(opt_result, label=f"eps{eps}-rank1")] + [
            evaluate_policy(params, pol, cfg.n_test, eval_seed, label=f"eps{eps}-rank{j}")
            for j, pol in enumerate(policy_set(ne_stack)[1:], start=2)
        ]
        band = epsilon_band_curve(opt_result, ne_results, eps)
        results = baselines + [opt_result] + ne_results
        art.add_writer(f"curves_eps{eps}.csv", lambda p, r=results: save_results_csv(r, p))
        art.add_writer(f"band_eps{eps}.csv", lambda p, b=band: save_band_csv(b, p))
        art.add_writer(f"admissible_eps{eps}.csv", lambda p, s=ne_stack: save_admissible_csv(s, p))

    art.add_text("run.meta", _meta_lines(cfg, {"timing_fit_seconds": fit_seconds}))
    written = art.flush()
    return _verify_outputs(written)


def cmd_oracle(cfg: RunConfig) -> int:
    cfg.validate()
    if cfg.dry_run:
        print("oracle config ok (dry run, nothing executed)")
        return 0
    dataset = build_fixture_dataset()
    stack = backward_fit(dataset, DesignSpec.interaction_linear())
    worst = max_discrepancy(stack, dp_oracle(dataset))
    print(f"max |fitted - reference| = {worst:.3e}")
    if worst >= 1e-8:
        print("oracle check FAILED", file=sys.stderr)
        return 1
    print("oracle check passed")
    return 0


def _verify_outputs(paths: list[Path]) -> int:
    for path in paths:
        if not path.exists() or path.stat().st_size == 0:
            print(f"artifact missing or empty: {path}", file=sys.stderr)
            return 1
        if path.name.endswith(".csv") and not path.name.endswith(".meta.json"):
            header = path.read_text().splitlines()[0]
            if "," not in header:
                print(f"artifact has no CSV header: {path}", file=sys.stderr)
                return 1
        if path.name in ("train.csv", "test.csv"):
            report = validate(load_csv(path))
            if not report.ok:
                print(f"cohort failed validation: {path}: {report.errors}", file=sys.stderr)
                return 1
    for path in paths:
        print(f"wrote {path}")
    return 0


def _load_config_file(path: Path) -> dict:
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict):
        raise ValueError("config file must hold a JSON object")
    return payload


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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(experiment=args.command)
    for key, value in _EXPERIMENT_DEFAULTS[args.command].items():
        setattr(cfg, key, value)
    if getattr(args, "config", None):
        for key, value in _load_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            if key == "epsilons":
                value = tuple(float(v) for v in value)
            elif key == "out":
                value = Path(value)
            elif key in _INT_KEYS:
                value = int(value)
            elif key in _FLOAT_KEYS:
                value = float(value)
            setattr(cfg, key, value)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, tuple(value) if key == "epsilons" else value)
    cfg.dry_run = bool(getattr(args, "dry_run", False))
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        cfg.validate()
    except (ValueError, OSError) as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return 2
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
