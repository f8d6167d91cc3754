"""Command-line reproduction harness.

Three commands:

* ``itr``: single-stage experiment (train/test cohorts, fitted
  interaction-linear model, blip surface, and per epsilon the statistics of
  the band |blip| <= epsilon, the absolute criterion).
* ``cancer``: multi-stage experiment (training cohort, classical stack,
  near-equivalent audit tables, evaluation curves, tolerance bands, timings)
  under the relative or absolute worst-value tolerance.
* ``oracle``: tabular consistency check of the backward fit against the
  counting reference. It takes no options.

``OPTIONS``, the one table of options, drives the parser, the ``--config`` keys
and their checks, and ``run.meta``: an option a command does not read exits 2.

``itr`` and ``cancer`` write into a fresh sibling of ``--out``
(``<out>.partial-XXXXXXXX``, named by ``tempfile.mkdtemp``), which replaces
``--out`` whole once every artifact is written and checked; an existing
``--out`` is first moved aside to ``<out>.old-XXXXXXXX`` and deleted after. A
failed run therefore leaves ``--out`` as it was, and a successful one leaves no
file of an earlier run. A process killed outright (SIGKILL) runs no cleanup,
so it can leave those siblings behind; nothing removes them later.
``run.meta`` marks a nearq output directory: a run refuses, before any work,
an ``--out`` that is a file or a non-empty directory without ``run.meta``.
``run.meta`` holds ``key=<JSON>`` lines: every option the run read, as
``--config`` takes it, so they repeat the run; timings live only there so
repeated runs give bitwise-identical CSVs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

from . import __version__
from .core import _is_int, _is_number, _list_of, save_csv, validate
from .envs import (
    ITR_COVARIATES,
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
from .regression import MODE_KERNEL, MODE_LINEAR, DesignSpec, save_model

DEFAULT_EPSILONS = (0.1, 0.3, 0.5, 0.9)


@dataclass
class RunConfig:
    """One ``itr`` or ``cancer`` run: a field per ``--config`` key. A field that is not an
    option of the command keeps its default, the constant that command uses."""

    experiment: str
    seed: int
    n_train: int
    n_test: int
    epsilons: tuple[float, ...]
    ridge: float
    out: Path
    mode: str = ABSOLUTE
    regression_mode: str = MODE_LINEAR
    kernel_bandwidth: float | None = None
    grid_resolution: int | None = None

    def validate(self) -> None:
        """Raise ValueError on a tolerance, a backend setting or an ``--out`` the run cannot use."""
        try:
            self.tolerances()
        except ValueError as err:
            raise ValueError(f"epsilons: {err}") from None
        self.design_spec()
        width = 2 * ITR_COVARIATES + 2  # [1, x, a, a*x]
        if self.experiment == "itr" and self.ridge == 0 and self.n_train < width:
            raise ValueError(f"n_train (--n-train) must be at least {width} at ridge 0: "
                             f"the interaction-linear design has {width} columns")
        # resolved, so that `--out .` has a name and a parent to stage beside
        try:
            out = self.out = self.out.resolve()
            unsafe = out.exists() and not (out / "run.meta").is_file() and (not out.is_dir() or any(out.iterdir()))
        except OSError as err:
            raise ValueError(f"--out: {err}") from None
        if unsafe:
            raise ValueError(f"--out {out} is a file or a non-empty directory without run.meta; "
                             "a run replaces only an earlier run's output")

    def tolerances(self) -> tuple[EpsilonConfig, ...]:
        return tuple(EpsilonConfig(eps, self.mode) for eps in self.epsilons)

    def design_spec(self) -> DesignSpec:
        return DesignSpec(self.regression_mode, self.kernel_bandwidth, self.ridge)


def _meta_lines(cfg: RunConfig, fit_seconds: float) -> str:
    """``key=<JSON>`` lines: every option the run read (a bandwidth only if it has one), then the records."""
    pairs = {"experiment": cfg.experiment}
    for option in _options(cfg.experiment):
        if option.in_file and getattr(cfg, option.dest) is not None:
            pairs[option.dest] = getattr(cfg, option.dest)
    pairs["version"] = __version__
    pairs["rng"] = f"{RNG_FAMILY} keyed by (seed, blake2s64(label))"
    pairs["timing_fit_seconds"] = fit_seconds
    return "".join(f"{k}={json.dumps(v, default=str)}\n" for k, v in pairs.items())


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
        save_trajectories_csv(cohort, stage / "trajectories.csv", train=stage / "train.csv")

        t0 = time.perf_counter()
        stack, ne_stacks = fit_tolerances(train, spec, cfg.tolerances())
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

    Both siblings are made by ``tempfile.mkdtemp``, so no name an earlier run
    left behind can block this one. The staged directory then gets the mode
    ``mkdir`` gives, as it becomes ``out``; the old one is an empty placeholder
    that ``out`` replaces when it is renamed onto it.
    """
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f"{out.name}.partial-", dir=out.parent))
    try:
        umask = os.umask(0o022)
        os.umask(umask)
        stage.chmod(0o777 & ~umask)
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
            old = Path(tempfile.mkdtemp(prefix=f"{out.name}.old-", dir=out.parent))
            try:
                out.rename(old)
            except BaseException:
                old.rmdir()
                raise
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


def cmd_oracle() -> int:
    dataset = build_fixture_dataset()
    stack = backward_fit(dataset, DesignSpec.interaction_linear())
    worst = max_discrepancy(stack, dp_oracle(dataset))
    print(f"max |fitted - reference| = {worst:.3e}")
    if worst >= 1e-8:
        print("oracle check FAILED", file=sys.stderr)
        return 1
    print("oracle check passed")
    return 0


@dataclass(frozen=True)
class _Kind:
    """The values an option takes: the check and conversion of a ``--config`` value, and argparse's keywords."""

    expected: str
    fits: Callable[[object], bool]
    convert: Callable
    parse: dict


def _distinct_numbers(value) -> bool:
    return _list_of(_is_number)(value) and len(value) > 0 and len(set(value)) == len(value)


# + 0.0 turns a value of -0.0 into 0.0, which it equals, so no file name or run.meta reads "-0.0"
_NUMBER = _Kind("a number", _is_number, lambda v: float(v) + 0.0, {"type": float})
_NUMBERS = _Kind("a nonempty list of distinct numbers", _distinct_numbers, lambda v: tuple(float(x) + 0.0 for x in v),
                 {"type": float, "action": "append"})
_PATH = _Kind("a string without NUL characters", lambda v: isinstance(v, (str, Path)) and "\0" not in str(v), Path,
              {"type": Path})
# the test cohort is keyed by seed + 1, and a stream key holds 64 bits
_SEED = _Kind("an integer in [0, 2**64 - 2]", lambda v: _is_int(v) and 0 <= v < (1 << 64) - 1, int,
              {"type": int})
_SWITCH = _Kind("a boolean", lambda v: isinstance(v, bool), bool, {"action": "store_true"})


def _count(low: int) -> _Kind:
    return _Kind(f"an integer >= {low}", lambda v: _is_int(v) and v >= low, int, {"type": int})


def _one_of(*values: str) -> _Kind:
    return _Kind(f"one of {', '.join(map(repr, values))}", values.__contains__, str, {"choices": values})


@dataclass(frozen=True)
class Option:
    """One flag: its ``RunConfig`` field, its kind, and the commands that read it with their defaults."""

    flag: str
    dest: str
    kind: _Kind
    defaults: dict[str, object]
    in_file: bool = True  # also a --config key


OPTIONS = (
    Option("--seed", "seed", _SEED, {"itr": 7, "cancer": 7}),
    Option("--n-train", "n_train", _count(1), {"itr": 1000, "cancer": 500}),
    Option("--n-test", "n_test", _count(1), {"itr": 2000, "cancer": 1000}),
    Option("--epsilon", "epsilons", _NUMBERS, {"itr": DEFAULT_EPSILONS, "cancer": DEFAULT_EPSILONS}),
    Option("--mode", "mode", _one_of(RELATIVE, ABSOLUTE), {"cancer": RELATIVE}),
    Option("--regression", "regression_mode", _one_of(MODE_LINEAR, MODE_KERNEL), {"cancer": MODE_KERNEL}),
    Option("--ridge", "ridge", _NUMBER, {"itr": 0.0, "cancer": 0.1}),
    # calibrated so the learned policy reliably dominates the constant regimes
    # at cancer's training size; a default of the kernel backend only
    Option("--kernel-bandwidth", "kernel_bandwidth", _NUMBER, {"cancer": 2.0}),
    Option("--grid-resolution", "grid_resolution", _count(2), {"itr": 61}),
    Option("--out", "out", _PATH, {"itr": Path("out"), "cancer": Path("out")}),
    Option("--config", "config", _PATH, {"itr": None, "cancer": None}, in_file=False),
    Option("--dry-run", "dry_run", _SWITCH, {"itr": False, "cancer": False}, in_file=False),
)


def _options(command: str) -> list[Option]:
    return [option for option in OPTIONS if command in option.defaults]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearq", description="offline Q-learning experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("itr", "cancer", "oracle"):
        p = sub.add_parser(command)
        for option in _options(command):
            p.add_argument(option.flag, dest=option.dest, **option.kind.parse)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """An ``itr`` or ``cancer`` run's settings: its defaults, then the ``--config`` file, then the flags.

    Raises ValueError naming the key on an unknown key or a value of the wrong kind.
    """
    options = {o.dest: o for o in _options(args.command) if o.in_file}
    try:
        given = json.loads(args.config.read_text()) if args.config else {}
    except (OSError, ValueError) as err:
        raise ValueError(f"--config {str(args.config)!r}: {err}") from None
    if not isinstance(given, dict):
        raise ValueError("config file must hold a JSON object")
    for key in given.keys() - options.keys():
        raise ValueError(f"unknown config key {key!r}")
    flags = {dest: getattr(args, dest) for dest in options if getattr(args, dest) is not None}
    for key, value in [*given.items(), *flags.items()]:
        kind = options[key].kind
        if not kind.fits(value):
            raise ValueError(f"{key!r} must be {kind.expected}, got {json.dumps(value, default=str)}")
    given |= flags
    settings = {dest: option.defaults[args.command] for dest, option in options.items()}
    settings |= {key: options[key].kind.convert(value) for key, value in given.items()}
    if settings.get("regression_mode") == MODE_LINEAR and "kernel_bandwidth" not in given:
        settings["kernel_bandwidth"] = None  # the default bandwidth is the kernel backend's
    return RunConfig(args.command, **settings)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = cmd_oracle  # which reads no options
    if args.command != "oracle":
        try:
            cfg = config_from_args(args)
            cfg.validate()
        except (ValueError, OSError) as err:
            print(f"invalid configuration: {err}", file=sys.stderr)
            return 2
        if args.dry_run:
            print(f"{args.command} config ok (dry run, nothing executed)")
            return 0
        command = partial(cmd_itr if args.command == "itr" else cmd_cancer, cfg)
    try:
        return command()
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
