"""Benchmark for nearq: end-to-end CLI timings and a traced per-layer breakdown.

    python3 bench/run.py --workload cancer-fit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The benchmark drives ``nearq.cli.main(argv)``
in one process and one thread of control, as a closed loop: one client, each
invocation starting when the last one ends. BLAS keeps its default thread
count. Every invocation's artifacts are checked (see ``artifacts.py``).
End-to-end times are scaled to a reference machine speed by a probe timed
around each invocation (``speed_probe``); NOTES.md says why.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
CLI invocations with a traced rebuild of the same command (``traced.py``) and
prints the per-layer metrics. Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A copy of the result with the environment stamp,
and the spans of a traced run, go to ``.bench_out/results/``. NOTES.md says why
each workload exists and how to compare two commits.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from artifacts import check, digests

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

EPSILONS = (0.1, 0.3, 0.5, 0.9)
# Fresh processes timed for setup_s; their median is reported.
PROBES = 3
# Seconds the speed probe takes at the reference speed that timings are scaled to:
# its median on the 2-core VM the baseline was measured on.
SPEED_REF_S = 0.11


@dataclass(frozen=True)
class Workload:
    """One CLI command at fixed sizes, run on ``cohorts`` CLI seeds drawn from --seed.

    A run makes whole passes over its cohorts, so every cohort weighs the
    same in its median: m, and with it the work of an invocation, depends on
    the cohort. ``tail_p`` is the fixed percentile reported as run_s_tail.
    """

    command: str
    n_train: int
    n_test: int
    cohorts: int
    tail_p: int


WORKLOADS = {
    "cancer-fit": Workload("cancer", 1000, 120, 28, 60),
    "cancer-eval": Workload("cancer", 500, 2800, 8, 75),
    "itr-io": Workload("itr", 3500, 8750, 12, 75),
}
# Sizes for the benchmark's own tests.
TINY = {"cancer": (60, 30), "itr": (80, 40)}


def cli_seeds(wl: Workload, seed: int) -> list[int]:
    # even numbers only: itr simulates its test cohort at seed + 1
    return [2 * (seed * wl.cohorts + i) for i in range(wl.cohorts)]


def sizes(wl: Workload, tiny: bool) -> tuple[int, int]:
    return TINY[wl.command] if tiny else (wl.n_train, wl.n_test)


def cli_argv(wl: Workload, cli_seed: int, out: Path, tiny: bool) -> list[str]:
    n_train, n_test = sizes(wl, tiny)
    argv = [wl.command, "--seed", str(cli_seed), "--n-train", str(n_train), "--n-test", str(n_test)]
    for eps in EPSILONS:
        argv += ["--epsilon", repr(eps)]
    return argv + ["--out", str(out)]


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    """Names and units of the metrics BENCHMARK.json declares of one kind."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def tail(values: list[float], p: int) -> tuple[float, int]:
    """The p-th percentile (nearest rank) and how many samples lie beyond it."""
    xs = sorted(values)
    rank = max(math.ceil(p * len(xs) / 100), 1)
    return xs[rank - 1], len(xs) - rank


# --- environment stamp -----------------------------------------------------


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> dict:
    """OpenBLAS version and live thread count of numpy's and scipy's BLAS."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["threads"] = getter()
                    break
        out[pkg.__name__] = info
    return out


def environment(name: str, wl: Workload, seed: int, seconds: float, tiny: bool) -> dict:
    import numpy
    import scipy

    n_train, n_test = sizes(wl, tiny)
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "loop": "closed, one client, one thread of control",
        "workload": {
            "name": name, "command": wl.command, "n_train": n_train, "n_test": n_test,
            "epsilons": list(EPSILONS), "seed": seed, "cli_seeds": cli_seeds(wl, seed),
            "tail_percentile": wl.tail_p, "seconds": seconds, "tiny": tiny,
        },
    }


# --- machine speed ------------------------------------------------------------


@functools.cache
def _speed_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    points = rng.standard_normal((240, 6))
    gram = np.cov(rng.standard_normal((120, 400))) + np.eye(120)
    return points, gram


def speed_probe() -> float:
    """Wall seconds of a fixed piece of work shaped like the program's.

    Kernel distances and prediction, a Cholesky solve, per-row Python records
    and float formatting: the same input every time, and no code of the
    program. On a shared machine the speed of the CPU drifts with other
    tenants' load over seconds to minutes, and the program and this probe
    slow down together.
    """
    import numpy as np
    from scipy.linalg import cho_factor, cho_solve

    points, gram = _speed_inputs()
    t0 = time.perf_counter()
    for _ in range(26):
        kernel = np.exp(-0.5 * ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
        pred = kernel @ points[:, 0]
        cho_solve(cho_factor(gram), pred[:120])
        rows = [{"row": i, "value": float(pred[i % 240]), "action": i % 11} for i in range(2400)]
        ",".join(repr(r["value"]) for r in rows if r["action"] > 4)
    return time.perf_counter() - t0


def rescale(times: list[float], probes: list[float]) -> list[float]:
    """Each time at the reference speed: ``probes`` has one more entry than
    ``times``, timed just before and just after each, and a time is scaled by
    the reference probe time over the mean of the two around it."""
    return [t * 2 * SPEED_REF_S / (a + b) for t, a, b in zip(times, probes, probes[1:])]


# --- invocations and their verdicts ------------------------------------------


def invoke(argv: list[str]) -> tuple[int, float, str]:
    """One in-process CLI invocation: exit code, wall seconds, stderr text."""
    from nearq.cli import main

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected argv
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - t0
    return code, elapsed, err.getvalue()


class Verdicts:
    """Checks every invocation of a run and counts the failures."""

    def __init__(self, name: str, wl: Workload, tiny: bool):
        ref = json.loads((BENCH / "reference.json").read_text())
        self.wl = wl
        self.tolerance = ref["tolerance"]
        # references hold full-size summaries only
        self.reference = {} if tiny else ref["seeds"].get(name, {})
        self.seen: dict[int, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, cli_seed: int, out: Path, code: int, stderr: str = "") -> dict[str, str]:
        self.attempted += 1
        problems, found = check(
            out, self.wl.command, EPSILONS, code, self.seen.get(cli_seed),
            self.reference.get(str(cli_seed)), self.tolerance,
        )
        if problems:
            self.failed += 1
            detail = f"; stderr: {stderr.strip()}" if stderr.strip() else ""
            self.problems.append(f"cli seed {cli_seed}: {'; '.join(problems)}{detail}")
        else:
            self.seen.setdefault(cli_seed, found)
        return found

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(message)


def passes(seeds: list[int], seconds: float):
    """Whole passes over the CLI seeds: as many as fit in ``seconds``, at least one.

    Another pass starts only if one more like the last would end by the
    deadline. A run never stops inside a pass, so which cohorts it covers, and
    how often each, does not depend on how fast the program is: a faster
    commit only adds whole passes, which repeat the same cohorts.
    """
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        yield from seeds
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def measure(name: str, seed: int, seconds: float, tiny: bool, scratch: Path) -> dict:
    """End-to-end metrics: setup in fresh processes, then the warm closed loop."""
    wl = WORKLOADS[name]
    verdicts = Verdicts(name, wl, tiny)
    seeds = cli_seeds(wl, seed)

    speed_probe()  # warm-up, untimed: the first call in a process runs cold
    setup, setup_speed = [], [speed_probe()]
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, TMPDIR=tempfile.gettempdir())
    for _ in range(PROBES):
        out = _fresh(scratch / "probe")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "nearq.cli", *cli_argv(wl, seeds[0], out, tiny)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
        )
        setup.append(time.perf_counter() - t0)
        setup_speed.append(speed_probe())
        verdicts.record(seeds[0], out, proc.returncode, proc.stderr)

    out = _fresh(scratch / "inv")
    code, _, err = invoke(cli_argv(wl, seeds[0], out, tiny))  # warm-up, untimed
    verdicts.record(seeds[0], out, code, err)

    times, speed = [], [speed_probe()]
    for cli_seed in passes(seeds, seconds):
        out = _fresh(scratch / "inv")
        code, elapsed, err = invoke(cli_argv(wl, cli_seed, out, tiny))
        times.append(elapsed)
        speed.append(speed_probe())
        verdicts.record(cli_seed, out, code, err)

    scaled = rescale(times, speed)
    tail_s, beyond = tail(scaled, wl.tail_p)
    metrics = {
        "run_s": statistics.median(scaled),
        "run_s_tail": tail_s,
        "setup_s": statistics.median(rescale(setup, setup_speed)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"run_s: median of {len(times)} warm invocations, {len(times) // len(seeds)} passes over {len(seeds)} cohorts",
        f"run_s_tail: p{wl.tail_p} of {len(times)} warm invocations, {beyond} beyond it",
        f"setup_s: median of {PROBES} fresh processes (interpreter start, import, one invocation)",
        f"times are at reference speed (speed probe {SPEED_REF_S} s); as measured: run_s "
        f"{statistics.median(times):.6g} s, setup_s {statistics.median(setup):.6g} s, "
        f"speed probe median {statistics.median(speed):.6g} s",
        "peak_rss_mb: peak resident set of the benchmark process over the warm loop",
        f"failed_frac: {verdicts.failed}/{verdicts.attempted} = {verdicts.failed / verdicts.attempted:.4g}",
    ]
    return {
        "verdicts": verdicts, "metrics": metrics, "notes": notes,
        "detail": {
            "invocation_s": times, "setup_s": setup, "speed_probe_s": speed,
            "setup_speed_probe_s": setup_speed, "tail_percentile": wl.tail_p,
        },
    }


def shares(m: dict[str, float], total: float) -> dict[str, float]:
    """Shares of the traced total that the workloads' purpose checks use."""
    return {
        "fits": (m["nearequiv.fit_s"] + m["qlearn.backward_fit_s"]) / total,
        "evaluation": m["evalkit.eval_s"] / total,
        "csv_io": (m["core.save_csv_s"] + m["core.load_csv_s"]) / total,
    }


PURPOSE = {
    "cancer-fit": ("fits > 0.5", lambda s: s["fits"] > 0.5),
    "cancer-eval": ("fits < 0.1 and evaluation > 0.5", lambda s: s["fits"] < 0.1 and s["evaluation"] > 0.5),
    "itr-io": ("csv_io > 0.5", lambda s: s["csv_io"] > 0.5),
}


def trace(name: str, seed: int, seconds: float, tiny: bool, scratch: Path) -> dict:
    """Per-layer metrics: plain and traced invocations of each CLI seed, alternating.

    Whole passes, as in ``measure``: every count is a median over the same
    cohorts, so it depends on the seed only.
    """
    from nearq.cli import build_parser, config_from_args
    from traced import ROOT_SPAN, TRACED, Recorder, layer_metrics, self_times

    wl = WORKLOADS[name]
    verdicts = Verdicts(name, wl, tiny)
    seeds = cli_seeds(wl, seed)
    out = _fresh(scratch / "cli")
    code, _, err = invoke(cli_argv(wl, seeds[0], out, tiny))  # warm-up, untimed
    verdicts.record(seeds[0], out, code, err)

    rec = Recorder()
    plain, per_invocation = [], []
    for cli_seed in passes(seeds, seconds):
        out = _fresh(scratch / "cli")
        code, elapsed, err = invoke(cli_argv(wl, cli_seed, out, tiny))
        plain.append(elapsed)
        want = verdicts.record(cli_seed, out, code, err)

        rec.invocation = len(plain)
        first = len(rec.spans)
        traced_out = _fresh(scratch / "traced")
        try:
            with rec.span(ROOT_SPAN):
                cfg = config_from_args(build_parser().parse_args(cli_argv(wl, cli_seed, traced_out, tiny)))
                counts = TRACED[wl.command](rec, cfg)
        except Exception as exc:  # a failed traced invocation is counted, not fatal
            verdicts.fail(f"cli seed {cli_seed}: traced invocation raised {exc!r}")
            continue
        got = digests(traced_out)
        if got != want:
            differ = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            verdicts.fail(f"cli seed {cli_seed}: traced artifacts differ from the CLI's: {differ}")
        else:
            verdicts.attempted += 1
        row = layer_metrics(rec.spans[first:], counts, EPSILONS)
        written = {p.name: p.stat().st_size for p in traced_out.iterdir()}
        row["core.csv_bytes"] = sum(written[n] for n in ("train.csv", "test.csv") if n in written)
        row["cli.artifact_bytes"] = sum(written.values())
        per_invocation.append(row)

    if not per_invocation:
        raise RuntimeError("no traced invocation completed: " + "; ".join(verdicts.problems[-3:]))
    metrics = {k: statistics.median(row[k] for row in per_invocation) for k in per_invocation[0]}
    total = metrics.pop("traced_total_s")
    metrics["cli.overhead_s"] = statistics.median(plain) - total
    share = shares(metrics, total)
    # timings of layers that some workload never calls: exactly 0 on every run of it
    units = declared("per_layer")
    unreported = {k: metrics.pop(k) for k in list(metrics) if k not in units}

    layers: dict[str, float] = {}
    for s, own in zip(rec.spans, self_times(rec.spans)):
        layer = "envs" if s.name == "evalkit.rollout" else s.name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own / len(per_invocation)
    text, check_purpose = PURPOSE[name]
    met = check_purpose(share)
    notes = [
        f"{len(per_invocation)} traced invocations alternating with {len(plain)} plain ones, "
        f"{len(plain) // len(seeds)} passes over {len(seeds)} cohorts; medians per invocation",
        f"traced total {total:.6g} s; plain run_s {statistics.median(plain):.6g} s",
        "self time per layer (mean per traced invocation): "
        + ", ".join(f"{k} {v:.4g} s" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])),
        "shares of the traced total: " + ", ".join(f"{k} {v:.3f}" for k, v in share.items()),
        f"purpose check {'met' if met else 'NOT MET'}: {text}",
    ]
    return {
        "verdicts": verdicts, "metrics": metrics, "notes": notes, "spans": rec,
        "detail": {
            "traced_total_s": total, "unreported_s": unreported, "layer_self_s": layers,
            "shares": share, "purpose_met": met,
        },
    }


# --- entry point ---------------------------------------------------------------


def run(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> dict:
    """Measure one workload; returns the printed result plus its details."""
    scratch = WORK / "runs" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = scratch / "tmp"
    tmp.mkdir(exist_ok=True)
    tempfile.tempdir = str(tmp)  # the CLI stages artifacts through temp files
    try:
        result = (trace if traced else measure)(name, seed, seconds, tiny, scratch)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
    result["environment"] = environment(name, WORKLOADS[name], seed, seconds, tiny)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nearq" / "cli.py").is_file():
        print(f"nearq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nearq

    if Path(nearq.__file__).resolve().parent != SRC / "nearq":
        print(f"imported nearq from {nearq.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    verdicts: Verdicts = result["verdicts"]
    metrics = result["metrics"]
    units = declared("per_layer" if args.trace else "end_to_end")
    reported = {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()}
    why = next(w["why"] for w in spec()["workloads"] if w["name"] == args.workload)

    print(f"workload {args.workload}: {why}")
    print("environment: " + json.dumps(result["environment"]))
    for key, m in sorted(reported.items()):
        print(f"{key} = {m['value']!r} {m['unit']}")
    for key, value in sorted(result["detail"].get("unreported_s", {}).items()):
        print(f"{key} = {value!r} s  (not in the result line: 0 on workloads that never call the layer)")
    for note in result["notes"]:
        print(note)
    for problem in verdicts.problems[:20]:
        print(f"FAILED {problem}")
    correct = verdicts.failed == 0
    print(f"correct: {'yes' if correct else 'no'} ({verdicts.failed} of {verdicts.attempted} invocations failed)")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result["spans"].dump(results / f"{stem}-spans.json")
    (results / f"{stem}.json").write_text(json.dumps({
        "environment": result["environment"],
        "metrics": reported,
        "notes": result["notes"], "detail": result["detail"],
        "attempted": verdicts.attempted, "failed": verdicts.failed, "problems": verdicts.problems,
    }, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
