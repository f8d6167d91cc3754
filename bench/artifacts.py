"""Correctness checks on the artifacts of one ``nearq`` invocation.

An invocation fails when any of these holds:

* its exit code is not 0;
* an expected artifact is missing or empty;
* an artifact other than ``run.meta`` differs byte-for-byte from the run's
  earlier invocations with the same arguments;
* an ``eps*-rank1`` curve differs from the ``opt`` curve (the rank-1 chain is
  classical Q-learning);
* a tolerance band has ``band_lo > band_hi``;
* in itr, ``misclassified_in_band > misclassified_total``;
* a reference summary is stored for the seed and a summary falls outside its
  tolerance. Tolerances are set on aggregates, not raw bits, because a change
  in the last bits of a float can flip a near-tied argmax.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import statistics
from pathlib import Path

VOLATILE = "run.meta"  # holds timings, so it is the one artifact that may differ


def expected_artifacts(command: str, epsilons) -> list[str]:
    names = ["train.csv", "train.csv.meta.json", VOLATILE]
    if command == "cancer":
        names += ["trajectories.csv", "qstack.json"]
        for eps in epsilons:
            names += [f"curves_eps{eps}.csv", f"band_eps{eps}.csv", f"admissible_eps{eps}.csv"]
    else:
        names += ["test.csv", "test.csv.meta.json", "model.json", "blip_surface.csv"]
        names += [f"band_stats_eps{eps}.csv" for eps in epsilons]
    return names


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact but ``run.meta``."""
    out = {}
    for path in sorted(out_dir.iterdir()):
        if path.name != VOLATILE:
            with path.open("rb") as fh:
                out[path.name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return out


def _rows(path: Path) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(path.read_text())))


def summary(out_dir: Path, command: str, epsilons) -> dict[str, float]:
    """Aggregates compared against the stored reference for a seed."""
    if command == "cancer":
        rows = _rows(out_dir / f"curves_eps{epsilons[0]}.csv")
        last = max(int(r["month"]) for r in rows)
        finals = {r["policy_label"]: float(r["mean_combined"]) for r in rows if int(r["month"]) == last}
        opt_reward = next(float(r["mean_cum_reward"]) for r in rows if r["policy_label"] == "opt")
        consts = [v for label, v in finals.items() if label.startswith("const-")]
        return {
            "opt.final_mean_combined": finals["opt"],
            "opt.mean_cum_reward": opt_reward,
            "const.final_mean_combined": statistics.fmean(consts),
        }
    out = {}
    for eps in epsilons:
        (row,) = _rows(out_dir / f"band_stats_eps{eps}.csv")
        out[f"eps{eps}.misclassified_rate"] = int(row["misclassified_total"]) / int(row["n_test"])
        out[f"eps{eps}.band_fraction"] = float(row["band_fraction"])
    return out


def within(name: str, value: float, ref: float, tolerance: dict) -> bool:
    """Tolerances are keyed by summary name, with any ``eps<e>.`` prefix dropped."""
    rule = tolerance[name.rsplit(".", 1)[1] if name.startswith("eps") else name]
    return math.isclose(value, ref, rel_tol=rule.get("rel", 0.0), abs_tol=rule.get("abs", 0.0))


def _semantic_problems(out_dir: Path, command: str, epsilons) -> list[str]:
    problems = []
    if command == "cancer":
        for eps in epsilons:
            by_label: dict[str, list[tuple]] = {}
            for r in _rows(out_dir / f"curves_eps{eps}.csv"):
                by_label.setdefault(r["policy_label"], []).append(
                    (r["month"], r["mean_combined"], r["stderr_combined"], r["mean_cum_reward"])
                )
            rank1 = by_label.get(f"eps{eps}-rank1")
            if not rank1 or rank1 != by_label.get("opt"):
                problems.append(f"curves_eps{eps}.csv: eps{eps}-rank1 curve differs from opt")
            for r in _rows(out_dir / f"band_eps{eps}.csv"):
                if float(r["band_lo"]) > float(r["band_hi"]):
                    problems.append(f"band_eps{eps}.csv: band_lo > band_hi at month {r['month']}")
    else:
        for eps in epsilons:
            for r in _rows(out_dir / f"band_stats_eps{eps}.csv"):
                if int(r["misclassified_in_band"]) > int(r["misclassified_total"]):
                    problems.append(f"band_stats_eps{eps}.csv: misclassified_in_band > misclassified_total")
    return problems


def check(
    out_dir: Path,
    command: str,
    epsilons,
    exit_code: int,
    seen: dict[str, str] | None,
    reference: dict[str, float] | None,
    tolerance: dict,
) -> tuple[list[str], dict[str, str]]:
    """Problems with one invocation's artifacts, and their digests.

    ``seen`` holds the digests of an earlier invocation with the same
    arguments, or None for the first one.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    problems = []
    for name in expected_artifacts(command, epsilons):
        path = out_dir / name
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"artifact missing or empty: {name}")
    if problems:
        return problems, {}
    found = digests(out_dir)
    if seen is not None:
        for name in sorted(set(seen) | set(found)):
            if seen.get(name) != found.get(name):
                problems.append(f"{name} differs from the run's earlier invocations")
    try:
        problems += _semantic_problems(out_dir, command, epsilons)
        if reference is not None:
            for name, value in summary(out_dir, command, epsilons).items():
                if name not in reference or not within(name, value, reference[name], tolerance):
                    problems.append(f"summary {name}={value!r} outside tolerance of {reference.get(name)!r}")
    except (KeyError, TypeError, ValueError, StopIteration) as exc:
        problems.append(f"artifact could not be parsed: {exc!r}")
    return problems, found
