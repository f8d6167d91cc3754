"""Write ``reference.json``: the summaries that later runs must reproduce.

    python3 bench/make_reference.py

Run on a commit whose outputs are trusted. For each workload and each run seed
below RUN_SEEDS, it invokes the CLI on the first two CLI seeds that ``run.py``
derives, checks the artifacts and stores their summary (see
``artifacts.summary``).
The tolerances below apply to aggregates, so a last-bit change that flips a
near-tied argmax for a few test patients stays inside them.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run
from artifacts import check, summary

RUN_SEEDS = 30
TOLERANCE = {
    # the learned policy: a few flipped near-tied argmaxes move these a little
    "opt.final_mean_combined": {"rel": 0.02},
    "opt.mean_cum_reward": {"abs": 1.0},
    # constant-dose rollouts involve no fit: only summation order may change
    "const.final_mean_combined": {"rel": 1e-9},
    # itr band statistics over the test cohort
    "misclassified_rate": {"abs": 0.01},
    "band_fraction": {"abs": 0.01},
}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    out = run.WORK / "reference"
    tmp = run.WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)  # the CLI stages artifacts through temp files
    seeds: dict[str, dict[str, dict]] = {}
    for name, wl in run.WORKLOADS.items():
        seeds[name] = {}
        for seed in range(RUN_SEEDS):
            for cli_seed in run.cli_seeds(wl, seed)[:2]:
                shutil.rmtree(out, ignore_errors=True)
                code, _, err = run.invoke(run.cli_argv(wl, cli_seed, out, tiny=False))
                problems, _ = check(out, wl.command, run.EPSILONS, code, None, None, TOLERANCE)
                if problems:
                    print(f"{name} cli seed {cli_seed}: {problems} {err}", file=sys.stderr)
                    return 1
                seeds[name][str(cli_seed)] = summary(out, wl.command, run.EPSILONS)
        print(f"{name}: {len(seeds[name])} cli seeds")
    shutil.rmtree(out, ignore_errors=True)
    payload = {"tolerance": TOLERANCE, "seeds": seeds}
    (run.BENCH / "reference.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
