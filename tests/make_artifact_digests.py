"""Record the sha256 of every artifact of a few small ``nearq`` runs, ``run.meta`` excepted.

Run from the repository root:

    PYTHONPATH=src python tests/make_artifact_digests.py

It rewrites ``tests/artifact_digests.json``: each run's arguments and its
artifacts' digests, stamped with the platform whose floating point they
describe. ``tests/test_artifact_digests.py`` reruns the same arguments and
compares every byte. Regenerate only for an intended change of the artifacts'
bytes, and record which files moved and why.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

from nearq.cli import main

DIGESTS = Path(__file__).with_name("artifact_digests.json")
VOLATILE = frozenset({"run.meta"})  # holds timings

RUNS = {  # nearq arguments, --out aside
    "cancer-kernel": "cancer --seed 8 --n-train 120 --n-test 50 --epsilon 0.1 --epsilon 0.3 --epsilon 0.9",
    "cancer-linear": "cancer --seed 2 --regression interaction-linear --n-train 100 --n-test 40 --epsilon 0.5",
    "cancer-absolute": "cancer --seed 5 --mode absolute --n-train 100 --n-test 40 --epsilon 0.2 --epsilon 0.6",
    "cancer-one-test-patient": "cancer --seed 3 --n-train 60 --n-test 1 --epsilon 0.5",
    "itr": "itr --seed 4 --n-train 60 --n-test 40 --epsilon 0.1 --epsilon 0.5 --grid-resolution 7",
    # the paper's training size and every default tolerance: 1 + sum(m - 1) learned policies
    # of realistic m decide each live class of a few hundred test patients
    "cancer-paper-size": "cancer --seed 8 --n-train 500 --n-test 300",
}


def _openblas(symbol: str, restype):
    """``symbol()`` of the OpenBLAS numpy bundles, or None where it bundles none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        function = getattr(ctypes.CDLL(str(path)), symbol, None)
        if function is not None:
            function.argtypes, function.restype = [], restype
            return function()
    return None


def stamp() -> dict:
    """What fixes the bits of a floating-point artifact besides the code: the numpy build, the
    OpenBLAS kernels it runs (``OPENBLAS_CORETYPE`` can force another set) and their live thread
    count, and the SIMD targets numpy dispatches to."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    core = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "openblas_core": core.decode() if core is not None else None,
        "openblas_threads": _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int),
        "simd": config["SIMD Extensions"]["found"],
        "machine": platform.machine(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_artifacts(args: str, out: Path) -> dict[str, str]:
    """Run ``nearq`` with ``args`` into ``out``; the sha256 of each artifact but the volatile ones."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*args.split(), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"nearq {args} exited {code}")
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir()) if path.name not in VOLATILE}


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: {"args": args, "sha256": run_artifacts(args, Path(tmp) / name)} for name, args in RUNS.items()}
    DIGESTS.write_text(json.dumps({"stamp": stamp(), "runs": runs}, indent=1) + "\n")
    print(f"wrote {DIGESTS}: {sum(len(run['sha256']) for run in runs.values())} digests of {len(runs)} runs")


if __name__ == "__main__":
    regenerate()
