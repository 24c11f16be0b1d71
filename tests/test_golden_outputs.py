"""Every CSV and SVG byte that `dgs-opt run` and the three `dgs-opt plot`
kinds write for six small sweeps, held against frozen sha256 digests.

The sweeps cover a constant radius with and without diverging trials, a
bandlimited draw at M = 40 on a random basis, a two-phase radius that
switches from constant to decaying mid-run, one that stops at the sigma
floor, and Theorem 3's radius. Each runs at `--jobs` 1 and 2.

numpy's float64 `sin` and `pow` may round differently on another CPU or
numpy version, so the numpy version and the SIMD targets it runs on are
frozen next to the digests; a mismatch on another platform names both.
Run this file to rewrite the frozen digests; any rewrite is a change of
output bytes and needs its cause stated.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dgs_opt.cli import main as cli_main
from dgs_opt.plotting import PLOT_KINDS

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

GOLDEN_PATH = Path(__file__).with_name("data") / "golden_outputs.json"


def _doc(**overrides):
    # test_harness's base config, copied: the frozen inputs must not move
    # with a helper another test file may change
    doc = {
        "experiment": "periodic-sweep",
        "objective": {"kind": "power-sum-sqrt", "dimension": 3, "box": [-5, 5]},
        "noise": {"kind": "periodic", "alpha": 1.0},
        "step_size": 0.01,
        "sigma_grid": [0.5, 1.0],
        "trials": 2,
        "max_iterations": 40,
        "schedule": {"kind": "constant"},
        "quadrature_order": 5,
        "basis": "identity",
        "master_seed": 99,
    }
    doc.update(overrides)
    return doc


CONFIGS = {
    "constant": _doc(),
    # some trials at each grid point blow up within ten steps
    "constant-diverging": _doc(trials=6, step_size=0.5),
    "bandlimited-m40": _doc(
        experiment="bandlimited-sweep", noise={"kind": "bandlimited", "alpha0": 1.0},
        sigma_grid=[0.1, 1.0, 10.0], quadrature_order=40, basis="random"),
    # 50 steps at one radius, then a new radius every step. The name is the
    # frozen digests' key; it dates from when radii were built in blocks of
    # 91 steps, and the switch fell inside one.
    "two-phase-switch-mid-block": _doc(
        experiment="diminishing-two-phase", basis="random", max_iterations=120,
        schedule={"kind": "two-phase-decay", "switch_iteration": 50, "contraction": 0.95}),
    # every trial stops at the sigma floor, after about 200 steps
    "two-phase-to-floor": _doc(
        experiment="diminishing-two-phase", max_iterations=400,
        schedule={"kind": "two-phase-decay", "switch_iteration": 10, "contraction": 0.85}),
    "theorem3": _doc(
        experiment="custom", objective={"kind": "quadratic", "dimension": 3, "box": [-5, 5]},
        noise={"kind": "diminishing", "beta": 1e-4}, step_size=0.005, basis="random",
        max_iterations=150,
        schedule={"kind": "theorem3", "beta": 1e-4, "L": 2.0, "tau": 2.0, "r0_tilde": 1.0}),
}


def platform() -> dict:
    """The numpy version, its SIMD baseline and the dispatch targets this
    CPU runs: what decides the bits of numpy's float64 kernels."""
    return {
        "numpy": np.__version__,
        "cpu_baseline": list(_umath.__cpu_baseline__),
        "cpu_dispatch": [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)],
    }


def sweep_digests(work: Path, jobs: int) -> dict:
    """sha256 of every file that `dgs-opt run` and each `dgs-opt plot`
    kind write, per config, keyed "config/file"."""
    digests = {}
    for name, doc in CONFIGS.items():
        config, out = work / f"{name}.json", work / name
        config.write_text(json.dumps(doc))
        assert cli_main(["run", str(config), "--jobs", str(jobs), "--out", str(out)]) in (0, 2)
        for kind in PLOT_KINDS:
            svg = out / f"{kind}.svg"
            assert cli_main(["plot", str(out / "summary.csv"), "--kind", kind,
                             "--out", str(svg)]) == 0
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("jobs", [1, 2])
def test_outputs_match_the_frozen_digests(jobs, tmp_path):
    frozen = json.loads(GOLDEN_PATH.read_text())
    got = sweep_digests(tmp_path, jobs)
    want = frozen["digests"]
    differing = sorted(f for f in want.keys() | got.keys() if got.get(f) != want.get(f))
    message = f"{len(differing)} of {len(want)} files differ: {', '.join(differing)}"
    if platform() != frozen["platform"]:
        message += f"; frozen on {frozen['platform']}, run on {platform()}"
    assert not differing, message


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        digests = sweep_digests(Path(work), jobs=1)
    GOLDEN_PATH.write_text(json.dumps({"platform": platform(), "digests": digests},
                                      indent=1) + "\n")
