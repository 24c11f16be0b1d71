"""Every CSV and SVG byte that `dgs-opt run` and the three `dgs-opt plot`
kinds write for six small sweeps, held against frozen copies of the CSVs
under `data/golden/` and frozen sha256 digests of the SVGs.

The sweeps cover a constant radius with and without diverging trials, a
bandlimited draw at M = 40 on a random basis, a two-phase radius that
switches from constant to decaying mid-run, one that stops at the sigma
floor, and Theorem 3's radius. Each runs at `--jobs` 1 and 2. A CSV that
differs is reported by the line and column of its first differing cell and
the distance between the two values in ulps.

numpy's float64 `sin` and `pow` may round differently on another CPU or
numpy version, so the numpy version and the SIMD targets it runs on are
frozen next to the digests; a mismatch on another platform names both.
Run this file to rewrite the frozen CSVs and digests; any rewrite is a
change of output bytes and needs its cause stated.
"""
import hashlib
import json
import math
import struct
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
FROZEN_DIR = Path(__file__).with_name("data") / "golden"


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


def write_sweeps(work: Path, jobs: int) -> None:
    """Write, to work/<config>, every file that `dgs-opt run` and each
    `dgs-opt plot` kind write for each config."""
    for name, doc in CONFIGS.items():
        config, out = work / f"{name}.json", work / name
        config.write_text(json.dumps(doc))
        assert cli_main(["run", str(config), "--jobs", str(jobs), "--out", str(out)]) in (0, 2)
        for kind in PLOT_KINDS:
            svg = out / f"{kind}.svg"
            assert cli_main(["plot", str(out / "summary.csv"), "--kind", kind,
                             "--out", str(svg)]) == 0


def outputs(root: Path, suffix: str) -> dict:
    """The files under root/<config> with the suffix, keyed "config/file"."""
    return {f"{name}/{path.name}": path for name in CONFIGS
            for path in sorted((root / name).glob(f"*{suffix}"))}


def svg_digests(root: Path) -> dict:
    return {key: hashlib.sha256(path.read_bytes()).hexdigest()
            for key, path in outputs(root, ".svg").items()}


def _ordered(cell: str) -> int:
    """A float's bit pattern on a line where neighbouring floats differ by 1."""
    (bits,) = struct.unpack("<q", struct.pack("<d", float(cell)))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _distance(got: str, want: str) -> str:
    try:
        if math.isnan(float(got)) or math.isnan(float(want)):
            return "one is NaN"
        return f"{abs(_ordered(got) - _ordered(want))} ulps apart"
    except ValueError:  # a cell that is not a number
        return "not numbers"


def first_difference(got: str, want: str) -> str:
    """Where two CSV texts first differ: the line and column of the first
    differing cell, with its two values and their distance in ulps."""
    header = want.split("\n", 1)[0].split(",")
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for number, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g == w:
            continue
        for column, (gc, wc) in enumerate(zip(g.rstrip("\n").split(","),
                                              w.rstrip("\n").split(","))):
            if gc != wc:
                name = header[column] if column < len(header) else f"#{column + 1}"
                return (f"line {number}, column {column + 1} ({name}): {gc} where {wc} "
                        f"was frozen, {_distance(gc, wc)}")
        return f"line {number}: {g!r} where {w!r} was frozen"
    return f"{len(got_lines)} lines where {len(want_lines)} were frozen"


def test_first_difference_names_the_cell_and_its_distance_in_ulps():
    want = "trial,dist\n0,1.5\n0,0.10000000000000001\n"
    got = "trial,dist\n0,1.5\n0,0.10000000000000003\n"
    assert first_difference(got, want) == (
        "line 3, column 2 (dist): 0.10000000000000003 where 0.10000000000000001 was frozen, "
        "2 ulps apart")
    assert first_difference("trial,dist\n0,-0\n", "trial,dist\n0,0\n").endswith(
        "0 ulps apart")
    assert first_difference("trial,dist\n0,nan\n", "trial,dist\n0,0.5\n").endswith(
        "one is NaN")
    assert first_difference("a\nx\n", "a\ny\n").endswith("not numbers")
    assert first_difference("a,b\n1,2\n", "a,b\n1,2\n3,4\n") == (
        "2 lines where 3 were frozen")


@pytest.mark.parametrize("jobs", [1, 2])
def test_outputs_match_the_frozen_files(jobs, tmp_path):
    frozen = json.loads(GOLDEN_PATH.read_text())
    write_sweeps(tmp_path, jobs)
    got, want = outputs(tmp_path, ".csv"), outputs(FROZEN_DIR, ".csv")
    differing = []
    for key in sorted(want.keys() | got.keys()):
        if key not in got or key not in want:
            differing.append(f"{key} {'not written' if key in want else 'not frozen'}")
        elif got[key].read_bytes() != want[key].read_bytes():
            where = first_difference(got[key].read_text(), want[key].read_text())
            differing.append(f"{key} {where}")
    digests, frozen_digests = svg_digests(tmp_path), frozen["digests"]
    differing += [f"{key} has another sha256"
                  for key in sorted(frozen_digests.keys() | digests.keys())
                  if digests.get(key) != frozen_digests.get(key)]
    message = (f"{len(differing)} of {len(want) + len(frozen_digests)} files differ: "
               + "; ".join(differing))
    if platform() != frozen["platform"]:
        message += f"; frozen on {frozen['platform']}, run on {platform()}"
    assert not differing, message


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        write_sweeps(Path(work), jobs=1)
        shutil.rmtree(FROZEN_DIR, ignore_errors=True)
        for key, path in outputs(Path(work), ".csv").items():
            (FROZEN_DIR / key).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, FROZEN_DIR / key)
        digests = svg_digests(Path(work))
    GOLDEN_PATH.write_text(json.dumps({"platform": platform(), "digests": digests},
                                      indent=1) + "\n")
