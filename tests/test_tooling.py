"""The project's tooling, each part checked in a fresh interpreter: its pytest
settings, run on a scratch file, and what a cold `import dgs_opt` loads."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_misspelt_marker_fails_collection(tmp_path):
    # strict_markers in pyproject.toml: a typo in a marker must not leave the
    # test running in a lane it was not meant for
    test_file = tmp_path / "test_typo.py"
    test_file.write_text("import pytest\n\n\n@pytest.mark.slwo\ndef test_x():\n    pass\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "'slwo' not found in `markers` configuration option" in done.stdout


def test_import_loads_no_process_pool():
    # run_experiment imports its process pool only when it runs one, so a
    # cold start does not pay for concurrent.futures.process and multiprocessing
    code = ("import sys, dgs_opt; print(sorted(m for m in sys.modules if m == "
            "'concurrent.futures.process' or m.split('.')[0] == 'multiprocessing'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
