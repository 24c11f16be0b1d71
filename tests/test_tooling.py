"""The project's tooling: its pytest settings, run on a scratch file, and
what a cold `import dgs_opt` loads, each checked in a fresh interpreter, and
the test extra's packages, checked against the test files' imports."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10, where pytest depends on tomli
    import tomli as tomllib

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


def test_every_test_extra_package_is_imported_by_a_test():
    # the test extra installs what the tests need and nothing more
    extra = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"][
        "optional-dependencies"]["test"]
    wanted = {re.split(r"[\s;<>=!~\[]", requirement, maxsplit=1)[0].lower().replace("-", "_")
              for requirement in extra}
    imported = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert sorted(wanted - imported) == []
