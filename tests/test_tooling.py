"""The project's tooling: its pytest settings, run on a scratch file, and
what a cold `import dgs_opt` loads, each checked in a fresh interpreter; the
test extra's packages, checked against the test files' imports; and the
parsers of `tools/bench_record.py`, on canned output."""
import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_META = {"nproc": 2, "cpu": "Intel(R) Xeon(R) CPU", "python": "3.11.7", "numpy": "2.4.6",
         "commit": "0123abc", "src_lines": 1884}
_RESULT = {"correct": True, "attempted": 40, "failed": 0,
           "metrics": {"wall_s": {"value": 0.55, "unit": "s"}}}
_RUN_OUTPUT = f"""# workload theorem3-cli seed 1 meta {json.dumps(_META)}
# at nominal speed: wall_s p50 0.55 s; run p50 0.5 s; setup_s p50 0.25 s
# theorem3-cli wall_s = 0.55 s
{json.dumps(_RESULT)}
"""
_PYTEST_LOG = """criterion 10: PASS - re-running the periodic sweep reproduces every CSV byte
============================= slowest 10 durations =============================
41.47s setup    tests/test_acceptance.py::test_criterion_6_periodic_experiment
26.80s call     tests/test_acceptance.py::test_criterion_10_determinism
=========================== short test summary info ============================
FAILED tests/test_acceptance.py::test_criterion_7_bandlimited_experiment - As...
================== 1 failed, 349 passed in 128.98s (0:02:08) ===================
"""


def test_bench_record_keeps_the_meta_line_and_the_result():
    got = _bench_record().parse_run_output(_RUN_OUTPUT)
    assert got == {"workload": "theorem3-cli", "seed": 1, "meta": _META, "result": _RESULT}


@pytest.mark.parametrize("quiet", [False, True], ids=["verbose", "quiet"])
def test_bench_record_reads_the_pytest_summary_and_slowest_durations(quiet):
    # under -q the summary line has no rules of "=" around it
    log = _PYTEST_LOG.replace("================== 1 failed", "1 failed").replace(
        "(0:02:08) ===================", "(0:02:08)") if quiet else _PYTEST_LOG
    got = _bench_record().parse_pytest_log(log)
    assert got == {
        "summary": "1 failed, 349 passed", "wall_s": 128.98,
        "counts": {"failed": 1, "passed": 349},
        "slowest": [
            {"seconds": 41.47, "phase": "setup",
             "test": "tests/test_acceptance.py::test_criterion_6_periodic_experiment"},
            {"seconds": 26.8, "phase": "call",
             "test": "tests/test_acceptance.py::test_criterion_10_determinism"}]}


def test_bench_record_keeps_a_clean_run_and_only_the_stderr_of_a_failed_one():
    module = _bench_record()
    assert module.read_run(0, _RUN_OUTPUT, "") == {
        "exit_code": 0, "workload": "theorem3-cli", "seed": 1, "meta": _META, "result": _RESULT}
    traceback = "Traceback (most recent call last):\n" + "  frame\n" * 30 + "KeyError: 'x'\n"
    crashed = module.read_run(1, "", traceback)
    assert crashed == {"exit_code": 1, "stderr_tail": ["  frame"] * 19 + ["KeyError: 'x'"]}
    # exit code 0, but the last line is not the JSON result
    garbled = module.read_run(0, _RUN_OUTPUT + "not json\n", "")
    assert garbled["exit_code"] == 0 and "result" not in garbled
    assert garbled["stderr_tail"][-1].startswith("unparsable output: Expecting value")


def test_bench_record_rejects_output_without_its_lines():
    module = _bench_record()
    with pytest.raises(ValueError, match="meta"):
        module.parse_run_output(json.dumps(_RESULT))
    with pytest.raises(ValueError, match="summary"):
        module.parse_pytest_log("no tests ran\n")
