"""The project's tooling: its pytest settings, run on a scratch file, and
what a cold `import dgs_opt` loads, each checked in a fresh interpreter; the
test extra's packages, checked against the test files' imports; the parsers
of `tools/bench_record.py`, on canned output; the summary, `--workload`
option, failed-run lines and `src_lines` line of `tools/bench_pairs.py`, on
fixed numbers;
`tools/step_costs.py` at a tiny repeat count, and its parts against the
estimate they time."""
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


def _bench(src_lines=None, **workloads):
    """A canned BENCH record: workload -> {metric: value} of its trace 0 run,
    or None for a run that failed; each run that did not fail has a meta
    line with ``src_lines``, unless that is None."""
    meta = {} if src_lines is None else {"meta": {**_META, "src_lines": src_lines}}
    return {"workloads": {
        name: {"trace0": {"exit_code": 1, "stderr_tail": []} if metrics is None else
               {"exit_code": 0, **meta, "result": {"metrics": {
                   key: {"value": value, "unit": "s"} for key, value in metrics.items()}}}}
        for name, metrics in workloads.items()}}


def test_bench_record_compares_with_the_newest_earlier_record(tmp_path):
    module = _bench_record()
    for n in (9, 17, 19, 21):  # 9 sorts after 17 as text
        (tmp_path / f"BENCH_{n}.json").write_text("{}")
    (tmp_path / "BENCH_x.json").write_text("{}")
    assert module.newest_before(20, tmp_path) == tmp_path / "BENCH_19.json"
    assert module.newest_before(18, tmp_path) == tmp_path / "BENCH_17.json"
    assert module.newest_before(9, tmp_path) is None
    metrics = [{"name": "wall_s", "unit": "s"}, {"name": "ok_frac", "unit": "ratio"}]
    # the first workload's run failed, so src_lines comes from the second
    now = _bench(1869, c=None, a={"wall_s": 0.3, "ok_frac": 1.0}, b={"wall_s": 2.0})
    earlier = _bench(1886, a={"wall_s": 0.4, "ok_frac": 0.0}, b={"wall_s": 2.0, "ok_frac": 0.5})
    assert module.compare(now, earlier, metrics) == [
        "c                wall_s            - -> - s (-)",
        "c                ok_frac           - -> - ratio (-)",
        "a                wall_s            0.4 -> 0.3 s (-25.0%)",
        "a                ok_frac           0 -> 1 ratio (-)",
        "b                wall_s            2 -> 2 s (+0.0%)",
        "b                ok_frac           0.5 -> - ratio (-)",
        "src_lines 1886 -> 1869 (-17)",
    ]
    assert module.compare(now, _bench(a={"wall_s": 0.4}), metrics[:1])[-1] == (
        "src_lines - -> 1869 (-)")


def test_bench_record_prints_the_comparison_after_writing(tmp_path, monkeypatch, capsys):
    module = _bench_record()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "a"}],
        "end_to_end": [{"name": "wall_s", "unit": "s"}]}))
    (tmp_path / "BENCH_19.json").write_text(json.dumps(_bench(1886, a={"wall_s": 0.5})))
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "run_workload", lambda name, seconds, trace: {
        "exit_code": 0, "meta": {**_META, "src_lines": 1869}, "result": {
            "correct": True, "metrics": {"wall_s": {"value": 0.45, "unit": "s"}}}})
    assert module.main(["20"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "wrote BENCH_20.json",
        "end-to-end metrics and src/ lines, BENCH_19.json -> BENCH_20.json:",
        "  a                wall_s            0.5 -> 0.45 s (-10.0%)",
        "  src_lines 1886 -> 1869 (-17)"]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_gives_medians_quartiles_and_pairs_won():
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "trial_steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.01},
               {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.05}]
    before = [{"wall_s": w, "trial_steps_per_s": t, "ok_frac": 1.0}
              for w, t in [(0.50, 100), (0.52, 98), (0.49, 101), (0.51, 99)]]
    after = [{"wall_s": w, "trial_steps_per_s": t, "ok_frac": 1.0}
             for w, t in [(0.48, 103), (0.53, 99), (0.47, 104), (0.50, 100)]]
    summarize = _bench_pairs().summarize
    assert summarize(before, after, metrics) == [
        "wall_s            0.505 -> 0.49 s (-3.0%); q1-q3 0.4975-0.5125 (3.0%); won 3/4",
        # a spread above the metric's bound cannot resolve the change
        "trial_steps_per_s 99.5 -> 101.5 1/s (+2.0%); q1-q3 98.75-100.25 (1.5%, unresolved); "
        "won 4/4",
        "ok_frac           1 -> 1 ratio (+0.0%); q1-q3 1-1 (0.0%); won 0/4"]  # a tie is no win
    assert summarize(before[:1], after[:1], metrics[:1]) == [
        "wall_s            0.5 -> 0.48 s (-4.0%); q1-q3 0.5-0.5 (0.0%); won 1/1"]


def test_bench_pairs_names_each_run_that_failed_or_was_not_correct():
    crashed = {"exit_code": 1, "stderr_tail": ["Traceback (most recent call last):",
                                               "KeyError: 'x'"]}
    wrong = {"exit_code": 0, "meta": _META, "result": {**_RESULT, "correct": False}}
    clean = {"exit_code": 0, "meta": _META, "result": _RESULT}
    assert _bench_pairs().failed_runs("HEAD", [clean, crashed, wrong], 101) == [
        "HEAD, pair 1, seed 102: exit 1, KeyError: 'x'",
        "HEAD, pair 2, seed 103: exit 0, -"]


def _reference_check(*args, patch: str = "") -> subprocess.CompletedProcess:
    """Run tools/reference_check.py with ``args``, after running ``patch``
    with perfbench's modules importable."""
    code = (f"import runpy, sys\nsys.argv = ['reference_check.py', *{list(args)!r}]\n"
            f"sys.dont_write_bytecode = True\nsys.path.insert(0, 'perfbench')\n{patch}\n"
            "runpy.run_path('tools/reference_check.py', run_name='__main__')\n")
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("workload", ["periodic-m5", "bandlimited-m40", "theorem3-cli"])
def test_reference_check_passes_a_smoke_seed(workload):
    done = _reference_check("--workload", workload, "--seeds", "0", "1", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == [
        f"{workload}: 0 of 4 configs failed (workload seeds 0 .. 0, smoke sizes)"]


def test_reference_check_names_each_failing_config_and_exits_1():
    # a reference whose trials all diverged disagrees with every config
    patch = ("import reference\nsweep = reference.sweep\n"
             "reference.sweep = lambda doc: dict(sweep(doc), trials_ok=[0] * 5)")
    done = _reference_check("--workload", "periodic-m5", "--seeds", "2", "3", "--smoke",
                            patch=patch)
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [f"master seed {s}" for s in range(8, 12)]
    assert lines[0].startswith("master seed 8: trials_ok [")
    assert lines[0].endswith("] != reference [0, 0, 0, 0, 0]")
    assert lines[-1] == "periodic-m5: 4 of 4 configs failed (workload seeds 2 .. 2, smoke sizes)"


def test_bench_pairs_workload_option_extends():
    # a second --workload replaced the first
    args = _bench_pairs().parse_args(["HEAD", "--workload", "a", "--workload", "b", "c"])
    assert args.workload == ["a", "b", "c"]


def test_bench_pairs_prints_each_trees_src_lines_from_its_meta_lines():
    src_lines = _bench_pairs().src_lines_line
    failed = {"exit_code": 1, "stderr_tail": []}
    before = [failed, {"exit_code": 0, "meta": {**_META, "src_lines": 1876}}]
    after = [{"exit_code": 0, "meta": {**_META, "src_lines": 1873}}]
    assert src_lines(before, after) == "src_lines         1876 -> 1873"
    assert src_lines([failed], after) == "src_lines         - -> 1873"


def test_step_costs_times_each_part_of_an_estimate_at_each_workload():
    # a tiny repeat count: one timeit repeat of each part
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "step_costs.py"), "--repeats",
                           "1"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"# machine: \d+ CPUs \(.+\), Python [\d.]+, numpy \S+", lines[0])
    parts = {"phi": ["x + offsets", "phi", "GH c_einsum", "sine-sum term", "map back",
                     "estimate", "run step", "trial setup", "aggregation"]}
    parts["evaluate"] = [p if p != "phi" else "evaluate" for p in parts["phi"]]
    blocks = [("periodic-m5", "phi"), ("bandlimited-m40", "phi"), ("theorem3-cli", "evaluate")]
    assert len(lines) == 1 + 10 * len(blocks)
    for i, (name, kind) in enumerate(blocks):
        block = lines[1 + 10 * i: 11 + 10 * i]
        assert block[0] == f"{name} (sigma 1):"
        assert [line[2:16].rstrip() for line in block[1:]] == parts[kind]
        for part, line in zip(parts[kind], block[1:]):
            cost = line[17:]
            if part == "sine-sum term" and kind == "evaluate":
                assert cost == "-"
            elif part in ("run step", "trial setup"):  # differences, which noise can turn negative
                assert re.fullmatch(r" *-?\d+\.\d\d us", cost), line
            else:
                assert re.fullmatch(r" *\d+\.\d\d us", cost) and float(cost[:-3]) > 0, line


def test_step_costs_parts_give_the_estimate_bit_for_bit_at_each_workload():
    # the parts retype smoothing._gh_gradient's steps; this keeps the copy in step
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("step_costs", ROOT / "tools" / "step_costs.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    from dgs_opt.smoothing import _gh_gradient
    bases = set()
    for name in module.WORKLOADS:
        f, _, basis, _, x, nodes = module.workload_shape(name)
        parts, estimate = module.estimate_by_parts(f, x, nodes)
        assert estimate.tobytes() == _gh_gradient(f, x, nodes).tobytes(), name
        assert (parts["sine-sum term"] is None) == (f.sines is None), name
        bases.add(nodes[4])  # identity or not: both maps back are covered
    assert bases == {True, False}
