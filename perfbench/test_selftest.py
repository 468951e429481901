"""Self-test of the benchmark on the tiny size (N <= 3 per workload).

    python3 -m pytest -q perfbench/test_selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS, RunFailed, fastest_steps  # noqa: E402

END_TO_END = {"setup_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}


def _layer(prefix, *names):
    units = {"calls": "count", "self_s": "s", "zero_ratio": "ratio",
             "ss_terms": "count", "bytes": "bytes", "overhead_ratio": "ratio"}
    return {"%s.%s" % (prefix, n): units[n] for n in names}


PER_LAYER = dict(
    **_layer("centralizer.bracket", "calls", "zero_ratio", "self_s"),
    **_layer("centralizer.form", "calls", "self_s"),
    **_layer("diffpoly.mul", "calls", "self_s"),
    **_layer("diffpoly.partials", "calls", "self_s"),
    **_layer("diffpoly.substitute", "calls", "self_s"),
    **_layer("pva.membership", "calls", "self_s"),
    **_layer("pva.bracket_gen", "calls", "self_s"),
    **_layer("pva.master", "calls", "self_s"),
    **_layer("pva.project", "self_s"),
    **_layer("pva.axioms", "self_s"),
    **_layer("cdet.column_det", "calls", "self_s"),
    **_layer("cdet.diffop_mul", "calls", "self_s"),
    **_layer("cdet.miura", "self_s"),
    **_layer("cdet.jacobian", "self_s"),
    **_layer("affine.act_mode", "calls", "self_s"),
    **_layer("affine.vmul", "calls", "self_s"),
    **_layer("affine.derive", "calls", "self_s"),
    **_layer("affine.correspondence", "self_s"),
    **_layer("affine", "ss_terms"),
    **_layer("serialize", "self_s", "bytes"),
    **_layer("trace", "overhead_ratio"),
)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--size", "tiny",
                           "--seconds", "1", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result(lines):
    return json.loads(lines[-1])


def printed_units(lines, workload):
    """{metric: unit} from the human-readable lines of one workload."""
    out = {}
    for line in lines:
        fields = line.split()
        if len(fields) >= 4 and fields[0] == workload:
            out[fields[1]] = fields[3]
    return out


@pytest.mark.parametrize("trace, wanted", [("0", END_TO_END), ("1", PER_LAYER)])
def test_every_metric_is_printed_with_its_unit(trace, wanted):
    proc, lines = bench("--workload", "all", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    res = result(lines)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    for w in WORKLOADS:
        # fail_ratio is printed; the result line carries it as failed / attempted.
        assert printed_units(lines, w) == dict(wanted, fail_ratio="ratio")
        for name, unit in wanted.items():
            assert res["metrics"]["%s.%s" % (w, name)]["unit"] == unit


def test_single_workload_result_line_has_the_contract_keys():
    proc, lines = bench("--workload", "center")
    assert proc.returncode == 0, proc.stderr
    res = result(lines)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert set(res["metrics"]) == {"setup_s", "verify_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def copy_of_the_benchmark(tmp_path):
    """A checkout in tmp_path with a copy of perfbench/ and the repo's sources."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "spans"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    return tmp_path


@pytest.mark.parametrize("edit", [
    lambda ref: ref["workloads"]["classical"]["tiny"].update(digest="0" * 64),
    lambda ref: ref["expected_verdicts"].update(membership=False),
    lambda ref: ref["expected_verdicts"].update(membership_control=True),
], ids=["tampered-digest", "flipped-verdict", "flipped-control"])
def test_a_reference_mismatch_fails_the_run(tmp_path, edit):
    checkout = copy_of_the_benchmark(tmp_path)
    (checkout / "src").symlink_to(os.path.join(ROOT, "src"))
    reference = checkout / "perfbench" / "reference.json"
    ref = json.loads(reference.read_text())
    edit(ref)
    reference.write_text(json.dumps(ref))
    proc, lines = bench("--workload", "classical", cwd=checkout)
    assert proc.returncode == 1
    res = result(lines)
    assert not res["correct"] and res["failed"] > 0
    assert "MISMATCH" in proc.stderr


def one_pass(workload, seed):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "one_pass.py"),
                           workload, str(seed), "tiny", "plain", os.devnull],
                          capture_output=True, text=True, check=True, timeout=170)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_only(workload):
    a, b = one_pass(workload, 0), one_pass(workload, 12345)
    for key in ("verdicts", "output_terms", "digest"):
        assert a[key] == b[key]


def test_fastest_steps_sums_each_steps_fastest_time():
    records = [{"laps": [1.0, 5.0, 2.0]}, {"laps": [3.0, 4.0, 2.5]}]
    assert fastest_steps(records) == 1.0 + 4.0 + 2.0
    with pytest.raises(RunFailed):
        fastest_steps(records + [{"laps": [1.0, 1.0]}])


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    proc, lines = bench("--workload", "classical", cwd=copy_of_the_benchmark(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
