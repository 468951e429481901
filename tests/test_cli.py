import ast
import gc
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace

import pytest

import wcent
from wcent import (BasisElt, CenterCheck, GeneratorTable, Partition,
                   VacuumVector, all_partitions, hc_project, loop_realization,
                   miura_generators, miura_image, ss_vectors, w_generators)
from wcent import affine, cdet, cli
from wcent.serialize import (diffpoly_from_json, generator_table_from_json,
                             sugawara_table_from_json, vacuum_from_json)


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_generators_json_round_trip(capsys):
    code, out = run(capsys, "generators", "-p", "1,2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert set(blob["entries"]) == {"w[1][0]", "w[1][1]", "w[2][1]"}
    table = generator_table_from_json(blob)
    expected = w_generators(Partition.of(1, 2))
    assert table.entries == expected.entries


def test_verify_center_passes(capsys):
    code, out = run(capsys, "verify-center", "-p", "1,1", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True
    assert blob["entries"]["phi[1][0]"] == {"pass": True}
    assert blob["entries"]["phi[2][0]"] == {"pass": True}


def test_verify_center_text(capsys):
    code, out = run(capsys, "verify-center", "-p", "1,1")
    assert code == 0
    assert "phi[1][0]: pass" in out and "verify-center: pass" in out


def test_usage_errors(capsys):
    assert run(capsys, "basis", "-p", "bogus")[0] == 2
    assert run(capsys, "basis", "-p", "2,1")[0] == 2
    assert run(capsys, "basis")[0] == 2  # no partition, no sweep
    assert run(capsys, "basis", "-p", "1,2", "--max-N", "3")[0] == 2
    assert run(capsys, "verify-center", "-p", "1,1", "--format", "latex")[0] == 2
    assert run(capsys, "jacobian", "-p", "1,1", "--seed", "-4")[0] == 2
    for argv in (["pva-axioms", "-p", "1,2", "--samples", "0"],
                 ["pva-axioms", "-p", "1,2", "--samples", "-3"],
                 ["basis", "--max-N", "3", "--max-n", "0"],
                 ["basis", "-p", "1,2", "--max-n", "1"],
                 ["sweep", "--max-N", "2", "--center-bound", "-1"],
                 ["sweep", "--max-N", "2", "--commute-bound", "-1"],
                 ["sweep", "--max-N", "0"]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # argparse rejects an unknown command, and any option the command does not read
    for argv in (["not-a-command"],
                 ["basis", "-p", "1,2", "--samples", "5", "--mode", "generators",
                  "--seed", "3"],
                 ["verify-center", "-p", "1,1", "--mode", "generators", "--samples", "7"],
                 ["basis", "-p", "1,2", "--samples", "5"],
                 ["verify-center", "-p", "1,1", "--mode", "generators"],
                 ["generators", "-p", "1,2", "--seed", "3"],
                 ["sweep", "--max-N", "2", "--samples", "5"],
                 ["check-membership", "-p", "1,2", "--mode", "full"],
                 ["sweep", "--max-N", "2", "--mode", "generators"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_non_ascii_partition_is_a_usage_error(capsys):
    for text in ("\u0661,\u0662", "\u00b2"):
        assert cli.main(["basis", "-p", text]) == 2
        err = capsys.readouterr().err
        assert err == "error: cannot parse partition %r (expected e.g. '1,2,2')\n" % text


def fake_check(v):
    return CenterCheck(False, (BasisElt(1, 1, 0), 0, VacuumVector.vacuum(v.partition)))


def test_check_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "center_check", fake_check)
    code, out = run(capsys, "verify-center", "-p", "1,1", "--format", "json")
    assert code == 1
    blob = json.loads(out)
    assert blob["ok"] is False
    witness = blob["entries"]["phi[1][0]"]["witness"]
    assert witness["x"] == [1, 1, 0] and witness["m"] == 0


def test_json_reports_are_byte_identical(capsys):
    runs = [run(capsys, "ss-vectors", "-p", "1,2", "--format", "json")[1]
            for _ in range(2)]
    assert runs[0] == runs[1]
    seeded = [run(capsys, "pva-axioms", "-p", "1,2", "--samples", "5",
                  "--seed", "3", "--format", "json")[1] for _ in range(2)]
    assert seeded[0] == seeded[1]


def test_seed_sources(capsys):
    _, out = run(capsys, "jacobian", "-p", "1,2", "--seed", "2", "--format", "json")
    assert json.loads(out)["seed"] == 2
    _, out = run(capsys, "jacobian", "-p", "1,2", "--format", "json")
    assert json.loads(out)["seed"] == 0
    assert cli.main(["jacobian", "-p", "1", "--seed", "-3"]) == 2
    assert "error: seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["7", "abc"])
def test_seed_ignores_the_environment(capsys, monkeypatch, value):
    # --seed is the one source of the seed; no variable stands in for it.
    monkeypatch.setenv("WCENT_SEED", value)
    code, out = run(capsys, "jacobian", "-p", "1,2", "--format", "json")
    assert code == 0 and json.loads(out)["seed"] == 0


@pytest.mark.parametrize("text", ["\u0663", "1_0"])
@pytest.mark.parametrize("argv", [["basis", "--max-N"],
                                  ["basis", "--max-N", "3", "--max-n"],
                                  ["jacobian", "-p", "1,2", "--seed"],
                                  ["pva-axioms", "-p", "1,2", "--samples"],
                                  ["sweep", "--max-N", "2", "--center-bound"],
                                  ["sweep", "--max-N", "2", "--commute-bound"]],
                         ids=lambda argv: argv[-1])
def test_integer_options_read_ascii_digits_only(capsys, argv, text):
    # int() alone reads both as numbers: 3 and 10
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [text])
    assert exc.value.code == 2
    assert "argument %s: invalid integer value: %r" % (argv[-1], text) \
        in capsys.readouterr().err


def test_sweep_reports(capsys):
    code, out = run(capsys, "check-membership", "--max-N", "3", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True
    assert len(blob["runs"]) == 6  # partitions of 1, 2, 3
    assert {r["partition"] for r in blob["runs"]} == \
        {"1", "1,1", "2", "1,1,1", "1,2", "3"}


def test_sweep_with_length_cap(capsys):
    _, out = run(capsys, "basis", "--max-N", "3", "--max-n", "1", "--format", "json")
    assert {r["partition"] for r in json.loads(out)["runs"]} == {"1", "2", "3"}


def test_membership_modes(capsys):
    # Membership has one path and no --mode; its reports still name it "full".
    code, out = run(capsys, "check-membership", "-p", "2,2", "--format", "json")
    assert code == 0
    assert json.loads(out)["mode"] == "full"
    code, out = run(capsys, "check-membership", "-p", "1,1,2")
    assert code == 0
    assert out.startswith("partition 1,1,2: membership (full mode)\n")


def test_ss_vectors_round_trip(capsys):
    _, out = run(capsys, "ss-vectors", "-p", "1,1", "--format", "json")
    table = sugawara_table_from_json(json.loads(out))
    assert set(table.entries) == {(1, 0), (2, 0)}


def test_latex_output(capsys):
    code, out = run(capsys, "generators", "-p", "1,2", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{align*}")
    code, out = run(capsys, "basis", "-p", "1,1", "--format", "latex")
    assert code == 0 and r"\item" in out


def test_verify_iso_and_remaining_commands(capsys):
    assert run(capsys, "verify-iso", "-p", "1,2")[0] == 0
    assert run(capsys, "miura", "-p", "1,2", "--format", "json")[0] == 0
    code, out = run(capsys, "basis", "-p", "1,2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["dim"] == 5
    assert [1, 2, 1] in blob["basis"]


def test_no_timings_in_json(capsys):
    _, out = run(capsys, "verify-center", "-p", "1,1", "--format", "json")
    assert "time" not in out and "elapsed" not in out
    _, text = run(capsys, "verify-center", "-p", "1,1")
    assert "[" in text.splitlines()[-1]  # text mode does report elapsed time


def test_jacobian_prime_point_past_thirty_boxes(capsys):
    code, out = run(capsys, "jacobian", "-p", "31", "--format", "json")
    assert code == 0
    point = json.loads(out)["point"].values()
    assert all(q["den"] == "1" for q in point)
    nums = sorted(int(q["num"]) for q in point)
    assert len(set(nums)) == 31 and nums[:3] == [2, 3, 5]
    assert all(all(q % d for d in range(2, q)) for q in nums)


def test_sweep_rows(capsys):
    code, out = run(capsys, "sweep", "--max-N", "4", "--center-bound", "3",
                    "--commute-bound", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)["runs"]
    assert len(rows) == 11  # partitions of 1 to 4
    base = ["N", "census", "jacobian", "membership", "miura", "ok", "partition"]
    for row in rows:
        expected = base + ["center", "iso"] * (row["N"] <= 3) + ["commute"] * (row["N"] <= 2)
        assert sorted(row) == sorted(expected)
        assert all(v is True for k, v in row.items() if k not in ("partition", "N"))


def test_sweep_script_rejects_empty_sweep(capsys):
    assert cli.main(["sweep", "--max-N", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith("error: --max-N must be at least 1")


def test_sweep_failure_carries_witness(capsys, monkeypatch):
    monkeypatch.setattr(cli, "center_check", fake_check)
    code, out = run(capsys, "sweep", "-p", "1,1", "--format", "json")
    assert code == 1
    row = json.loads(out)
    assert row["ok"] is False and row["center"] is False and row["iso"] is True
    assert list(row["witnesses"]) == ["center"]
    witness = row["witnesses"]["center"]["entries"]["phi[1][0]"]["witness"]
    assert witness["x"] == [1, 1, 0] and witness["m"] == 0


def test_verify_commute_witness(capsys, monkeypatch):
    p = Partition.of(1, 1)

    def vec(i, j, m):
        return VacuumVector.single(p, BasisElt(i, j, 0), m)

    assert run(capsys, "verify-commute", "-p", "1,1")[0] == 0
    monkeypatch.setattr(cli, "ss_vectors", lambda q: GeneratorTable(
        q, {(1, 0): vec(1, 2, -1), (2, 0): vec(2, 1, -1)}, {}))
    code, out = run(capsys, "verify-commute", "-p", "1,1", "--format", "json")
    assert code == 1
    witness = json.loads(out)["witness"]
    assert witness["pair"] == ["phi[1][0]", "phi[2][0]"]
    assert vacuum_from_json(witness["commutator"]) == vec(1, 1, -2) - vec(2, 2, -2)


def test_short_tables_fail(capsys, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "w_generators", lambda q: GeneratorTable(q, {}, {}))
        patch.setattr(cli, "ss_vectors", lambda q: GeneratorTable(q, {}, {}))
        # an empty Miura table too, so that `unmatched` alone cannot fail `miura`
        patch.setattr(cli, "miura_generators", lambda q: GeneratorTable(q, {}, {}))
        for command in ("generators", "ss-vectors", "check-membership", "miura",
                        "jacobian", "verify-center", "verify-commute"):
            assert run(capsys, command, "-p", "1,1")[0] == 1, command
    # verify-iso with one table short and the other whole: a generator table
    # cut to its first entry, then a Sugawara table cut the same way
    for name, make in (("w_generators", w_generators), ("ss_vectors", ss_vectors)):
        with monkeypatch.context() as patch:
            patch.setattr(cli, name, lambda q, make=make: replace(
                make(q), entries=dict(make(q).ordered()[:1])))
            code, out = run(capsys, "verify-iso", "-p", "1,2", "--format", "json")
        assert code == 1, name
        assert len(json.loads(out)["unmatched"]) == 2, name


def test_sweep_row_judges_one_sugawara_table(capsys, monkeypatch):
    # every check of a row reads the same Sugawara table, so an empty one
    # fails centre, iso and commute alike and no check that never read it
    monkeypatch.setattr(cli, "ss_vectors", lambda q: GeneratorTable(q, {}, {}))
    code, out = run(capsys, "sweep", "-p", "1,1", "--format", "json")
    assert code == 1
    row = json.loads(out)
    assert {c: row[c] for c in cli.SWEEP_CHECKS} == {
        "census": True, "membership": True, "miura": True, "jacobian": True,
        "center": False, "iso": False, "commute": False}
    assert row["ok"] is False and sorted(row["witnesses"]) == ["center", "commute", "iso"]


def test_sweep_builds_each_table_once(capsys, monkeypatch):
    calls = {}
    for name in ("w_generators", "miura_generators", "ss_vectors"):
        def counted(q, name=name, build=getattr(cli, name)):
            calls[name] = calls.get(name, 0) + 1
            return build(q)
        monkeypatch.setattr(cli, name, counted)
    # the Jacobian reads the context's Miura table, not one of its own
    monkeypatch.setattr(cdet, "miura_generators", cli.miura_generators)
    assert run(capsys, "sweep", "-p", "1,2", "--format", "json")[0] == 0
    assert calls == {"w_generators": 1, "miura_generators": 1, "ss_vectors": 1}


def test_centre_run_builds_each_partitions_state_once():
    # A run finishes one partition before it starts the next, so the
    # one-slot memos build each commutator table and each scan set once.
    affine._commutators.cache_clear()
    affine._scan_sets.cache_clear()
    parts = all_partitions(5)
    assert cli.dispatch(cli.RunConfig("verify-center", parts)).ok
    assert affine._commutators.cache_info().misses == len(parts) == 18
    assert affine._scan_sets.cache_info().misses == len(parts)


@pytest.mark.parametrize("command", ["verify-center", "sweep"])
def test_reports_free_finished_partitions_tables(monkeypatch, command):
    # The reports close over what they print, not the Context, so once the
    # run is over nothing holds the first partition's Sugawara table.
    built = []

    def recorded(q):
        t = ss_vectors(q)
        built.append(weakref.ref(t))
        return t

    monkeypatch.setattr(cli, "ss_vectors", recorded)
    report = cli.dispatch(cli.RunConfig(command, [Partition.of(1, 1), Partition.of(1, 2)]))
    gc.collect()
    assert len(built) == 2 and built[0]() is None
    assert report.ok and len(report.json()["runs"]) == 2


def test_sweep_renders_only_failed_checks(capsys, monkeypatch):
    # a row keeps only the verdict of a check that passed, so it never
    # serializes the generator table or a Miura image
    code, out = run(capsys, "sweep", "-p", "1,2", "--format", "json")
    assert code == 0

    def unused(*args):
        raise AssertionError("a passing sweep check was rendered")

    monkeypatch.setattr(cli.sz, "generator_table_to_json", unused)
    monkeypatch.setattr(cli.sz, "diffpoly_to_json", unused)
    assert run(capsys, "sweep", "-p", "1,2", "--format", "json") == (0, out)


def test_miura_mismatch_carries_expected_entry(capsys, monkeypatch):
    p = Partition.of(1, 2)
    table = miura_generators(p)
    wrong = table.entries[(1, 0)].scale(2)
    monkeypatch.setattr(cli, "miura_generators", lambda q: replace(
        table, entries={**table.entries, (1, 0): wrong}))
    code, out = run(capsys, "miura", "-p", "1,2", "--format", "json")
    assert code == 1
    entries = json.loads(out)["entries"]
    assert diffpoly_from_json(entries["w[1][0]"]["expected"]) == wrong
    assert diffpoly_from_json(entries["w[1][0]"]["image"]) == table.entries[(1, 0)]
    assert "expected" not in entries["w[1][1]"]
    # the failed check of a sweep row is rendered in full under `witnesses`
    code, out = run(capsys, "sweep", "-p", "1,2", "--format", "json")
    assert code == 1
    row = json.loads(out)
    assert row["miura"] is False
    entry = row["witnesses"]["miura"]["entries"]["w[1][0]"]
    assert diffpoly_from_json(entry["expected"]) == wrong
    assert diffpoly_from_json(entry["image"]) == table.entries[(1, 0)]


def test_verify_iso_failure_carries_difference(capsys, monkeypatch):
    p = Partition.of(1, 2)
    table = ss_vectors(p)
    doubled = table.entries[(2, 1)].scale(2)
    monkeypatch.setattr(cli, "ss_vectors", lambda q: replace(
        table, entries={**table.entries, (2, 1): doubled}))
    code, out = run(capsys, "verify-iso", "-p", "1,2", "--format", "json")
    assert code == 1
    entries = json.loads(out)["entries"]
    theta = loop_realization(miura_image(w_generators(p).entries[(2, 1)]), p)
    assert entries["phi[2][1]"]["match"] is False
    assert vacuum_from_json(entries["phi[2][1]"]["difference"]) == \
        theta - hc_project(doubled)
    assert entries["phi[1][0]"] == {"match": True, "translation": True}


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_traced_names_resolve():
    # perfbench/tracing.py wraps each (module, name) of its TARGETS list by
    # name; read the list without importing the benchmark.
    with open(os.path.join(ROOT, "perfbench", "tracing.py")) as fh:
        tree = ast.parse(fh.read())
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    assert targets
    for modname, target, _ in targets:
        owner = importlib.import_module("wcent." + modname)
        if "." in target:
            clsname, attr = target.split(".")
            assert attr in vars(getattr(owner, clsname)), target
        else:
            assert callable(getattr(owner, target, None)), target


def test_benchmark_workload_names_resolve():
    # perfbench/workloads.py reaches wcent only through module aliases
    # (W.name, S.name) looked up at call time; resolve every such attribute
    # chain, reading the aliases from its imports, without importing it.
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name, a.name) for a in node.names
                           if a.name.split(".")[0] == "wcent")
        elif isinstance(node, ast.ImportFrom) and node.module == "wcent":
            aliases.update((a.asname or a.name, "wcent." + a.name) for a in node.names)
    assert set(aliases) == {"W", "S"}, aliases
    chains = set()
    for node in ast.walk(tree):
        path = []
        while isinstance(node, ast.Attribute):
            path.append(node.attr)
            node = node.value
        if path and isinstance(node, ast.Name) and node.id in aliases:
            chains.add((node.id,) + tuple(reversed(path)))
    assert len(chains) >= 20, chains
    for alias, *attrs in sorted(chains):
        obj = importlib.import_module(aliases[alias])
        for depth, attr in enumerate(attrs):
            assert hasattr(obj, attr), ".".join([alias] + attrs[:depth + 1])
            obj = getattr(obj, attr)


def test_public_names_resolve():
    assert len(set(wcent.__all__)) == len(wcent.__all__)
    for name in wcent.__all__:
        assert hasattr(wcent, name), name


# Run the CLI with its verdict forced to FAIL.
_FORCED_FAIL = "\n".join([
    "import dataclasses, sys",
    "from wcent import cli",
    "real = cli.dispatch",
    "cli.dispatch = lambda cfg: dataclasses.replace(real(cfg), ok=False)",
    "sys.exit(cli.main(sys.argv[1:]))",
])


@pytest.mark.parametrize("runner, code", [(["-m", "wcent"], 0),
                                          (["-c", _FORCED_FAIL], 1)],
                         ids=["pass", "fail"])
@pytest.mark.parametrize("argv", [["basis", "-p", "1,2"],
                                  ["generators", "--max-N", "5", "--format", "json"]],
                         ids=["short", "long"])
def test_closed_stdout_exits_with_the_verdict(runner, code, argv):
    # A reader that closes the pipe at once: the short report fails in the
    # flush, the long one inside print.  Neither may turn into a traceback.
    proc = subprocess.Popen([sys.executable, *runner, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == code
    assert err == b""


# sha256 of stdout, with the text timings "(...s)" and "[...s]" masked, for
# small runs of every command in each format it has.  These pin the text and
# LaTeX bytes, which no other test compares whole.  A deliberate output change
# updates the digests here and says so in CHANGES.md.
OUTPUT_DIGESTS = {
    "basis --max-N 4 --format text":
        "999dbe7b37a7d408bf0164a93f4667730fe0a1bbe6d10c1679d9e6f779dc1cae",
    "basis --max-N 4 --format json":
        "8cc44935946dac71f321f92a00c7d060c1bb9ba8b8858bc44f2525bc6ac661c6",
    "basis --max-N 4 --format latex":
        "2a9bd2fcf3d18f76ab2ddff436c994eacdcb17430ff34590e8fdb0cb110ed966",
    "generators --max-N 4 --format text":
        "29ba81c1addd5aa32784fcd12aa5386654b2e8149164f68bbcc3fc854860212f",
    "generators --max-N 4 --format json":
        "9ebf67b594ccd1baac59b90c037b971b884770b7f726db097d347c6dab332737",
    "generators --max-N 4 --format latex":
        "f826464f0b1b65a681107f573f6fbb7de33673b438a56ae0d251bd03401b945e",
    "miura --max-N 4 --format text":
        "aee26551a42cdcce68fe852565a807f70c5482544968e47774838b67b9d34ec4",
    "miura --max-N 4 --format json":
        "bfcd14373f424682174a497b202e2835f20038ceb36edf18c57e71ad5eaaee53",
    "miura --max-N 4 --format latex":
        "396093501a7346cbc4567aa3f3777286fc557324162e2fa2a3ea05eb309b0c97",
    "jacobian --max-N 4 --format text":
        "5cb7be60ba5713cf88c334eb29adb4eb9cbcc029a69e43ad5883389e2416ccbb",
    "jacobian --max-N 4 --format json":
        "d0a7c15ba6b9d71e21e87f2924f220e27c30d8a0b95f8ebfa6b942148406962e",
    "jacobian --max-N 4 --format latex":
        "31897fb3285a711628eb99a286fb6b896abdc457567ee469b936643a035e52c1",
    "ss-vectors --max-N 4 --format text":
        "945f943d55d6fe7d2f8a1314257876b60f4b927d0911ceb6eb415247385da4a9",
    "ss-vectors --max-N 4 --format json":
        "dae31f14c1cfa73b615cc28791d960e400e1291b08a22c178e20042deb4748d6",
    "ss-vectors --max-N 4 --format latex":
        "9bf9b44d21ddbbf7a0f73b81d951900a864a3a593108111c3745bc870784637b",
    "check-membership -p 1,1,2 --format text":
        "6c252237c9f5e153cc651a39d18e8c78c488c8f01c008c8cbb4ae8b26c4d6fea",
    "check-membership -p 1,1,2 --format json":
        "f493848734941dff72a8e0c063d73ce5bede1227a42ad97d70c76f73659c10ba",
    "verify-center -p 1,1,2 --format text":
        "32748d52e1a335fb5182d957fe139ba3988143389762923a8e50a8f605e5e64e",
    "verify-center -p 1,1,2 --format json":
        "3b79b374630f18a1ae1cb7c9125de6f30aca0f58b894ce89f020384c39e5a96a",
    # The centre check's scan modulo the centre: on 2,2,2 the central powers
    # cover every direction of C outside [a, a]; on 1,2,3 two of the three
    # elements of C are still scanned.
    "verify-center -p 2,2,2 --format json":
        "17c5fa898bc906d444990dd6fbd289ec1fe018ba9064fe2375125b3fb6c28b31",
    "verify-center -p 1,2,3 --format json":
        "59fb6b3acff9eb175b776c34b3b14ebd7626224d59cd3e953e51c7469016861f",
    "verify-iso -p 1,1,2 --format text":
        "82c86d6016bbd2fac47379bbc4730aa3ac66ab517490f95aa2e24039b9b4b1e5",
    "verify-iso -p 1,1,2 --format json":
        "299bdb01bb4226c0dd4e7e2f3f9134088abe09f23643a8bd0bb38624ac66a7cb",
    "verify-commute -p 1,1,2 --format text":
        "a1696fd5c8ac76806c15eddabb353c0d633f0b2776eb684958f4741ffdd8f922",
    "verify-commute -p 1,1,2 --format json":
        "3c9493cfbb8f40e383eb8a59eaaf95e45f0eb7721707e34dddc11e5dded077d6",
    "sweep --max-N 5 --format text":
        "af0094f3c03e8f5ec1e55099e785dfb84ab9b60ca97e4109a48d75ffa8311125",
    "sweep --max-N 5 --format json":
        "dbdd163b1570d7771895c76b4259354a975067d6b740e6be542a36be1645ede9",
}


def test_outputs_match_recorded_digests(capsys):
    changed = []
    for argv, digest in OUTPUT_DIGESTS.items():
        code, out = run(capsys, *argv.split())
        out = re.sub(r"([(\[])\d+\.\d+s([)\]])", r"\1s\2", out)
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(argv)
    assert not changed


@pytest.mark.parametrize("command", sorted(cli.RUNNERS))
def test_latex_commands_match_the_runners(command):
    # --format latex is accepted exactly for LATEX_COMMANDS; a runner outside
    # them with a LaTeX builder, or one inside without, would go unprinted or
    # print an empty report with exit 0.
    assert cli.LATEX_COMMANDS <= set(cli.RUNNERS)
    args = cli.build_parser().parse_args([command, "-p", "1,2"])
    report = cli.dispatch(cli.config_from_args(args))
    assert (report.latex is not None) == (command in cli.LATEX_COMMANDS)
    if report.latex is not None:
        assert report.latex().strip()
