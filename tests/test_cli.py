import ast
import importlib
import json
import os
from dataclasses import replace

import pytest

import wcent
from wcent import (BasisElt, CenterCheck, GeneratorTable, Partition,
                   VacuumVector, hc_project, loop_realization, miura_generators,
                   miura_image, ss_vectors, w_generators)
from wcent import cdet, cli
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
                 ["sweep", "--max-N", "2", "--samples", "5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


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


def test_seed_sources(capsys, monkeypatch):
    monkeypatch.setenv("WCENT_SEED", "7")
    _, out = run(capsys, "jacobian", "-p", "1,2", "--format", "json")
    assert json.loads(out)["seed"] == 7
    _, out = run(capsys, "jacobian", "-p", "1,2", "--seed", "2", "--format", "json")
    assert json.loads(out)["seed"] == 2
    monkeypatch.delenv("WCENT_SEED")
    _, out = run(capsys, "jacobian", "-p", "1,2", "--format", "json")
    assert json.loads(out)["seed"] == 0
    monkeypatch.setenv("WCENT_SEED", "abc")
    assert cli.main(["jacobian", "-p", "1"]) == 2
    err = capsys.readouterr().err
    assert "WCENT_SEED" in err and "'abc'" in err
    monkeypatch.setenv("WCENT_SEED", "-3")
    assert cli.main(["jacobian", "-p", "1"]) == 2
    assert "WCENT_SEED must be non-negative, got -3" in capsys.readouterr().err
    monkeypatch.delenv("WCENT_SEED")
    assert cli.main(["jacobian", "-p", "1", "--seed", "-3"]) == 2
    assert "error: seed must be non-negative" in capsys.readouterr().err


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
    for mode in ("generators", "full"):
        code, out = run(capsys, "check-membership", "-p", "2,2", "--mode", mode,
                        "--format", "json")
        assert code == 0
        assert json.loads(out)["mode"] == mode


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


def test_public_names_resolve():
    assert len(set(wcent.__all__)) == len(wcent.__all__)
    for name in wcent.__all__:
        assert hasattr(wcent, name), name
