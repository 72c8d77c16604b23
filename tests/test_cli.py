"""CLI surface: subcommands, exit codes, file outputs."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nswfair
from nswfair import solve_nsw
from nswfair.cli import EXPERIMENT_COLUMNS, entrypoint, main
from nswfair.generate import random_instance
from nswfair.instance import (
    Allocation,
    allocation_to_json,
    canonical_json,
    instance_to_json,
    load_allocation,
)


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "instance.json"
    code = main(["gen", "additive", "2", "5", "--seed", "3", "--out", str(path)])
    assert code == 0
    return str(path)


def test_gen_is_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["gen", "coverage", "3", "6", "--seed", "9", "--out", str(first)]) == 0
    assert main(["gen", "coverage", "3", "6", "--seed", "9", "--out", str(second)]) == 0
    blob = first.read_bytes()
    assert blob == second.read_bytes()
    expected = canonical_json(instance_to_json(random_instance("coverage", 3, 6, 9)))
    assert blob.decode() == expected
    assert blob.endswith(b"\n")


def test_gen_writes_to_stdout(capsys):
    assert main(["gen", "additive", "2", "3", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [entry["id"] for entry in doc["agents"]] == ["a0", "a1"]


def test_gen_rejects_bad_sizes(capsys):
    assert main(["gen", "additive", "0", "3"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_family_is_a_usage_error(capsys):
    assert main(["gen", "nonsense", "2", "3"]) == 1


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1


def test_solve_smoke_and_canonical_output(inst_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["solve", inst_file, "--eps", "0.1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "log_nsw:" in stdout and "swaps:" in stdout
    inst = random_instance("additive", 2, 5, 3)
    expected = canonical_json(solve_nsw(inst, 0.1).to_json())
    assert out.read_text() == expected


def test_solve_exact_verify_and_efx(inst_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["solve", inst_file, "--eps", "0.1", "--exact", "--verify", "--efx", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["exact"]["ratio"] >= 1.0 - 1e-9
    assert doc["efx"]["half_efx"] is True
    stdout = capsys.readouterr().out
    assert "ratio" in stdout and "half-efx ok" in stdout


def test_solve_trace_csv(inst_file, tmp_path):
    trace = tmp_path / "trace.csv"
    assert main(["solve", inst_file, "--trace", str(trace)]) == 0
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "giver", "item", "taker", "log_gain"]
    inst = random_instance("additive", 2, 5, 3)
    assert len(rows) - 1 == solve_nsw(inst, 0.1).swaps
    for step, row in enumerate(rows[1:], start=1):
        assert int(row[0]) == step
        assert float(row[4]) > 0


def test_solve_missing_file(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 1
    assert "cannot read instance" in capsys.readouterr().err


def test_solve_invalid_instance(tmp_path, capsys):
    path = tmp_path / "broken.json"
    doc = instance_to_json(random_instance("additive", 2, 3, 0))
    doc["agents"][0]["weight"] = [1, 3]  # weights no longer sum to 1
    path.write_text(canonical_json(doc))
    assert main(["solve", str(path)]) == 1
    assert "invalid instance" in capsys.readouterr().err


def test_solve_forced_certificate_failure_exits_2(inst_file, monkeypatch, capsys):
    import nswfair.cli as cli_mod

    monkeypatch.setattr(cli_mod, "half_efx_check", lambda inst, alloc: [("a0", "a1", "g0")])
    assert main(["solve", inst_file, "--efx"]) == 2
    assert "certificate violation" in capsys.readouterr().err


def test_solver_invariant_failure_exits_2(inst_file, monkeypatch, capsys):
    import nswfair.cli as cli_mod
    from nswfair import InvariantViolation

    def broken_solve(inst, eps):
        raise InvariantViolation("swap count 9 exceeded the certified bound 8")

    monkeypatch.setattr(cli_mod, "solve_nsw", broken_solve)
    assert main(["solve", inst_file]) == 2
    assert "solver bug: swap count 9" in capsys.readouterr().err


def test_module_invocation_runs_the_cli(tmp_path):
    src_dir = str(Path(nswfair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "inst.json"
    cmd = [sys.executable, "-m", "nswfair.cli", "gen", "additive", "2", "5", "--seed", "3", "--out", str(out)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == canonical_json(instance_to_json(random_instance("additive", 2, 5, 3)))
    usage = subprocess.run([sys.executable, "-m", "nswfair.cli"], env=env, capture_output=True, text=True, timeout=60)
    assert usage.returncode == 1
    assert "usage" in usage.stderr


def test_exact_command(inst_file, tmp_path, capsys):
    out = tmp_path / "opt.json"
    assert main(["exact", inst_file, "--out", str(out)]) == 0
    assert "opt log_nsw:" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["enumerated"] == 2**5
    assert set(doc["argmax"]["bundles"]) == {"a0", "a1"}


def test_efx_command_from_solver(inst_file, tmp_path, capsys):
    out = tmp_path / "fair.json"
    assert main(["efx", inst_file, "--out", str(out)]) == 0
    assert "half-efx ok" in capsys.readouterr().out
    fair = load_allocation(str(out))
    items = {j for a in ("a0", "a1") for j in fair.bundle(a)}
    assert items == {f"g{k}" for k in range(5)}


def test_efx_command_with_starting_allocation(inst_file, tmp_path):
    inst = random_instance("additive", 2, 5, 3)
    start = Allocation.of({"a0": list(inst.items), "a1": []})
    start_path = tmp_path / "start.json"
    start_path.write_text(canonical_json(allocation_to_json(inst, start)))
    out = tmp_path / "fair.json"
    assert main(["efx", inst_file, "--allocation", str(start_path), "--out", str(out)]) == 0
    fair = load_allocation(str(out))
    assert fair.bundle("a1")  # the empty-handed agent ends up with something


def test_efx_command_bad_allocation_file(inst_file, tmp_path, capsys):
    assert main(["efx", inst_file, "--allocation", str(tmp_path / "nope.json")]) == 1
    assert "cannot read allocation" in capsys.readouterr().err


def test_verify_command(inst_file, capsys):
    assert main(["verify", inst_file, "--eps", "0.1", "--exact", "--efx"]) == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout
    assert "FAIL" not in stdout


def test_experiment_command(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "families": ["additive", "coverage"],
                "n": [2],
                "m": [4],
                "trials": 2,
                "seed": 5,
                "eps": 0.1,
                "exact": True,
                "efx": True,
                "verify": True,
            }
        )
    )
    out = tmp_path / "results.csv"
    assert main(["experiment", str(config), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == EXPERIMENT_COLUMNS
    body = [row for row in rows[1:] if not row[0].startswith("max_ratio")]
    footer = [row for row in rows[1:] if row[0].startswith("max_ratio")]
    assert len(body) == 4  # 2 families x 1 size x 2 trials
    for row in body:
        if row[7]:
            assert float(row[7]) <= float(row[8]) + 1e-9
        assert row[10] == "yes"
    assert {row[0] for row in footer} <= {"max_ratio[additive]", "max_ratio[coverage]"}


def test_experiment_skips_oversized_exact(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NSW_SIZE_GUARD", "1000")
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"families": ["additive"], "n": [2], "m": [12], "trials": 1, "exact": True, "efx": False})
    )
    out = tmp_path / "results.csv"
    assert main(["experiment", str(config), "--out", str(out)]) == 0
    assert "skipping" in capsys.readouterr().err
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [EXPERIMENT_COLUMNS]


def test_experiment_rejects_unknown_family(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"families": ["mystery"]}))
    assert main(["experiment", str(config)]) == 1


def test_entrypoint_maps_to_sys_exit(tmp_path, monkeypatch):
    out = tmp_path / "inst.json"
    monkeypatch.setattr(
        sys, "argv", ["nswfair", "gen", "additive", "2", "4", "--seed", "0", "--out", str(out)]
    )
    with pytest.raises(SystemExit) as excinfo:
        entrypoint()
    assert excinfo.value.code == 0
    assert out.exists()
