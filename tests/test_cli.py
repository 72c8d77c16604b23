"""CLI surface: subcommands, exit codes, file outputs."""

import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nswfair
from nswfair import Additive, ExplicitTable, Instance, solve_nsw
from nswfair.cli import EXPERIMENT_COLUMNS, EXPERIMENT_KEYS, entrypoint, main
from nswfair.generate import FAMILIES, WEIGHT_MODES, random_instance
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
    assert main(["gen", "additive", "2", "0"]) == 1
    assert capsys.readouterr().err == "error: m must be at least 1\n"


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
    report = solve_nsw(inst, 0.1)
    assert out.read_text() == canonical_json(report.to_json())
    cert = report.search.certificate
    assert stdout.splitlines()[-1] == (
        f"local optimum: {cert.triples_checked} triples checked, max log-gain {cert.max_log_gain:.6g} "
        f"(threshold {cert.threshold:.6g})"
    )


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


def test_overflowing_values_are_an_input_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    doc = instance_to_json(random_instance("additive", 2, 4, 0))
    for entry in doc["valuations"]:
        entry["params"]["values"] = dict.fromkeys(entry["params"]["values"], 1e308)
    path.write_text(canonical_json(doc))
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid instance") and "overflow" in err and "Traceback" not in err


def test_solve_forced_certificate_failure_exits_2(inst_file, monkeypatch, capsys):
    import nswfair.cli as cli_mod

    monkeypatch.setattr(cli_mod, "half_efx_check", lambda inst, alloc: [("a0", "a1", "g0")])
    assert main(["solve", inst_file, "--efx"]) == 2
    assert "certificate violation" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["nan", "inf", "5e-324", "1e-320", "1e308"])
def test_solve_rejects_an_unusable_eps(tmp_path, capsys, eps):
    path = str(tmp_path / "instance.json")
    assert main(["gen", "additive", "2", "6", "--seed", "0", "--out", path]) == 0
    assert main(["solve", path, "--eps", eps]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: eps") and "Traceback" not in err


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


def test_verify_skips_spending_caps_without_positive_welfare(tmp_path, capsys):
    # 3 agents, 2 items: no complete allocation gives every agent positive value
    path = tmp_path / "instance.json"
    assert main(["gen", "additive", "3", "2", "--out", str(path)]) == 0
    assert main(["solve", str(path), "--verify"]) == 0
    assert "local optimum" not in capsys.readouterr().out  # no search, no recheck record
    assert main(["verify", str(path), "--exact"]) == 0
    stdout = capsys.readouterr().out
    assert "SKIP  asymmetric spending caps (no positive-welfare allocation)" in stdout
    assert "SKIP  symmetric spending caps (no positive-welfare allocation)" in stdout
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


def test_experiment_skips_oversized_exact(tmp_path, capsys):
    config = tmp_path / "config.json"
    # 2^27 allocations exceed the 10^8 guard
    config.write_text(
        json.dumps({"families": ["additive"], "n": [2], "m": [27], "trials": 1, "exact": True, "efx": False})
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


def test_readme_experiment_config_shows_the_schema_defaults():
    # The README's config block lists every key, in table order, at its default.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Experiment config", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert list(json.loads(block).items()) == [(key, default) for key, (_, default) in EXPERIMENT_KEYS.items()]


def test_entrypoint_maps_to_sys_exit(tmp_path, monkeypatch):
    out = tmp_path / "inst.json"
    monkeypatch.setattr(
        sys, "argv", ["nswfair", "gen", "additive", "2", "4", "--seed", "0", "--out", str(out)]
    )
    with pytest.raises(SystemExit) as excinfo:
        entrypoint()
    assert excinfo.value.code == 0
    assert out.exists()


def test_verify_reports_a_cap_failure_as_fail(inst_file, monkeypatch, capsys):
    import nswfair.pipeline as pipeline
    from nswfair.search import SpendingReport

    real = pipeline.check_spending

    def over_cap(price_vector):
        report = real(price_vector)
        if price_vector.variant != "asymmetric":
            return report
        return SpendingReport(report.variant, {**report.per_agent, "a0": (0.75, 0.5)}, 0.9, 1.0)

    monkeypatch.setattr(pipeline, "check_spending", over_cap)
    assert main(["verify", inst_file]) == 2
    captured = capsys.readouterr()
    assert "FAIL  asymmetric spending caps" in captured.out
    assert "PASS  symmetric spending caps" in captured.out
    assert "certificate violation" in captured.err


def _over_asymmetric_cap(monkeypatch):
    """Patch ``pipeline.check_spending`` so that agent a0 overruns its asymmetric cap."""
    import nswfair.pipeline as pipeline
    from nswfair.search import SpendingReport

    real = pipeline.check_spending

    def over_cap(price_vector):
        report = real(price_vector)
        if price_vector.variant != "asymmetric":
            return report
        return SpendingReport(report.variant, {**report.per_agent, "a0": (0.75, 0.5)}, 0.9, 1.0)

    monkeypatch.setattr(pipeline, "check_spending", over_cap)


def test_efx_command_enforces_the_solve_certificates(inst_file, tmp_path, monkeypatch, capsys):
    _over_asymmetric_cap(monkeypatch)
    out = tmp_path / "fair.json"
    assert main(["efx", inst_file, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "efx: failed asymmetric spending caps" in captured.err
    assert captured.out == "" and not out.exists()


def test_two_outputs_on_one_file_are_refused(inst_file, tmp_path, capsys):
    out = tmp_path / "r.out"
    assert main(["solve", inst_file, "--trace", str(out), "--out", str(out)]) == 1
    assert "same file" in capsys.readouterr().err and not out.exists()
    (tmp_path / "link.out").symlink_to(out)
    assert main(["solve", inst_file, "--trace", str(tmp_path / "link.out"), "--out", str(out)]) == 1
    assert not out.exists() and sorted(os.listdir(tmp_path)) == ["instance.json", "link.out"]


@pytest.mark.parametrize("family", FAMILIES)
def test_every_solving_command_enforces_the_list_verify_prints(tmp_path, monkeypatch, capsys, family):
    import nswfair.cli as cli_mod

    enforced = []
    real = cli_mod._require
    monkeypatch.setattr(cli_mod, "_require", lambda checks, where: enforced.append(checks) or real(checks, where))
    path = str(tmp_path / "instance.json")
    assert main(["gen", family, "2", "4", "--seed", "1", "--out", path]) == 0
    assert main(["verify", path, "--exact", "--efx"]) == 0
    printed = [line.split("  ", 1)[1].split(" (no positive")[0] for line in capsys.readouterr().out.splitlines()]
    assert len(printed) == 8
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"families": [family], "n": [2], "m": [4], "trials": 1, "seed": 1, "verify": True}))
    assert main(["solve", path, "--exact", "--verify", "--efx"]) == 0
    assert main(["experiment", str(config)]) == 0
    assert [[name for name, _ in checks] for checks in enforced] == [printed] * 3


def test_solve_efx_rejects_an_incomplete_fair_allocation(inst_file, monkeypatch, capsys):
    import nswfair.cli as cli_mod

    real = cli_mod.guarantee_half_efx

    def drop_one_item(inst, allocation):
        fair = real(inst, allocation)
        holder = next(a for a in inst.agents if fair.bundle(a))
        dropped = inst.sort_items(fair.bundle(holder))[0]
        return Allocation({a: b - {dropped} for a, b in fair.bundles.items()})

    monkeypatch.setattr(cli_mod, "guarantee_half_efx", drop_one_item)
    assert main(["solve", inst_file, "--efx"]) == 2
    assert "efx completeness" in capsys.readouterr().err


def test_efx_command_rejects_an_incomplete_fair_allocation(inst_file, tmp_path, monkeypatch, capsys):
    import nswfair.cli as cli_mod

    real = cli_mod.guarantee_half_efx

    def drop_one_item(inst, allocation):
        fair = real(inst, allocation)
        holder = next(a for a in inst.agents if fair.bundle(a))
        dropped = inst.sort_items(fair.bundle(holder))[0]
        return Allocation({a: b - {dropped} for a, b in fair.bundles.items()})

    monkeypatch.setattr(cli_mod, "guarantee_half_efx", drop_one_item)
    out = tmp_path / "fair.json"
    assert main(["efx", inst_file, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "efx: failed" in captured.err and "efx completeness" in captured.err
    assert "half-efx ok" not in captured.out
    assert not out.exists()


def test_experiment_verify_enforces_every_check(tmp_path, monkeypatch, capsys):
    import nswfair.cli as cli_mod

    config = tmp_path / "config.json"
    doc = {"families": ["additive"], "n": [2], "m": [4], "trials": 1, "exact": False, "efx": True}
    monkeypatch.setattr(cli_mod, "half_efx_check", lambda inst, alloc: [("a0", "a1", "g0")])
    config.write_text(json.dumps(doc))
    assert main(["experiment", str(config)]) == 0
    assert capsys.readouterr().out.strip().splitlines()[1].endswith(",no")
    config.write_text(json.dumps({**doc, "verify": True}))
    assert main(["experiment", str(config)]) == 2
    assert "instance additive-n2-m4-s0: failed half-efx" in capsys.readouterr().err


def test_non_submodular_table_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "instance.json"
    doc = instance_to_json(random_instance("additive", 2, 6, 0))
    order = doc["items"]
    squares = [float(bin(mask).count("1") ** 2) for mask in range(1 << len(order))]
    doc["valuations"][0] = {"agent": "a0", "kind": "explicit_table", "params": {"order": order, "values": squares}}
    path.write_text(canonical_json(doc))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert "not submodular" in captured.err
    assert captured.out == ""


def test_verify_output_does_not_depend_on_asserts(tmp_path):
    # `python -O` strips assert statements; no check may rely on one.
    src_dir = str(Path(nswfair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    path = tmp_path / "inst.json"
    path.write_text(canonical_json(instance_to_json(random_instance("coverage", 3, 7, 4))))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "nswfair.cli", "verify", str(path), "--exact", "--efx"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        for flags in ([], ["-O"])
    ]
    assert runs[0].returncode == 0, runs[0].stderr
    assert (runs[1].returncode, runs[1].stdout) == (runs[0].returncode, runs[0].stdout)
    assert runs[0].stdout.count("PASS") >= 8


_BASE = instance_to_json(random_instance("additive", 2, 4, 0))
_BUDGET, _COVER, _RANK = (instance_to_json(random_instance(f, 2, 4, 0)) for f in FAMILIES[1:])
_TABLE = instance_to_json(Instance(("a0", "a1"), (Fraction(1, 2),) * 2, ("g0",), (ExplicitTable(["g0"], [0, 1]),) * 2))


def _edited(path, value, base=_BASE):
    """The 2x4 additive instance document (or ``base``) with the entry at ``path`` set to ``value``."""
    doc = entry = copy.deepcopy(base)
    *parents, last = path
    for key in parents:
        entry = entry[key]
    entry[last] = value
    return doc


MALFORMED_FILES = {
    "weight [1, 0]": ("solve", _edited(("agents", 0, "weight"), [1, 0])),
    "weight [1]": ("solve", _edited(("agents", 0, "weight"), [1])),
    "weight [1.5, 2]": ("solve", _edited(("agents", 0, "weight"), [1.5, 2])),
    "weight [true, 2]": ("solve", _edited(("agents", 0, "weight"), [True, 2])),
    "agent entry a string": ("solve", _edited(("agents", 0), "a0")),
    "unknown params key": ("solve", _edited(("valuations", 0, "params", "bogus"), 1)),
    "items null": ("solve", _edited(("items",), None)),
    "value [1]": ("solve", _edited(("valuations", 0, "params", "values", "g0"), [1])),
    "valuations [1, 2]": ("solve", _edited(("valuations",), [1, 2])),
    "instance [1, 2]": ("solve", [1, 2]),
    "bundles [1, 2]": ("efx", {"format_version": 1, "bundles": [1, 2]}),
    "bundle 5": ("efx", {"format_version": 1, "bundles": {"a0": 5}}),
    "config [1, 2]": ("experiment", [1, 2]),
    "config n 5": ("experiment", {"n": 5}),
    "config exact 'false'": ("experiment", {"exact": "false"}),
    "config efx 'no'": ("experiment", {"efx": "no"}),
    "config verify 1": ("experiment", {"verify": 1}),
    "config n [2.9]": ("experiment", {"n": [2.9]}),
    "config m [true]": ("experiment", {"m": [True]}),
    "config trials 1.9": ("experiment", {"trials": 1.9}),
    "config seed '0'": ("experiment", {"seed": "0"}),
    "config eps true": ("experiment", {"eps": True}),
    "config eps '0.1'": ("experiment", {"eps": "0.1"}),
    "config trails 1": ("experiment", {"trails": 1}),
    "config bogus 1": ("experiment", {"bogus": 1}),
    "config trials -1": ("experiment", {"trials": -1}),
    "valuation twice": ("solve", _edited(("valuations",), _BASE["valuations"] + _BASE["valuations"][:1])),
    "valuation of an unknown agent": (
        "solve",
        _edited(("valuations",), _BASE["valuations"] + [{"agent": "zz", "kind": "nonsense", "params": {}}]),
    ),
    "valuation of agent 0 for ids 'a0', 'a1'": ("solve", _edited(("valuations", 0, "agent"), 0)),
    "value true": ("solve", _edited(("valuations", 0, "params", "values", "g0"), True)),
    "value '2'": ("solve", _edited(("valuations", 0, "params", "values", "g0"), "2")),
    "cap true": ("solve", _edited(("valuations", 0, "params", "cap"), True, _BUDGET)),
    "cap '5'": ("solve", _edited(("valuations", 0, "params", "cap"), "5", _BUDGET)),
    "element weight true": ("solve", _edited(("valuations", 0, "params", "element_weights", "u0"), True, _COVER)),
    "capacity true": ("solve", _edited(("valuations", 0, "params", "capacities", "c0"), True, _RANK)),
    "capacity '1'": ("solve", _edited(("valuations", 0, "params", "capacities", "c0"), "1", _RANK)),
    "scale true": ("solve", _edited(("valuations", 0, "params", "scale"), True, _RANK)),
    "table entry true": ("solve", _edited(("valuations", 0, "params", "values", 1), True, _TABLE)),
    "table entry '1'": ("solve", _edited(("valuations", 0, "params", "values", 1), "1", _TABLE)),
    "config families {'additive': 1}": ("experiment", {"families": {"additive": 1}, "n": [2], "m": [3], "trials": 1}),
    "config families 'additive'": ("experiment", {"families": "additive", "n": [2], "m": [3], "trials": 1}),
    "config n {}": ("experiment", {"n": {}, "m": [3], "trials": 1}),
    "config m {}": ("experiment", {"n": [2], "m": {}, "trials": 1}),
    "items 'g0g1g2g3'": ("solve", _edited(("items",), "g0g1g2g3")),
    "agents 'a0a1'": ("solve", _edited(("agents",), "a0a1")),
    "valuations 'a0'": ("solve", _edited(("valuations",), "a0")),
    "bundle 'g0'": ("efx", {"format_version": 1, "bundles": {"a0": "g0", "a1": ["g1", "g2", "g3"]}}),
    "cover 'u0'": ("solve", _edited(("valuations", 0, "params", "covers", "g0"), "u0", _COVER)),
    "table order 'g0'": ("solve", _edited(("valuations", 0, "params", "order"), "g0", _TABLE)),
}


class _Text(str):
    """A document given as its JSON text, for one that ``json.dumps`` cannot write."""


_DEEP = _Text("[" * 5000 + "]" * 5000)  # nested deeper than the JSON parser's recursion limit


def _main_on_file(tmp_path, command, doc):
    """Run ``command`` with ``doc`` as its input file: the instance of ``solve``, ``exact``,
    ``verify`` (with ``--exact --efx``) or ``efx solve``, the starting allocation of ``efx``
    (on the 2x4 additive instance) or the config of ``experiment``."""
    inst, path = tmp_path / "instance.json", tmp_path / "input.json"
    inst.write_text(canonical_json(_BASE))
    path.write_text(doc if isinstance(doc, _Text) else json.dumps(doc))
    argv = {
        "solve": ["solve", str(path)],
        "exact": ["exact", str(path)],
        "verify": ["verify", str(path), "--exact", "--efx"],
        "efx solve": ["efx", str(path)],
        "efx": ["efx", str(inst), "--allocation", str(path)],
        "experiment": ["experiment", str(path)],
    }[command]
    return main(argv)


@pytest.mark.parametrize("command,doc", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_malformed_input_files_exit_1_with_an_error_line(tmp_path, capsys, command, doc):
    assert _main_on_file(tmp_path, command, doc) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "case,field",
    [
        ("items 'g0g1g2g3'", "items"),
        ("agents 'a0a1'", "agents"),
        ("valuations 'a0'", "valuations"),
        ("bundle 'g0'", "bundle of 'a0'"),
        ("cover 'u0'", "cover of item 'g0'"),
        ("table order 'g0'", "table order"),
    ],
)
def test_a_string_where_a_list_belongs_is_named(tmp_path, capsys, case, field):
    # A string is iterable, so unchecked it would be read as a list of its characters.
    assert _main_on_file(tmp_path, *MALFORMED_FILES[case]) == 1
    assert f"{field} must be a list, got '" in capsys.readouterr().err


_AGENT_0, _VALUATION_0 = _BASE["agents"][0], _BASE["valuations"][0]
_NAN, _INF = float("nan"), float("inf")  # json.dumps writes NaN and Infinity, which json.load reads
_HUGE = 10**400  # a JSON integer too large for a float

# Each input check, reached through the CLI, and a fragment of the error line it gives.
INPUT_CHECKS = {
    "no agents": ("solve", {**_BASE, "agents": [], "valuations": []}, "at least one agent"),
    "agent a0 twice": (
        "solve",
        {**_BASE, "agents": [_AGENT_0, {**_AGENT_0, "weight": [1, 2]}], "valuations": [_VALUATION_0]},
        "agent ids must be unique",
    ),
    "item g0 twice": ("solve", _edited(("items", 1), "g0"), "item ids must be unique"),
    "weight 0": (
        "solve",
        _edited(("agents", 1, "weight"), [1, 1], _edited(("agents", 0, "weight"), [0, 1])),
        "weight of agent 'a0' must be positive",
    ),
    "weight -1/2": (
        "solve",
        _edited(("agents", 1, "weight"), [3, 2], _edited(("agents", 0, "weight"), [-1, 2])),
        "weight of agent 'a0' must be positive",
    ),
    "allocation format_version 2": ("efx", {"format_version": 2, "bundles": {}}, "unsupported format_version 2"),
    "value NaN": ("solve", _edited(("valuations", 0, "params", "values", "g0"), _NAN), "finite nonnegative"),
    "value Infinity": ("solve", _edited(("valuations", 0, "params", "values", "g0"), _INF), "finite nonnegative"),
    "value -1": ("solve", _edited(("valuations", 0, "params", "values", "g0"), -1), "finite nonnegative"),
    "cap NaN": ("solve", _edited(("valuations", 0, "params", "cap"), _NAN, _BUDGET), "finite nonnegative"),
    "scale -1": ("solve", _edited(("valuations", 0, "params", "scale"), -1, _RANK), "finite nonnegative"),
    "item covers an unweighted element": (
        "solve",
        _edited(("valuations", 0, "params", "covers", "g0"), ["zz"], _COVER),
        "covers unweighted elements ['zz']",
    ),
    "class with no capacity": (
        "solve",
        _edited(("valuations", 0, "params", "classes", "g0"), "c9", _RANK),
        "classes ['c9'] have no capacity",
    ),
    "table order g0 twice": (
        "solve",
        _edited(("valuations", 0, "params", "order"), ["g0", "g0"], _TABLE),
        "duplicate item ids in table order",
    ),
    "table of 21 items": (
        "solve",
        _edited(("valuations", 0, "params", "order"), [f"g{i}" for i in range(21)], _TABLE),
        "at most 20 items, got 21",
    ),
    "table entry NaN": ("solve", _edited(("valuations", 0, "params", "values", 1), _NAN, _TABLE), "finite"),
    "table entry Infinity": ("solve", _edited(("valuations", 0, "params", "values", 1), _INF, _TABLE), "finite"),
    "kind 'mystery'": ("solve", _edited(("valuations", 0, "kind"), "mystery"), "unknown valuation kind 'mystery'"),
    "config weight_mode 'uniform'": ("experiment", {"weight_mode": "uniform"}, "weight_mode must be one of"),
    # Integers beyond float range, and infinite or NaN capacities: one number rule reads them all.
    "value 10^400": (
        "solve",
        _edited(("valuations", 0, "params", "values", "g0"), _HUGE),
        "value of 'g0' must be a finite nonnegative number",
    ),
    "cap 10^400": (
        "solve",
        _edited(("valuations", 0, "params", "cap"), _HUGE, _BUDGET),
        "cap must be a finite nonnegative number",
    ),
    "element weight 10^400": (
        "solve",
        _edited(("valuations", 0, "params", "element_weights", "u0"), _HUGE, _COVER),
        "weight of element 'u0' must be a finite nonnegative number",
    ),
    "scale 10^400": (
        "solve",
        _edited(("valuations", 0, "params", "scale"), _HUGE, _RANK),
        "scale must be a finite nonnegative number",
    ),
    **{
        f"capacity {x}": (
            "solve",
            _edited(("valuations", 0, "params", "capacities", "c0"), x, _RANK),
            "capacity of class 'c0' must be a finite nonnegative integer",
        )
        for x in (_INF, -_INF, _NAN)
    },
    "table entry 10^400": (
        "solve",
        _edited(("valuations", 0, "params", "values", 1), _HUGE, _TABLE),
        "table entry 1 must be a finite nonnegative number",
    ),
    "config eps 10^400": ("experiment", {"eps": _HUGE}, "eps must be a finite nonnegative number"),
    # Refused when the config is read, even with no trial to solve.
    "config eps -1": ("experiment", {"eps": -1, "trials": 0}, "eps must be a finite nonnegative number"),
    "config trials 10^400": ("experiment", {"trials": _HUGE}, "trials must be a finite nonnegative integer"),
    # Refused before any list of agents or items is built.
    "config n 10^12": ("experiment", {"n": [10**12]}, "exceed the generator's limit"),
    "config m 10^12": ("experiment", {"m": [10**12]}, "exceed the generator's limit"),
    **{
        f"{command} nested 5,000 deep": (command, _DEEP, "input.json: document is nested too deeply")
        for command in ("solve", "efx", "experiment")
    },
}


@pytest.mark.parametrize("command,doc,fragment", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_each_input_check_exits_1_naming_its_problem(tmp_path, capsys, command, doc, fragment):
    assert _main_on_file(tmp_path, command, doc) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err.splitlines()[0] and "Traceback" not in err


@pytest.mark.parametrize("n, m", [(10**12, 1), (1, 10**12)])
def test_gen_beyond_the_size_limit_exits_1(capsys, n, m):
    assert main(["gen", "coverage", str(n), str(m)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceed the generator's limit" in err and "Traceback" not in err


def test_an_agent_with_no_positive_single_leftover_takes_no_part(tmp_path, capsys):
    # A values a and b together at 1e-10 and each alone at 0: submodular within the
    # table's 1e-9 slack, v_A({a, b}) > 0 with no positive single item. A gets x and
    # B gets c in phase 1; the leftovers a and b go to no one in the search.
    items = ("x", "a", "b", "c")
    masks = [{items[i] for i in range(4) if mask >> i & 1} for mask in range(16)]
    a = ExplicitTable(items, [("x" in s) + 1e-10 * ({"a", "b"} <= s) for s in masks])
    b = Additive({"x": 0, "a": 0, "b": 0, "c": 5})
    path = tmp_path / "instance.json"
    path.write_text(canonical_json(instance_to_json(Instance(("A", "B"), (Fraction(1, 2),) * 2, items, (a, b)))))
    assert main(["verify", str(path), "--exact", "--efx"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 and all(line.startswith("PASS  ") for line in lines)


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    weight_mode=st.sampled_from(WEIGHT_MODES),
    n=st.integers(1, 4),
    m=st.integers(1, 9),
    seed=st.integers(0, 50),
    eps=st.sampled_from(["1e-12", "0.01", "0.1", "1"]),
)
def test_verify_exits_0_on_every_family(tmp_path_factory, family, weight_mode, n, m, seed, eps):
    inst = random_instance(family, n, m, seed, weight_mode)
    path = tmp_path_factory.mktemp("verify") / "instance.json"
    path.write_text(canonical_json(instance_to_json(inst)))
    argv = ["verify", str(path), "--eps", eps]
    argv += ["--exact"] * (n**m <= 10**4) + ["--efx"] * inst.is_symmetric()
    assert main(argv) == 0


def test_integer_agent_ids_load_as_strings(tmp_path, capsys):
    doc = copy.deepcopy(_BASE)
    for t, (agent, valuation) in enumerate(zip(doc["agents"], doc["valuations"])):
        agent["id"] = valuation["agent"] = t + 1
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["solve", str(path), "--out", str(out)]) == 0
    assert sorted(json.loads(out.read_text())["allocation"]) == ["1", "2"]


@pytest.mark.parametrize("command", ["solve --out", "solve --trace", "gen --out", "experiment --out", "efx --out", "exact --out"])
def test_an_unwritable_output_path_is_an_input_error(inst_file, tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"families": ["additive"], "n": [2], "m": [3], "trials": 1}))
    name, flag = command.split()
    target = str(tmp_path / "missing" / "out")
    first = {"gen": ["additive", "2", "3"], "experiment": [str(config)]}.get(name, [inst_file])
    assert main([name, *first, flag, target]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and target in err.splitlines()[0] and "Traceback" not in err


def test_outputs_are_all_or_nothing(tmp_path, capsys):
    inst = str(tmp_path / "i.json")
    assert main(["gen", "additive", "2", "5", "--out", inst]) == 0
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    before = sorted(os.listdir(tmp_path))
    for out in (tmp_path / "missing" / "o.json", tmp_path):  # a path under a missing directory, a directory
        for trace in (tmp_path / "t.csv", kept):
            assert main(["solve", inst, "--trace", str(trace), "--out", str(out)]) == 1
            assert str(out) in capsys.readouterr().err.splitlines()[0]
    assert sorted(os.listdir(tmp_path)) == before
    assert kept.read_text() == "old\n"
    assert main(["solve", inst, "--trace", str(kept), "--out", str(tmp_path / "o.json")]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(before + ["o.json"])
    assert kept.read_bytes().startswith(b"iteration,giver,item,taker,log_gain\r\n")


def test_experiment_runs_the_fairness_stage_only_on_equal_weights(tmp_path):
    config, out = tmp_path / "config.json", tmp_path / "results.csv"
    config.write_text(json.dumps({"weight_mode": "random_rational", "n": [1, 3], "m": [4], "trials": 1, "seed": 1}))
    assert main(["experiment", str(config), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        body = [row for row in list(csv.reader(fh))[1:] if not row[0].startswith("max_ratio")]
    assert len(body) == 2 * len(FAMILIES)
    equal = [random_instance(f, int(n), 4, 1, "random_rational").is_symmetric() for _, n, _, f, *_ in body]
    assert equal.count(False) >= len(FAMILIES)  # every 3-agent instance here has unequal weights
    assert [row[10] for row in body] == ["yes" if e else "" for e in equal]


_AWKWARD = [_HUGE, -_HUGE, _NAN, _INF, -_INF, True, "2", None, [], {}, [[1]], [[[]], 2]]
_TABLE_2 = instance_to_json(
    Instance(("a0", "a1"), (Fraction(1, 2),) * 2, ("g0", "g1"), (ExplicitTable(["g0", "g1"], [0, 1, 2, 3]),) * 2)
)
# Valid documents, each with the commands that read it; the allocation is a start for the 2x4 instance.
_VALID = [
    *((doc, ("solve", "exact", "efx solve", "verify")) for doc in (_BASE, _BUDGET, _COVER, _RANK, _TABLE_2)),
    ({"format_version": 1, "bundles": {"a0": ["g0", "g3"], "a1": ["g1", "g2"]}}, ("efx",)),
    ({"families": ["additive"], "n": [2], "m": [3], "trials": 1, "seed": 4, "eps": 0.5, "verify": True}, ("experiment",)),
]


def _leaves(doc, path=()):
    """The path to each value in ``doc`` that is not a nonempty list or object."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    paths = [leaf for key, child in children for leaf in _leaves(child, path + (key,))]
    return paths or [path]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_input_files_exit_0_or_1_and_never_raise(tmp_path_factory, data):
    doc, commands = data.draw(st.sampled_from(_VALID), label="document")
    paths = _leaves(doc)
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True), label="leaves"):
        doc = _edited(path, data.draw(st.sampled_from(_AWKWARD), label=str(path)), doc)
    command = data.draw(st.sampled_from(commands), label="command")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = _main_on_file(tmp_path_factory.mktemp("mutated"), command, doc)
    assert code in (0, 1), err.getvalue()
    assert code == 0 or err.getvalue().startswith("error: ")
