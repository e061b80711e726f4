"""Command-line interface: exit codes, records, files, determinism."""

import dataclasses
import json
import os

import numpy as np
import pytest

import sagt
from sagt import cli, model

LINEAR = sagt.builtin_schedule("linear")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_unitary(path, mat):
    lines = []
    for row in np.asarray(mat, dtype=complex):
        lines.append(",".join(f"{float(c.real)!r} {float(c.imag)!r}" for c in row))
    path.write_text("# little header\n" + "\n".join(lines) + "\n")


def test_version_and_help_exit_zero(capsys):
    assert cli.main(["--version"]) == 0
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "state-teleport" in out


def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert cli.main(["bogus-command"]) == 1
    assert cli.main(["state-teleport"]) == 1  # --tau is required
    code, _, err = run_cli(
        capsys, "state-teleport", "--tau", "1", "--schedule", "quartic"
    )
    assert code == 1
    assert "unknown schedule" in err
    # argparse's own reason reaches stderr, under its usage line
    code, out, err = run_cli(capsys, "state-teleport", "--tau", "1", "--mode", "bogus")
    assert (code, out) == (1, "")
    assert "argument --mode: invalid choice: 'bogus'" in err


def test_state_teleport_stdout_record(capsys):
    code, out, err = run_cli(
        capsys,
        "state-teleport",
        "--n", "1",
        "--schedule", "trig",
        "--tau", "1.0",
        "--amp", "0.6:0,0:0.8",
    )
    assert code == 0
    record = json.loads(out)
    assert record["version"] == sagt.__version__
    assert record["config"]["schedule"] == "trigonometric"
    assert record["config"]["mode"] == "superadiabatic"
    assert record["fidelity"] >= 1.0 - 1e-6
    assert record["accepted"] is True
    assert record["convergence_defect"] <= 1e-8
    assert record["parity_drift"] <= 1e-8
    trace = record["ground_overlap_trace"]
    assert trace[0][0] == 0.0 and trace[-1][0] == 1.0
    assert "state-teleport: fidelity=" in err


@pytest.mark.parametrize(
    "argv, sectors, gate",
    [
        (("state-teleport", "--n", "1", "--schedule", "trig"), 1, None),
        # the CLI hands the library a matrix, which it records as "custom"
        (("gate-teleport", "--gate", "cnot", "--schedule", "trig"), 2, "custom"),
    ],
    ids=["state", "cnot"],
)
def test_the_record_is_the_run_record(capsys, argv, sectors, gate):
    # every RunRecord field sits at the top level, beside version and config
    code, out, _ = run_cli(capsys, *argv, "--tau", "0.5", "--omega", "2")
    assert code == 0
    record = json.loads(out)
    fields = [f.name for f in dataclasses.fields(sagt.RunRecord)]
    assert sorted(record) == sorted(["version", "config", *fields])
    assert record["sectors"] == record["config"]["n"] == sectors
    assert record["schedule"] == "trigonometric"
    assert (record["tau_omega"], record["omega"]) == (0.5, 2.0)
    assert record["mode"] == "superadiabatic"
    assert record["gate"] == gate


def test_state_teleport_is_deterministic(capsys):
    argv = ["state-teleport", "--tau", "0.5", "--schedule", "linear"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_random_input_is_seeded(capsys):
    argv = ["state-teleport", "--tau", "0.5", "--random", "--seed", "7"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "state-teleport", "--tau", "0.5",
                         "--random", "--seed", "8")
    assert out1 != out3


def test_amp_renormalization_warns(capsys):
    code, out, err = run_cli(
        capsys, "state-teleport", "--tau", "0.5", "--amp", "3:0,4:0"
    )
    assert code == 0
    assert "renormalizing" in err
    assert json.loads(out)["fidelity"] >= 1.0 - 1e-6


def test_record_file_output_is_atomic(tmp_path, capsys):
    out_file = tmp_path / "run.json"
    code, out, err = run_cli(
        capsys,
        "state-teleport", "--tau", "1.0", "--out", str(out_file),
    )
    assert code == 0
    assert out == ""  # record went to the file, not stdout
    record = json.loads(out_file.read_text())
    assert record["fidelity"] >= 1.0 - 1e-6
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []
    assert str(out_file) in err


def test_gate_teleport_named(capsys):
    code, out, _ = run_cli(
        capsys,
        "gate-teleport", "--gate", "hadamard", "--tau", "1.0",
        "--schedule", "trig",
    )
    assert code == 0
    record = json.loads(out)
    assert record["config"]["gate"] == "hadamard"
    assert record["config"]["n"] == 1
    assert record["fidelity"] >= 1.0 - 1e-6


def test_gate_teleport_rejects_width_mismatch(capsys):
    code, _, err = run_cli(
        capsys,
        "gate-teleport", "--gate", "cnot", "--n", "1", "--tau", "1.0",
    )
    assert code == 1
    assert "acts on 2 qubits" in err


def test_gate_teleport_random_su_needs_n(capsys):
    code, _, err = run_cli(
        capsys, "gate-teleport", "--gate", "random-su", "--tau", "1.0"
    )
    assert code == 1
    assert "--n" in err
    code, out, _ = run_cli(
        capsys,
        "gate-teleport", "--gate", "random-su", "--n", "1",
        "--tau", "1.0", "--seed", "5",
    )
    assert code == 0
    assert json.loads(out)["fidelity"] >= 1.0 - 1e-6


@pytest.mark.parametrize(
    "argv, seed",
    [
        (("gate-teleport", "--gate", "cnot", "--amp", "1,0,0,0"), None),
        (("gate-teleport", "--gate", "random-su", "--n", "1", "--seed", "5"), 5),
        (("gate-teleport", "--gate", "x", "--random", "--seed", "5"), 5),
        (("state-teleport", "--amp", "1,0", "--seed", "5"), None),
    ],
)
def test_seed_is_recorded_only_when_something_was_drawn(capsys, argv, seed):
    code, out, _ = run_cli(capsys, *argv, "--tau", "1")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == seed


def test_gate_teleport_from_file(tmp_path, capsys):
    gate_path = tmp_path / "hadamard.csv"
    write_unitary(gate_path, sagt.named_gate("hadamard"))
    code, out, _ = run_cli(
        capsys,
        "gate-teleport", "--gate-file", str(gate_path), "--tau", "1.0",
    )
    assert code == 0
    record = json.loads(out)
    assert record["config"]["gate"] == "hadamard.csv"
    assert record["gate"] == "custom"  # the library's name for a matrix
    assert record["fidelity"] >= 1.0 - 1e-6


def test_gate_and_gate_file_together_exit_one(tmp_path, capsys):
    # the record could not say which gate ran: the two options exclude each other
    gate_path = tmp_path / "hadamard.csv"
    write_unitary(gate_path, sagt.named_gate("hadamard"))
    argv = ("gate-teleport", "--gate", "cnot", "--gate-file", str(gate_path), "--tau", "1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "not allowed with argument --gate" in err


def test_gate_teleport_without_a_gate_exits_one(capsys):
    code, out, err = run_cli(capsys, "gate-teleport", "--tau", "1")
    assert code == 1
    assert out == ""
    assert "one of the arguments --gate --gate-file is required" in err


BAD_GATES = {
    "non-square": np.eye(2, 4),
    "3x3": np.eye(3),
    "1x1": np.eye(1),
    "non-unitary-2x2": np.diag([1.0, 2.0]),
}


def test_load_unitary_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(2)
    u = sagt.random_unitary(4, rng)
    path = tmp_path / "u.csv"
    write_unitary(path, u)
    np.testing.assert_allclose(cli.load_unitary(str(path)), u, atol=1e-15)
    # a good 4x4 passes the rule that rejects every gate of BAD_GATES
    assert model.gate_width(u) == 2
    rec = sagt.run_gate_teleport(u, LINEAR, 1.0, "superadiabatic", np.eye(4)[1])
    assert rec.fidelity >= 1.0 - 1e-6
    argv = ("gate-teleport", "--gate-file", str(path), "--tau", "1.0")
    assert run_cli(capsys, *argv)[0] == 0


def test_load_unitary_rejects_bad_input(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    for gate in BAD_GATES.values():
        write_unitary(path, gate)
        with pytest.raises(ValueError, match="bad.csv"):
            cli.load_unitary(str(path))
    path.write_text("1,0\n0,1\n")  # cells missing the imaginary part
    with pytest.raises(ValueError):
        cli.load_unitary(str(path))
    # a cell that is two tokens but not two floats names the file and the cell
    path.write_text("np.float64(0.7071067811865475) 0.0,0 0\n0 0,1 0\n")
    with pytest.raises(ValueError, match="bad.csv"):
        cli.load_unitary(str(path))
    code, out, err = run_cli(capsys, "gate-teleport", "--gate-file", str(path), "--tau", "1")
    assert (code, out) == (1, "")
    assert err.startswith("sagt: error: bad cell 'np.float64(0.7071067811865475) 0.0'")
    path.write_text("# only comments\n")
    with pytest.raises(ValueError):
        cli.load_unitary(str(path))


@pytest.mark.parametrize("name", sorted(BAD_GATES))
def test_bad_gates_are_rejected_by_one_rule(tmp_path, capsys, name):
    # gate_width, the library runner and the --gate-file CLI path agree
    gate = BAD_GATES[name]
    path = tmp_path / "gate.csv"
    write_unitary(path, gate)
    argv = ("gate-teleport", "--gate-file", str(path), "--tau", "1.0")
    with pytest.raises(ValueError):
        model.gate_width(gate)
    with pytest.raises(ValueError, match="gate"):
        sagt.run_gate_teleport(gate, LINEAR, 1.0, "superadiabatic", np.eye(2)[0])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("sagt: error: matrix in ")


def test_random_su_checks_the_sector_count_before_drawing(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a gate was drawn")

    monkeypatch.setattr(cli, "random_unitary", never)
    code, out, err = run_cli(
        capsys, "gate-teleport", "--gate", "random-su", "--n", "4", "--tau", "1.0"
    )
    assert (code, out) == (1, "")
    assert "sector count n=4 outside 1..3" in err


def test_cost_sweep_csv(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, err = run_cli(
        capsys,
        "cost-sweep",
        "--schedules", "linear,trig,exp",
        "--points", "4", "--log",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1].startswith("# config=")
    assert lines[2] == "schedule,mode,tau_omega,cost_over_homega"
    rows = lines[3:]
    assert len(rows) == 3 * 2 * 4
    # repr round-trip: the CSV preserves every bit of the computed values
    sch = sagt.builtin_schedule("linear")
    grid = np.geomspace(0.1, 1000.0, 4)
    expected = sagt.cost_sweep([sch], grid, modes=("adiabatic",))[0]
    for row, (tau_omega, value) in zip(rows, expected.grid):
        name, mode, tw, cost_val = row.split(",")
        assert (name, mode) == ("linear", "adiabatic")
        assert float(tw) == tau_omega
        assert float(cost_val) == value
    assert "4 points" in err


def test_cost_sweep_stdout_and_determinism(capsys):
    argv = ["cost-sweep", "--schedules", "exp", "--points", "3"]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_cost_sweep_rejects_bad_mode(capsys):
    code, _, err = run_cli(
        capsys, "cost-sweep", "--modes", "adiabatic,thermal", "--points", "2"
    )
    assert code == 1
    assert "unknown mode" in err


def test_cost_sweep_rejects_an_empty_grid(capsys):
    code, out, err = run_cli(capsys, "cost-sweep", "--points", "0")
    assert code == 1
    assert out == ""
    assert "empty" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", ["--tau", "--omega"])
def test_non_finite_run_inputs_exit_one(capsys, option, value):
    argv = ["state-teleport", "--tau", "1.0", "--steps", "4", f"{option}={value}"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("amp", ["1,0,0", "0,0"])
@pytest.mark.parametrize(
    "command", [["state-teleport"], ["gate-teleport", "--gate", "x"]], ids=["state", "gate"]
)
def test_bad_amp_inputs_exit_one(capsys, command, amp):
    # a wrong amplitude count and a zero-norm state are refused by the run
    code, out, err = run_cli(capsys, *command, "--tau", "1.0", "--steps", "4", "--amp", amp)
    assert code == 1
    assert out == ""
    assert "sagt: error:" in err


@pytest.mark.parametrize(
    "command", [["state-teleport"], ["gate-teleport", "--gate", "x"]], ids=["state", "gate"]
)
def test_amp_and_random_together_exit_one(capsys, command):
    # the record could not say which input ran: the two options exclude each other
    argv = [*command, "--tau", "1.0", "--steps", "4", "--amp", "1,0", "--random"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "[--amp AMP | --random]" in err
    assert "not allowed with argument --amp" in err


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_verify_rejects_an_empty_grid(capsys, grid):
    code, out, err = run_cli(capsys, "verify", "--grid", grid)
    assert code == 1
    assert out == ""
    assert err == f"sagt: error: --grid must be at least 1, got {grid}\n"


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "11")
    assert code == 0
    assert "all checks passed" in out
    assert out.count("PASS") >= 5


@pytest.mark.parametrize(
    "argv",
    [
        ("state-teleport", "--tau", "1.0"),
        ("gate-teleport", "--gate", "hadamard", "--tau", "1.0"),
    ],
)
def test_unaccepted_run_warns_and_exits_two(monkeypatch, capsys, argv):
    def unaccepted(*args, **kwargs):
        return sagt.RunRecord(
            sectors=1, schedule="linear", tau_omega=1.0, omega=1.0,
            mode="superadiabatic", gate=None, fidelity=0.9, step_count=1024,
            convergence_defect=3e-5, accepted=False, parity_drift=0.0,
            ground_overlap_trace=[],
        )

    monkeypatch.setattr(cli, "run_state_teleport", unaccepted)
    monkeypatch.setattr(cli, "run_gate_teleport", unaccepted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["accepted"] is False
    assert "sagt: warning: run not accepted (defect 3.00e-05, steps 1024)\n" in err


def test_step_budget_overrun_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "state-teleport", "--tau", "1.0", "--steps", str(2**20)
    )
    assert code == 1
    assert "max_steps" in err
