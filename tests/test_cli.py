import json
import warnings

import numpy as np
import pytest

from gaborflow.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_positive(capsys):
    code, out, _ = run_cli(capsys, "criterion", "--alpha", "0.9", "--beta", "0.9",
                           "--hbar", "0.159155")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["per_axis"] == [True]
    assert doc["meta"]["seed"] == 0
    assert "config_hash" in doc["meta"]


def test_criterion_negative_exit_code(capsys):
    code, out, _ = run_cli(capsys, "criterion", "--alpha", "1.2", "--beta", "1.2")
    assert code == 3
    assert json.loads(out)["result"]["all_axes"] is False


def test_criterion_csv(capsys):
    code, out, _ = run_cli(capsys, "criterion", "--alpha", "0.5,1.5", "--beta", "1,1",
                           "--dimension", "2", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "axis,alpha,beta,is_frame"
    assert lines[1].endswith("True")
    assert lines[2].endswith("False")
    assert code == 3


def test_frame_check_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "frame-check", "--alpha", "0.9", "--beta", "0.9")
    assert code == 0
    assert json.loads(out)["result"]["is_frame"] is True
    code, out, _ = run_cli(capsys, "frame-check", "--alpha", "1.1", "--beta", "1.1")
    assert code == 3


def test_invariance_command(capsys):
    code, out, _ = run_cli(capsys, "invariance", "--hamiltonian", "p1^2/2 + x1^4/4",
                           "--t", "0.5", "--alpha", "0.9", "--beta", "0.9",
                           "--trials", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["max_deviation"] < 1e-8


def test_integrate_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--hamiltonian", "harmonic",
                           "--z0", "1,0", "--t", "1.0", "--steps", "100",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time,z0,z1,action"
    final = [float(v) for v in lines[-1].split(",")]
    assert final[0] == pytest.approx(1.0)
    assert final[1] == pytest.approx(np.cos(1.0), abs=1e-10)
    assert final[2] == pytest.approx(-np.sin(1.0), abs=1e-10)


def test_integrate_auto_picks_verlet_for_separable(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--hamiltonian", "anharmonic",
                           "--z0", "1,0", "--t", "0.1", "--steps", "4")
    assert code == 0
    assert json.loads(out)["result"]["method"] == "verlet"


def test_deform_summary(capsys):
    code, out, _ = run_cli(capsys, "deform", "--hamiltonian", "free",
                           "--window-center", "0,1", "--t", "0.5",
                           "--alpha", "0.9", "--beta", "0.9")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["trajectory_end"] == pytest.approx([0.5, 1.0], abs=1e-12)
    assert doc["result"]["lattice_size"] > 0


def test_sweep_ab_grid_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--ab-grid", "0.64,1.44", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha_beta,a_est,b_est,ratio,is_frame"
    assert lines[1].endswith("True")
    assert lines[2].endswith("False")


def test_sweep_t_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--t-grid", "0:1:3",
                           "--hamiltonian", "harmonic", "--alpha", "0.9",
                           "--beta", "0.9")
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert len(rows) == 3
    assert all(row["is_frame"] for row in rows)


@pytest.mark.parametrize("argv", [
    ("sweep",),
    ("sweep", "--ab-grid", "0.5", "--t-grid", "0:1:2"),
    ("sweep", "--ab-grid", "0.5:1:0"),
    ("sweep", "--t-grid", "0:1:0"),
    ("sweep", "--t-grid", "1:0:3", "--radius", "4"),
    ("sweep", "--ab-grid=-1"),
    ("sweep", "--ab-grid", "nan"),
    ("frame-check", "--alpha", "nan"),
    ("frame-check", "--radius", "nan"),
    ("frame-check", "--radius", "inf"),
    ("frame-check", "--window-m", "nan+1j"),
    ("criterion", "--alpha", "nan"),
])
def test_rejected_input_exits_1_with_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_diverging_initial_point_prints_only_the_error_line(capsys):
    # a numpy overflow warning would be raised here instead of reaching stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "integrate", "--hamiltonian", "anharmonic",
                                 "--z0", "1e120,0", "--t", "10", "--steps", "10",
                                 "--method", "verlet")
    assert code == 1
    assert out == ""
    assert err == "error: trajectory exceeded the overflow guard\n"


def test_expression_overflow_prints_one_error_line_with_span(capsys):
    code, out, err = run_cli(capsys, "integrate", "--hamiltonian", "p1^2/2 + x1^40",
                             "--z0", "9e7,0", "--t", "1", "--steps", "2", "--method", "rk4")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: overflow") and err.endswith("in expression span 9..14\n")


def test_integrate_carries_the_linear_flow_only_for_dump_matrices(capsys, monkeypatch):
    import gaborflow.dynamics as dynamics

    calls = []
    step = dynamics._variational_rk4_step

    def counting(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(dynamics, "_variational_rk4_step", counting)
    argv = ("integrate", "--hamiltonian", "anharmonic", "--z0", "1,0", "--t", "1",
            "--steps", "6", "--method", "verlet")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == []
    code, dumped, _ = run_cli(capsys, *argv, "--dump-matrices")
    assert code == 0
    assert len(calls) == 6
    plain, full = json.loads(out)["result"], json.loads(dumped)["result"]
    assert "linear_flow" not in plain
    assert full["points"] == plain["points"] and full["action"] == plain["action"]


def test_path_hamiltonian_rotation(capsys):
    code, out, _ = run_cli(capsys, "path-hamiltonian", "--path-name", "rotation",
                           "--t", "0.5")
    assert code == 0
    doc = json.loads(out)
    Q = np.array(doc["result"]["quadratic_form"])
    assert np.allclose(Q, np.eye(2), atol=1e-6)
    for entry in doc["result"]["isotopy_values"]:
        z = np.array(entry["z"])
        assert entry["value"] == pytest.approx(0.5 * float(z @ z), abs=1e-6)


def test_reproducible_output(tmp_path, capsys):
    args = ["frame-check", "--alpha", "0.9", "--beta", "0.9", "--seed", "5"]
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a_path)]) == 0
    assert main(args + ["--out", str(b_path)]) == 0
    assert a_path.read_bytes() == b_path.read_bytes()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[lattice]\nalpha = 1.2\nbeta = 1.2\n\n[system]\nseed = 9\n"
    )
    # config file alone: not a frame
    code, out, _ = run_cli(capsys, "frame-check", "--config", str(cfg))
    assert code == 3
    assert json.loads(out)["meta"]["seed"] == 9
    # flags override the file
    code, out, _ = run_cli(capsys, "frame-check", "--config", str(cfg),
                           "--alpha", "0.9", "--beta", "0.9")
    assert code == 0


def test_config_validation_error_names_field(capsys):
    code, _, err = run_cli(capsys, "frame-check", "--hbar", "-1.0")
    assert code == 1
    assert "hbar" in err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[lattice]\nwavelength = 3\n")
    code, _, err = run_cli(capsys, "frame-check", "--config", str(cfg))
    assert code == 1
    assert "wavelength" in err


def test_expression_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "invariance", "--hamiltonian", "x1 +", "--t", "0.1")
    assert code == 1
    assert "offset" in err
