import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from gaborflow import errors
from gaborflow.cli import (OUTPUT_BLOCK, _config_from_args, _json_parts, _write_output,
                           build_arg_parser, main)
from gaborflow.config import (
    PARAMETERS,
    RunConfig,
    config_hash,
    parse_complex_list,
    parse_float_list,
)
from gaborflow.errors import ResourceLimit
from gaborflow.symplectic import rotation


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def loads(text):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_refuse)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_positive(capsys):
    code, out, _ = run_cli(capsys, "criterion", "--alpha", "0.9", "--beta", "0.9",
                           "--hbar", "0.159155")
    assert code == 0
    doc = loads(out)
    assert doc["result"]["per_axis"] == [True]
    assert doc["meta"]["seed"] == 0
    assert "config_hash" in doc["meta"]


def test_criterion_negative_exit_code(capsys):
    code, out, _ = run_cli(capsys, "criterion", "--alpha", "1.2", "--beta", "1.2")
    assert code == 3
    assert loads(out)["result"]["all_axes"] is False


def test_criterion_csv(capsys):
    code, out, _ = run_cli(capsys, "criterion", "--alpha", "0.5,1.5", "--beta", "1,1",
                           "--dimension", "2", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "axis,alpha,beta,is_frame"
    assert lines[1].endswith("True")
    assert lines[2].endswith("False")
    assert code == 3


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_criterion_broadcasts_a_single_spacing_to_every_axis(capsys, fmt):
    # as frame-check does; the JSON meta hashes the flags as given, so it
    # compares the result section
    def run(alpha):
        code, out, err = run_cli(capsys, "criterion", "--dimension", "3", "--alpha", alpha,
                                 "--format", fmt)
        return code, loads(out)["result"] if fmt == "json" else out, err

    one = run("0.9")
    assert one == run("0.9,0.9,0.9")
    assert one[0] == 0 and one[2] == ""


def test_frame_check_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "frame-check", "--alpha", "0.9", "--beta", "0.9")
    assert code == 0
    assert loads(out)["result"]["is_frame"] is True
    code, out, _ = run_cli(capsys, "frame-check", "--alpha", "1.1", "--beta", "1.1")
    assert code == 3


def test_frame_check_over_the_byte_budget_exits_1(capsys, monkeypatch):
    # the 161 adjoint-lattice points of 241 lattice points at the default
    # radius need 952,560 bytes
    monkeypatch.setattr(errors, "BYTE_BUDGET", 950_000)
    code, out, err = run_cli(capsys, "frame-check", "--alpha", "0.9", "--beta", "0.9")
    assert code == 1
    assert out == ""
    assert err == ("error: frame bounds of 161 points need 952560 bytes "
                   "(budget 950000); reduce radius\n")


@pytest.mark.parametrize("argv, bound", [
    (("--hbar", "100", "--alpha", "0.5", "--beta", "0.5"), 2513.2741228718346),
    (("--alpha", "0.01", "--beta", "0.01", "--radius", "8"), 9999.99999999999),
], ids=["hbar-100", "dense-spacing"])
def test_frame_check_past_the_point_cap_of_the_lattice(capsys, argv, bound):
    # Lambda has 505,321 and 2,010,573 points, over symplectic.POINT_CAP; the
    # report solves the one-point Gram of Lambda^o and never enumerates Lambda
    code, out, err = run_cli(capsys, "frame-check", *argv)
    assert (code, err) == (0, "")
    result = loads(out)["result"]
    assert (result["a_est"], result["b_est"], result["is_frame"]) == (bound, bound, True)


def test_frame_check_at_the_critical_density_is_not_a_frame(capsys):
    # alpha*beta = 2 pi hbar: the criterion's strict inequality fails, and
    # the density theorem gives a_est = 0 without a solve
    for argv in (("criterion",), ("frame-check",)):
        code, out, _ = run_cli(capsys, *argv, "--alpha", "1", "--beta", "1")
        assert code == 3
    result = loads(out)["result"]
    assert (result["a_est"], result["ratio"], result["is_frame"]) == (0.0, None, False)
    code, out, _ = run_cli(capsys, "frame-check", "--alpha", "1", "--beta", "1",
                           "--format", "csv")
    assert code == 3
    assert out.splitlines()[1].startswith("0,") and out.splitlines()[1].endswith(",inf,False")


def test_invariance_command(capsys):
    code, out, _ = run_cli(capsys, "invariance", "--hamiltonian", "p1^2/2 + x1^4/4",
                           "--t", "0.5", "--alpha", "0.9", "--beta", "0.9",
                           "--trials", "4")
    assert code == 0
    doc = loads(out)
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
    assert loads(out)["result"]["method"] == "verlet"


def test_deform_summary(capsys):
    code, out, _ = run_cli(capsys, "deform", "--hamiltonian", "free",
                           "--window-center", "0,1", "--t", "0.5",
                           "--alpha", "0.9", "--beta", "0.9")
    assert code == 0
    doc = loads(out)
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
    rows = loads(out)["result"]["rows"]
    assert len(rows) == 3
    assert all(row["is_frame"] for row in rows)


def test_sweep_t_grid_rows_are_the_frame_check_of_the_source(capsys):
    # every affine image is unitarily equivalent to the source system
    system = ("--alpha", "0.8", "--beta", "0.95", "--window-center=0.5,-0.3")
    code, out, _ = run_cli(capsys, "sweep", "--t-grid", "0:1:3", "--hamiltonian", "anharmonic",
                           *system)
    assert code == 0
    rows = loads(out)["result"]["rows"]
    code, out, _ = run_cli(capsys, "frame-check", *system)
    assert code == 0
    source = loads(out)["result"]
    assert source["method"] == "dual" and "grid_extent" not in source["truncation"]
    assert [row.pop("t") for row in rows] == [0.0, 0.5, 1.0]
    assert rows == [source] * 3


def test_sweep_t_grid_still_fails_where_the_weak_deformation_does(capsys):
    # the rows are the source's bounds, but each t still deforms the window,
    # and RK4's coarse S_t fails its Siegel check at t = 1
    code, out, err = run_cli(capsys, "sweep", "--t-grid", "1", "--hamiltonian", "anharmonic",
                             "--steps", "64", "--window-center=1.0,0.5")
    assert (code, out) == (1, "")
    assert err == "error: matrix is not symplectic within tolerance\n"


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
    # counts whose arrays would not fit in memory are refused before allocating
    ("integrate", "--z0", "1,0", "--steps", "10000000000000"),
    ("deform", "--steps", "10000000000000"),
    ("invariance", "--steps", "10000000000000"),
    ("sweep", "--t-grid", "0.5", "--steps", "10000000000000"),
    ("sweep", "--ab-grid", "0.5:1:10000000000000"),
])
def test_rejected_input_exits_1_with_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, message", [
    ("--trials=0", "--trials must be at least 1"),
    ("--trials=-2", "--trials must be at least 1"),
    ("--tol=nan", "--tol must be finite and >= 0"),
    ("--tol=inf", "--tol must be finite and >= 0"),
    ("--tol=-1e-8", "--tol must be finite and >= 0"),
])
def test_invariance_rejects_meaningless_trials_and_tolerance(capsys, flag, message):
    code, out, err = run_cli(capsys, "invariance", "--hamiltonian", "anharmonic", flag)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_invariance_deforms_once_for_all_trials(capsys, monkeypatch):
    import gaborflow.deformation as deformation

    calls = []
    deform = deformation.weak_deform

    def counting(*args, **kwargs):
        calls.append(1)
        return deform(*args, **kwargs)

    monkeypatch.setattr(deformation, "weak_deform", counting)
    code, out, _ = run_cli(capsys, "invariance", "--hamiltonian", "anharmonic",
                           "--steps", "64", "--trials", "8")
    assert code == 0
    assert len(loads(out)["result"]["deviations"]) == 8
    assert len(calls) == 1


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


@pytest.mark.parametrize("argv, t", [
    (("integrate", "--hamiltonian", "shear", "--z0=1,0", "--t", "1e200", "--steps", "2",
      "--method", "exact"), "5e+199"),
    (("integrate", "--hamiltonian", "harmonic", "--z0=1,0", "--t", "1e300", "--steps", "4",
      "--method", "exact"), "2.5e+299"),
    (("invariance", "--hamiltonian", "harmonic", "--t", "1e300", "--steps", "2",
      "--trials", "1"), "5e+299"),
])
def test_exact_flow_past_the_float_range_prints_one_error_line(capsys, argv, t):
    # the flow of each step is refused before its squarings overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: exact quadratic flow at t = {t} leaves the float range\n"


def test_expression_divergence_mid_block_prints_the_guard_error(capsys):
    # the trajectory leaves the guard mid-block, and a later step of the block
    # overflows inside the expression; the guard's error is reported, and no
    # numpy warning is emitted on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "integrate", "--hamiltonian", "p1^2/2 - x1^4/4",
                                 "--z0=2,2", "--t", "10", "--steps", "1000", "--method", "rk4")
    assert caught == []
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
    jacobians = dynamics._split_jacobians

    def counting(*args):  # one tangent pass over all steps
        calls.append(1)
        return jacobians(*args)

    monkeypatch.setattr(dynamics, "_split_jacobians", counting)
    argv = ("integrate", "--hamiltonian", "anharmonic", "--z0", "1,0", "--t", "1",
            "--steps", "6", "--method", "verlet")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == []
    # CSV has no column for S_t, so it skips the tangent pass
    code, csv_out, _ = run_cli(capsys, *argv, "--dump-matrices", "--format", "csv")
    assert code == 0
    assert calls == []
    assert csv_out == run_cli(capsys, *argv, "--format", "csv")[1]
    code, dumped, _ = run_cli(capsys, *argv, "--dump-matrices")
    assert code == 0
    assert len(calls) == 1
    plain, full = loads(out)["result"], loads(dumped)["result"]
    assert "linear_flow" not in plain
    assert np.shape(full["linear_flow"]) == (7, 2, 2)
    assert full["points"] == plain["points"] and full["action"] == plain["action"]


def test_exact_harmonic_flow_is_the_rotation_at_every_node(capsys):
    z0 = np.array([1.0, 0.5])
    code, out, _ = run_cli(capsys, "integrate", "--hamiltonian", "harmonic", "--z0=1,0.5",
                           "--t", "20", "--steps", "256", "--method", "exact", "--dump-matrices")
    assert code == 0
    result = loads(out)["result"]
    exact = np.stack([rotation(t) for t in result["times"]])
    assert np.abs(np.asarray(result["linear_flow"]) - exact).max() <= 1e-13
    assert np.abs(np.asarray(result["points"]) - exact @ z0).max() <= 1e-13


def test_path_hamiltonian_rotation(capsys):
    code, out, _ = run_cli(capsys, "path-hamiltonian", "--path-name", "rotation",
                           "--t", "0.5")
    assert code == 0
    doc = loads(out)
    Q = np.array(doc["result"]["quadratic_form"])
    assert np.allclose(Q, np.eye(2), atol=1e-6)
    for entry in doc["result"]["isotopy_values"]:
        z = np.array(entry["z"])
        assert entry["value"] == pytest.approx(0.5 * float(z @ z), abs=1e-6)


@pytest.mark.parametrize("path, t, message", [
    ("rotation", "1e17", "time step 1e-05 does not resolve t = 1e+17"),
    ("shear", "1e200", "time step 1e-05 does not resolve t = 1e+200"),
    ("dilation", "800", "dilation requires finite L"),
])
def test_path_hamiltonian_out_of_range_ends_in_one_error_line(capsys, path, t, message):
    code, out, err = run_cli(capsys, "path-hamiltonian", "--path-name", path, "--t", t)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_reproducible_output(tmp_path, capsys):
    args = ["frame-check", "--alpha", "0.9", "--beta", "0.9", "--seed", "5"]
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a_path)]) == 0
    assert main(args + ["--out", str(b_path)]) == 0
    assert a_path.read_bytes() == b_path.read_bytes()


def as_lists(obj):
    """obj with every ndarray replaced by its .tolist()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [as_lists(v) for v in obj]
    return obj


EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 2.2e-308, 1e300]
float_arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                       max_side=4),
                          elements=st.floats(allow_subnormal=True) | st.sampled_from(EDGE_FLOATS))
other_arrays = hnp.arrays(st.sampled_from([np.int64, np.bool_]),
                          hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3))
keys = st.text(max_size=6) | st.sampled_from(["\u0127bar", 'a"b\\c', "tab\tnl\n", "\x00",
                                              "\U0001f600"])
leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
          | float_arrays | other_arrays)
documents = st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(keys, inner, max_size=3), max_leaves=12)


@given(documents)
@example({})
@example({"a": np.zeros(0), "b": np.zeros((2, 0)), "c": np.zeros((0, 3)), "d": np.array(1.5)})
@example({"x": np.array([np.nan, 1.0]), "y": np.array([[np.inf], [-np.inf]]),
          "z": np.array([-0.0, 5e-324, 2.2e-308])})
@example({"i": np.arange(4).reshape(2, 2), "b": np.array([True, False]), "e": np.array(7),
          "\u0127bar \u00e9": [np.ones((1, 1, 2))], 'k"\\\n': {"": np.array(-0.0)}})
# more rows than one block of output, exactly one block, and an empty leading axis
@example({"points": np.linspace(-1.0, 1.0, 2 * OUTPUT_BLOCK + 6).reshape(-1, 2) / 3,
          "times": np.arange(OUTPUT_BLOCK + 1) * 0.1})
@example([np.linspace(0.0, 1.0, OUTPUT_BLOCK).reshape(-1, 2, 2) / 7, np.ones(OUTPUT_BLOCK)])
@example({"empty": np.zeros((0, 2, 2)), "nan_rows": np.full((OUTPUT_BLOCK + 1, 1), np.nan)})
def test_json_text_is_json_dumps_with_arrays_as_lists(doc):
    text = "".join(_json_parts(doc, 0))
    assert text == json.dumps(as_lists(doc), sort_keys=True, indent=2)


def test_written_output_holds_about_one_block_in_memory(tmp_path):
    # the arrays of an `integrate --dump-matrices` payload of 10^5 nodes are
    # 6.1 MB; formatted whole, their JSON text and its intermediate lists took
    # about 14 times that
    rng = np.random.default_rng(0)
    nodes = 10**5 + 1
    payload = {"method": "verlet", "steps": nodes - 1, "times": np.linspace(0.0, 10.0, nodes),
               "points": rng.normal(size=(nodes, 2)), "action": rng.normal(size=nodes),
               "linear_flow": rng.normal(size=(nodes, 2, 2))}
    path = tmp_path / "out.json"
    args = build_arg_parser().parse_args(["integrate", "--z0=1,0", "--out", str(path)])
    cfg = _config_from_args(args)
    tracemalloc.start()
    try:
        _write_output(payload, (), (), args, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert loads(path.read_text())["result"] == as_lists(payload)


def assert_canonical_json(text: str):
    assert text == json.dumps(loads(text), sort_keys=True, indent=2) + "\n"


def test_json_output_is_json_dumps_sort_keys_indent_2(capsys):
    from test_golden_cli import CASES, GOLDEN, STATUS

    status = loads(STATUS.read_text())
    json_cases = [name for name, argv in CASES.items()
                  if "csv" not in argv and status[name]["code"] != 1]
    assert len(json_cases) == 14
    for name in json_cases:
        assert_canonical_json((GOLDEN / f"{name}.out").read_text())
    code, out, _ = run_cli(capsys, "integrate", "--hamiltonian", "anharmonic", "--z0", "1,0",
                           "--method", "verlet", "--t", "1", "--steps", "2000",
                           "--dump-matrices")
    assert code == 0
    assert len(loads(out)["result"]["linear_flow"]) == 2001
    assert_canonical_json(out)


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[lattice]\nalpha = 1.2\nbeta = 1.2\n\n[system]\nseed = 9\n"
    )
    # config file alone: not a frame
    code, out, _ = run_cli(capsys, "frame-check", "--config", str(cfg))
    assert code == 3
    assert loads(out)["meta"]["seed"] == 9
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


@pytest.mark.parametrize("text, line", [
    ("hbar = 0.2\n", 1),
    ("[system]\nhbar = 0.2\nhbar = 0.3\n", 3),
    ("[system]\nhbar\n", 2),
], ids=["no-section-header", "duplicate-key", "no-equals-sign"])
def test_malformed_ini_file_exits_1_naming_the_file_and_line(tmp_path, capsys, text, line):
    ini = tmp_path / "f.ini"
    ini.write_text(text)
    code, out, err = run_cli(capsys, "criterion", "--config", str(ini))
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: config: config file {str(ini)!r} line {line}: ")


def test_grid_points_is_not_a_setting(tmp_path, capsys):
    # nor are the removed settings of the test family, which no command reaches
    for key in ("grid_points", "grid_extent", "family_size"):
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main(["frame-check", flag, "64"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 64" in capsys.readouterr().err
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[estimation]\n{key} = 64\n")
        code, _, err = run_cli(capsys, "frame-check", "--config", str(cfg))
        assert code == 1
        assert err == f"error: estimation.{key}: unknown config key\n"


# a valid value, other than the default, for each run parameter set on its own
PARAMETER_TEXT = {
    "seed": "7", "hbar": "0.2", "dimension": "2", "alpha": "0.9", "beta": "0.8",
    "generator": "1,0.5,0,1", "radius": "3.5", "window_m": "0.5+2j", "window_center": "0.1,-0.2",
    "hamiltonian": "p1^2/2 + x1^4/4", "method": "verlet", "steps": "12", "t": "0.25",
    "frame_floor": "0.01",
}
LIST_PARAMETERS = [p for p in PARAMETERS if p.parse in (parse_float_list, parse_complex_list)]
SCALAR_PARAMETERS = [p for p in PARAMETERS if p.parse in (int, float)]


def test_every_run_parameter_is_declared_once():
    declared = [p.field for p in PARAMETERS]
    assert sorted(declared) == sorted(f.name for f in dataclasses.fields(RunConfig))
    assert len({(p.section, p.key) for p in PARAMETERS}) == len(PARAMETERS)
    assert sorted(PARAMETER_TEXT) == sorted(declared)


def test_readme_table_lists_every_run_parameter():
    # each row of the README's run-parameter table is `--flag` | `[section] key`
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("| Flag | INI `[section] key` | Default |")
    rows = []
    for line in readme[start:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        flag, key = (cell.strip().strip("`") for cell in line.split("|")[1:3])
        rows.append((flag, key))
    assert rows == [(p.flag, f"[{p.section}] {p.key}") for p in PARAMETERS]


@pytest.mark.parametrize("param", PARAMETERS, ids=lambda p: p.field)
def test_flag_and_ini_key_set_the_same_config(tmp_path, param):
    text = PARAMETER_TEXT[param.field]
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{param.section}]\n{param.key} = {text}\n")
    parser = build_arg_parser()
    by_flag = _config_from_args(parser.parse_args(["criterion", f"{param.flag}={text}"]))
    by_key = _config_from_args(parser.parse_args(["criterion", "--config", str(ini)]))
    assert by_flag == by_key != RunConfig()
    assert config_hash(by_flag) == config_hash(by_key)


@pytest.mark.parametrize("param", LIST_PARAMETERS, ids=lambda p: p.field)
def test_malformed_list_flag_exits_1(capsys, param):
    kind = "float" if param.parse is parse_float_list else "complex"
    code, out, err = run_cli(capsys, "criterion", param.flag, "0.9,x")
    assert (code, out) == (1, "")
    assert err == f"error: list: malformed {kind} list '0.9,x'\n"


@pytest.mark.parametrize("param", LIST_PARAMETERS + SCALAR_PARAMETERS, ids=lambda p: p.field)
def test_malformed_ini_value_exits_1(tmp_path, capsys, param):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{param.section}]\n{param.key} = 0.9,x\n")
    code, out, err = run_cli(capsys, "criterion", "--config", str(ini))
    assert (code, out) == (1, "")
    assert err == f"error: {param.field}: cannot parse '0.9,x'\n"


@pytest.mark.parametrize("param", SCALAR_PARAMETERS, ids=lambda p: p.field)
def test_malformed_scalar_flag_exits_2(capsys, param):
    with pytest.raises(SystemExit) as exc:
        main(["criterion", param.flag, "x"])
    assert exc.value.code == 2
    kind = param.parse.__name__
    assert f"error: argument {param.flag}: invalid {kind} value: 'x'" in capsys.readouterr().err


def test_sweep_grid_count_is_checked_in_bytes(capsys, monkeypatch):
    import gaborflow.cli as cli

    # a budget under the 64 bytes of --dimension 1 stops a CLI call before
    # its grid is parsed, so the bounds are taken on the parser
    monkeypatch.setattr(errors, "BYTE_BUDGET", 8 * 3 - 1)
    with pytest.raises(ResourceLimit, match=r"^grid spec '0\.5:1:3' needs 24 bytes \(budget 23\); "
                                            r"reduce its count$"):
        cli._parse_grid("0.5:1:3")
    monkeypatch.setattr(errors, "BYTE_BUDGET", 8 * 3)
    assert cli._parse_grid("0.5:1:3").tolist() == [0.5, 0.75, 1.0]
    monkeypatch.undo()
    code, out, err = run_cli(capsys, "sweep", "--ab-grid", "0.5:1:200000000")
    assert (code, out) == (1, "")
    assert err == ("error: grid spec '0.5:1:200000000' needs 1600000000 bytes "
                   "(budget 1073741824); reduce its count\n")


def test_expression_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "invariance", "--hamiltonian", "x1 +", "--t", "0.1")
    assert code == 1
    assert "offset" in err


def child_env(**overrides) -> dict:
    """Environment of a fresh interpreter that imports gaborflow from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, **overrides, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


MODULE_PROBE = """
import contextlib, io, json, sys
from gaborflow.cli import main

calls, names = json.loads(sys.argv[1]), json.loads(sys.argv[2])

def loaded():
    return sorted(m for m in sys.modules if any(m == k or m.startswith(k + ".") for k in names))

report = [["import", 0, loaded()]]
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report.append([" ".join(argv), code, loaded()])
print(json.dumps(report))
"""


def modules_after(calls, names):
    """[label, exit code, loaded modules among names and their submodules]
    after a fresh `import gaborflow.cli` and after each call in turn."""
    proc = subprocess.run([sys.executable, "-c", MODULE_PROBE, json.dumps(calls),
                           json.dumps(names)], capture_output=True, text=True, env=child_env(),
                          check=True)
    return loads(proc.stdout)


def test_no_cli_path_loads_scipy():
    calls = [
        ["criterion", "--alpha", "0.9", "--beta", "0.9"],
        ["frame-check", "--alpha", "0.9", "--beta", "0.9"],
        ["deform", "--hamiltonian", "anharmonic", "--t", "0.5", "--window-center=0.3,0.2"],
        ["invariance", "--hamiltonian", "anharmonic", "--t", "0.5", "--trials", "2"],
        ["integrate", "--hamiltonian", "anharmonic", "--z0", "1,0", "--method", "rk4",
         "--steps", "8"],
        # the exact quadratic flow
        ["integrate", "--hamiltonian", "harmonic", "--z0", "1,0", "--method", "exact",
         "--steps", "4"],
        ["invariance", "--hamiltonian", "harmonic", "--t", "0.5", "--trials", "2"],
        ["deform", "--hamiltonian", "harmonic", "--t", "0.5"],
    ]
    for label, code, modules in modules_after(calls, ["scipy"]):
        assert code == 0, label
        assert modules == [], label


def test_expression_parser_and_configparser_load_only_when_used(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[lattice]\nalpha = 0.9\nbeta = 0.9\n")
    calls = [
        ["frame-check", "--alpha", "0.9", "--beta", "0.9"],
        ["invariance", "--hamiltonian", "harmonic", "--t", "0.5", "--trials", "2"],
        ["frame-check", "--config", str(ini)],
        ["deform", "--hamiltonian", "p1^2/2 + x1^4/4", "--t", "0.25"],
    ]
    report = modules_after(calls, ["configparser", "gaborflow.expressions"])
    assert [code for _, code, _ in report] == [0] * 5
    assert [modules for _, _, modules in report] == [
        [], [], [], ["configparser"], ["configparser", "gaborflow.expressions"]]


def _limited_address_space():
    import resource

    # 4 GiB: a call that allocates what its input asks for fails here with a
    # MemoryError instead of taking the host's memory
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("argv, message", [
    (["invariance", "--trials", "1000000000"],
     "frame terms of 1000000000 states at 197 points need 32000018912000000000 bytes "
     "(budget 1073741824); reduce --trials"),
    # past the frame terms' own bytes, the states' coefficient block grows
    # like trials^2: 11000 trials took 4 GB
    (["invariance", "--trials", "11000"],
     "frame terms of 11000 states at 197 points need 4080032000 bytes "
     "(budget 1073741824); reduce --trials"),
    (["frame-check", "--dimension", "100000"],
     "a 2n x 2n complex matrix at dimension 100000 needs 640000000000 bytes "
     "(budget 1073741824); reduce --dimension"),
    (["criterion", "--dimension", "4097"],
     "a 2n x 2n complex matrix at dimension 4097 needs 1074266176 bytes "
     "(budget 1073741824); reduce --dimension"),
    (["path-hamiltonian", "--path-name", "dilation", "--t", "700"],
     "inverse iteration did not converge"),
    (["path-hamiltonian", "--path-name", "shear", "--t", "1e10"],
     "inverse iteration did not converge"),
], ids=["trials", "trials-squared", "dimension", "criterion-dimension", "dilation-overflow",
        "shear-1e10"])
def test_hostile_call_ends_in_one_error_line(argv, message):
    # in a child under an address-space limit and a timeout, with overflow
    # warnings made errors: a count the byte budget missed would run out of
    # memory or time there, and an unguarded overflow would end in a traceback
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "gaborflow.cli",
                           *argv], capture_output=True, text=True, timeout=60,
                          env=child_env(OPENBLAS_NUM_THREADS="1"),
                          preexec_fn=_limited_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


def test_path_hamiltonian_far_from_zero_keeps_its_values(capsys):
    # t +- 1e-5 at t = 1e10 are 1.9e-5 apart as floats; divided by 2e-5 the
    # rotation read Q = 0.9537 I and values 0.4768, 0.4768, 0.3099, 0.8059
    code, out, _ = run_cli(capsys, "path-hamiltonian", "--path-name", "rotation", "--t", "1e10")
    assert code == 0
    result = loads(out)["result"]
    assert np.abs(np.array(result["quadratic_form"]) - np.eye(2)).max() < 1e-9
    values = [entry["value"] for entry in result["isotopy_values"]]
    assert values == pytest.approx([0.5, 0.5, 0.325, 0.845], abs=1e-9)


def test_frame_check_output_does_not_depend_on_the_blas_thread_count():
    argv = [sys.executable, "-m", "gaborflow.cli", "frame-check", "--alpha", "0.9", "--beta", "0.9"]
    outs = [subprocess.run(argv, capture_output=True, check=True,
                           env=child_env(OPENBLAS_NUM_THREADS=str(k))).stdout for k in (1, 2)]
    assert outs[0] == outs[1]


def test_import_leaves_no_blas_worker_spinning():
    """A fresh `import gaborflow.cli` uses no more CPU time than wall time; an
    OpenBLAS worker spinning from library load on would add a second core's."""
    env = child_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import gaborflow.cli"], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert usage.ru_utime + usage.ru_stime < wall + 0.03
