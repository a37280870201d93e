"""Golden CLI outputs: exit code and exact stdout bytes of every subcommand,
plus stderr for the error cases, compared against files in tests/golden/.

The goldens pin pure code moves: a refactor that claims to leave behaviour
unchanged must leave every byte here unchanged.  Re-record a case only for an
intended change of its output, by name:

    python tests/test_golden_cli.py NAME [NAME ...]

Only the named cases are rewritten; every other golden and status entry is
left as it is, so one intended change cannot silently re-record the rest.
To see how far a case has moved before re-recording it, without writing
anything:

    python tests/test_golden_cli.py --diff NAME [NAME ...]

prints whether the exit code matches and how stdout moved against the
recorded golden.  A JSON golden is compared as a parsed document: each added
or removed key path, each changed string or other non-number, then the
largest relative change of any number.  Other output (CSV) is compared
number by number, as long as the text around the numbers is unchanged.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
STATUS = GOLDEN / "status.json"
EXPR = "p1^2/2 + x1^4/4"

# name -> argv; step counts and lattices are small so each golden stays a few KB
CASES = {
    "criterion": ["criterion", "--alpha", "0.9", "--beta", "0.9", "--hbar", "0.159155"],
    "criterion_csv": ["criterion", "--alpha", "0.5,1.5", "--beta", "1,1", "--dimension", "2",
                      "--format", "csv"],
    "frame_check": ["frame-check", "--alpha", "0.9", "--beta", "0.9"],
    "frame_check_csv": ["frame-check", "--alpha", "1.1", "--beta", "1.1", "--radius", "5",
                        "--format", "csv"],
    "frame_check_n2": ["frame-check", "--dimension", "2", "--alpha", "0.9", "--beta", "0.9",
                       "--radius", "1.5"],
    "deform_harmonic": ["deform", "--hamiltonian", "harmonic", "--t", "1.57",
                        "--alpha", "0.9", "--beta", "0.9"],
    "deform_anharmonic": ["deform", "--hamiltonian", "anharmonic", "--t", "0.5",
                          "--window-center=0.3,0.2"],
    "deform_expression_csv": ["deform", "--hamiltonian", EXPR, "--t", "0.25",
                              "--window-center=0.2,-0.1", "--format", "csv"],
    "deform_exact_nonlinear": ["deform", "--hamiltonian", "anharmonic", "--t", "0.3",
                               "--steps", "16", "--lattice-mode", "exact-nonlinear",
                               "--dump-lattice", "--alpha", "1.5", "--beta", "1.5",
                               "--radius", "3"],
    "invariance": ["invariance", "--hamiltonian", EXPR, "--t", "0.5", "--alpha", "0.9",
                   "--beta", "0.9", "--trials", "2", "--steps", "64"],
    "invariance_csv": ["invariance", "--hamiltonian", "harmonic", "--t", "0.7",
                       "--window-center=0.4,0.1", "--trials", "3", "--format", "csv"],
    "integrate_harmonic_exact": ["integrate", "--hamiltonian", "harmonic", "--z0", "1,0",
                                 "--t", "1", "--steps", "6", "--dump-matrices"],
    "integrate_anharmonic_verlet": ["integrate", "--hamiltonian", "anharmonic", "--z0", "1,0",
                                    "--t", "1", "--steps", "6"],
    "integrate_expression_rk4": ["integrate", "--hamiltonian", EXPR, "--z0", "1,0.5",
                                 "--t", "1", "--steps", "6"],
    "integrate_driven_csv": ["integrate", "--hamiltonian", "driven", "--z0", "0.5,0",
                             "--t", "0.5", "--steps", "4", "--format", "csv"],
    "sweep_ab_default_radius": ["sweep", "--ab-grid", "0.64,1.21"],
    "sweep_ab_radius_csv": ["sweep", "--ab-grid", "0.5:1.0:3", "--radius", "4",
                            "--format", "csv"],
    "sweep_t_descending": ["sweep", "--t-grid", "1:0:3", "--hamiltonian", "harmonic",
                           "--alpha", "0.9", "--beta", "0.9", "--radius", "5"],
    "sweep_t_anharmonic_csv": ["sweep", "--t-grid", "0.2,0.4", "--hamiltonian", "anharmonic",
                               "--radius", "4", "--format", "csv"],
    "path_rotation": ["path-hamiltonian", "--path-name", "rotation", "--t", "0.5"],
    "path_translation": ["path-hamiltonian", "--path-name", "translation", "--t", "0.5"],
    "path_dilation_csv": ["path-hamiltonian", "--path-name", "dilation", "--t", "0.3",
                          "--format", "csv"],
    "error_siegel_symplectic": ["deform", "--hamiltonian", "anharmonic", "--t", "1.0",
                                "--steps", "64", "--window-center=1.0,0.5"],
    # the same coarse deform as error_siegel_symplectic, on verlet's symplectic S_t
    "deform_verlet_coarse": ["deform", "--hamiltonian", "anharmonic", "--t", "1.0",
                             "--steps", "64", "--window-center=1.0,0.5", "--method", "verlet"],
    "error_bad_method": ["integrate", "--hamiltonian", "anharmonic", "--z0", "1,0",
                         "--method", "leapfrog", "--steps", "4"],
}


def run_case(argv) -> tuple[int, bytes, str]:
    from gaborflow.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode(), err.getvalue()


def check_names(names) -> None:
    unknown = sorted(set(names) - set(CASES))
    if not names or unknown:
        sys.exit(f"usage: python tests/test_golden_cli.py [--diff] NAME [NAME ...]\n"
                 f"unknown names: {', '.join(unknown) or '-'}\n"
                 f"cases: {', '.join(sorted(CASES))}")


# a number not glued to a word, so keys and hashes are left as text
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])|\b(?:nan|inf)\b")


def relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a != 0 and math.isfinite(a) else math.inf


def leaves(doc, path="") -> dict:
    """{key path: value} of every leaf of a parsed JSON document."""
    if isinstance(doc, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in doc.items())
    elif isinstance(doc, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(doc))
    else:
        return {path: doc}
    return {p: leaf for k, v in items for p, leaf in leaves(v, k).items()}


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def number_summary(pairs) -> str:
    changes = [(relative_change(float(a), float(b)), a, b) for a, b in pairs]
    if not changes:
        return "no numbers to compare"
    worst, a, b = max(changes)
    moved = sum(c > 0 for c, _, _ in changes)
    if not moved:
        return f"none of {len(changes)} numbers differ"
    return (f"{moved} of {len(changes)} numbers differ, "
            f"largest relative change {worst:.3g} ({a} -> {b})")


def compare(old: str, new: str) -> list[str]:
    """Lines describing how stdout `new` moved from the golden `old`."""
    try:
        a, b = leaves(json.loads(old)), leaves(json.loads(new))
    except json.JSONDecodeError:
        old_nums, new_nums = NUMBER.findall(old), NUMBER.findall(new)
        if NUMBER.sub("#", old) != NUMBER.sub("#", new) or len(old_nums) != len(new_nums):
            return ["text other than numbers differs"]
        return [number_summary(zip(old_nums, new_nums))]
    lines = [f"removed {p}" for p in a if p not in b]
    lines += [f"added {p}" for p in b if p not in a]
    common = [p for p in a if p in b]
    numeric = [p for p in common if is_number(a[p]) and is_number(b[p])]
    lines += [f"changed {p}: {json.dumps(a[p])} -> {json.dumps(b[p])}"
              for p in common if p not in numeric and a[p] != b[p]]
    return lines + [number_summary((a[p], b[p]) for p in numeric)]


def diff(names) -> None:
    """Print, per case, the exit code against the golden's and how stdout
    moved (see compare); writes nothing."""
    check_names(names)
    status = json.loads(STATUS.read_text())
    for name in names:
        code, out, _ = run_case(CASES[name])
        old, new = (GOLDEN / f"{name}.out").read_text(), out.decode()
        expected = status[name]["code"]
        line = f"{name}: exit {code} ({'matches' if code == expected else f'golden {expected}'})"
        if old == new:
            print(f"{line}, stdout identical")
            continue
        print(line)
        for change in compare(old, new):
            print(f"  {change}")


def record(names) -> None:
    check_names(names)
    GOLDEN.mkdir(exist_ok=True)
    status = json.loads(STATUS.read_text()) if STATUS.exists() else {}
    for name in names:
        code, out, err = run_case(CASES[name])
        (GOLDEN / f"{name}.out").write_bytes(out)
        status[name] = {"code": code, "stderr": err if code == 1 else None}
        print(f"{name}: exit {code}, {len(out)} bytes")
    STATUS.write_text(json.dumps(status, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli(name):
    expected = json.loads(STATUS.read_text())[name]
    code, out, err = run_case(CASES[name])
    assert code == expected["code"]
    assert out == (GOLDEN / f"{name}.out").read_bytes()
    if expected["stderr"] is not None:
        assert err == expected["stderr"]


def test_diff_compares_json_as_documents():
    old = json.dumps({"meta": {"hash": "ab"}, "result": {"a": 1.0, "t": {"g": 8, "r": 2.0},
                                                          "ok": True}})
    new = json.dumps({"meta": {"hash": "cd"}, "result": {"a": 1.5, "t": {"r": 2.0},
                                                          "ok": False, "b": [0.5]}})
    assert compare(old, new) == [
        "removed result.t.g", "added result.b[0]", 'changed meta.hash: "ab" -> "cd"',
        "changed result.ok: true -> false",
        "1 of 2 numbers differ, largest relative change 0.5 (1.0 -> 1.5)",
    ]
    assert compare("x,y\n1,2\n", "x,y\n1,3\n") == [
        "1 of 2 numbers differ, largest relative change 0.5 (2 -> 3)"]
    assert compare("x\n1\n", "y\n1\n") == ["text other than numbers differs"]


def frame_verdicts(argv, out: str) -> list:
    """(alpha*beta of the row or None, is_frame) of every frame report in the
    output of argv, JSON or CSV."""
    if "csv" in argv:
        return [(float(row["alpha_beta"]) if "alpha_beta" in row else None,
                 row["is_frame"] == "True") for row in csv.DictReader(io.StringIO(out))]
    result = json.loads(out)["result"]
    return [(row.get("alpha_beta"), row["is_frame"]) for row in result.get("rows", [result])]


def test_every_golden_frame_verdict_follows_the_criterion():
    # every golden frame report is of the standard Gaussian on a separable
    # lattice (an ab-grid row's, or a t-grid source's), whose verdict the
    # Gaussian frame criterion gives
    from gaborflow.cli import _config_from_args, build_arg_parser
    from gaborflow.config import lattice_spacings
    from gaborflow.frames import gaussian_frame_criterion

    status = json.loads(STATUS.read_text())
    checked = 0
    for name, argv in CASES.items():
        if argv[0] not in ("frame-check", "sweep") or status[name]["code"] == 1:
            continue
        cfg = _config_from_args(build_arg_parser().parse_args(argv))
        assert cfg.window_m is None and cfg.generator is None
        for ab, is_frame in frame_verdicts(argv, (GOLDEN / f"{name}.out").read_text()):
            alpha, beta = lattice_spacings(cfg)
            if ab is not None:
                alpha = beta = (math.sqrt(ab),) * cfg.dimension
            assert is_frame == bool(gaussian_frame_criterion(alpha, beta, cfg.hbar).all()), name
            checked += 1
    assert checked == 10


def test_each_command_reads_the_run_parameters_of_its_table_row(monkeypatch):
    # the RunConfig fields each handler reads over the goldens, which run every
    # command, both sweep grids and both deform lattice modes; seed, which
    # every command takes, and the config hash of a report's meta are left out
    import gaborflow.cli as cli
    from gaborflow.config import PARAMETERS, RunConfig

    names = {p.field for p in PARAMETERS}
    reads = set()

    class Recording(RunConfig):
        def __getattribute__(self, name):
            if name in names:
                reads.add(name)
            return super().__getattribute__(name)

    parse = cli._config_from_args
    monkeypatch.setattr(cli, "_config_from_args", lambda args: Recording(**vars(parse(args))))
    monkeypatch.setattr(cli, "_write_output", lambda *args: None)
    read_by = {name: set() for name in cli.COMMANDS}
    for argv in CASES.values():
        reads.clear()
        cli.main(list(argv))
        read_by[argv[0]] |= reads - {"seed"}
    assert read_by == {name: set(fields) for name, (_, _, fields, _) in cli.COMMANDS.items()}


def test_every_golden_has_a_case():
    assert set(json.loads(STATUS.read_text())) == set(CASES)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    if sys.argv[1:2] == ["--diff"]:
        diff(sys.argv[2:])
    else:
        record(sys.argv[1:])
