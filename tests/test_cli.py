import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cpmasa
from cpmasa import cli
from cpmasa.cli import main

try:
    import tomllib
except ImportError:  # Python < 3.11
    tomllib = None


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def map_problem(tmp_path):
    s = 1 / np.sqrt(2)
    return write_json(
        tmp_path / "map.json",
        {
            "kind": "cp_map",
            "kraus": [
                [[[s, 0], [0, 0]], [[0.5, 0], [0.5, 0]]],
                [[[0, 0], [s, 0]], [[-0.5, 0], [0.5, 0]]],
            ],
        },
    )


@pytest.fixture
def generator_problem(tmp_path):
    return write_json(
        tmp_path / "gen.json",
        {
            "kind": "generator",
            "kraus": [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]],
            "hamiltonian": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
        },
    )


def test_check_invariance_map(capsys, map_problem):
    code, report = run_cli(capsys, "check-invariance", "--input", map_problem)
    assert code == 0
    assert report["invariant"]["ok"] is True
    assert report["invariant"]["residual"] <= 1e-10
    assert report["tolerance"] == {"atol": 1e-9, "rtol": 1e-9}
    assert report["inputs"]["kind"] == "cp_map"


def test_check_invariance_generator(capsys, generator_problem):
    code, report = run_cli(capsys, "check-invariance", "--input", generator_problem)
    assert code == 0
    assert report["invariant"]["ok"] is True


def test_tolerance_flags_override(capsys, map_problem):
    code, report = run_cli(
        capsys, "check-invariance", "--input", map_problem, "--atol", "1e-4", "--rtol", "1e-5"
    )
    assert code == 0
    assert report["tolerance"] == {"atol": 1e-4, "rtol": 1e-5}


def test_masa_file_flag(capsys, map_problem, tmp_path):
    # eigenbasis of sigma_x + sigma_y: the map does not preserve this masa
    c = np.array([[0, 1 - 1j], [1 + 1j, 0]], dtype=complex)
    _, u = np.linalg.eigh(c)
    masa_file = write_json(
        tmp_path / "masa.json",
        {"masa": [[[v.real, v.imag] for v in row] for row in u]},
    )
    code, report = run_cli(
        capsys, "check-invariance", "--input", map_problem, "--masa", masa_file
    )
    assert code == 0
    assert report["invariant"]["ok"] is False
    # with --assert the exit code flips
    code, _ = run_cli(
        capsys, "check-invariance", "--input", map_problem, "--masa", masa_file, "--assert"
    )
    assert code == 1


def test_find_masa_m2(capsys, map_problem):
    code, report = run_cli(capsys, "find-masa", "--input", map_problem)
    assert code == 0
    assert report["method"] == "pauli_eigenvector"
    assert report["invariant"]["ok"] is True
    u = np.array([[complex(re, im) for re, im in row] for row in report["masa"]["basis_unitary"]])
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-9


@pytest.fixture
def hidden_pattern_problem(tmp_path):
    # one nonzero per row of each operator, hidden by a fixed rotation w
    w = cpmasa.haar_unitary(np.random.default_rng(31), 3)
    ops = [
        np.array([[0, 0.6, 0], [0, 0, 0.8], [0.5, 0, 0]]),
        np.diag([0.8, 0.6, np.sqrt(0.75)]),
    ]
    kraus = [w @ op @ w.conj().T for op in ops]
    return write_json(
        tmp_path / "hidden.json",
        {
            "kind": "cp_map",
            "kraus": [[[[z.real, z.imag] for z in row] for row in op] for op in kraus],
        },
    )


def test_find_masa_descent_is_seeded(capsys, hidden_pattern_problem):
    argv = ["find-masa", "--input", hidden_pattern_problem, "--restarts", "5", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    report = json.loads(first)
    assert report["method"] == "multi_start_descent"
    assert report["invariant"]["ok"] is True


def test_search_masa(capsys, map_problem):
    code, report = run_cli(
        capsys, "search-masa", "--input", map_problem, "--restarts", "10", "--seed", "5"
    )
    assert code == 0
    assert report["restarts"] == 10
    assert report["seed"] == 5
    assert report["search_residual"] <= 1e-8
    assert report["invariant"]["ok"] is True


def test_criterion_thm11(capsys, map_problem):
    code, report = run_cli(capsys, "criterion", "thm11", "--input", map_problem)
    assert code == 0
    assert report["criterion"] == "thm11"
    assert report["result"]["feasible"] is True
    assert report["result"]["residual"] <= 1e-8


def test_criterion_thm12(capsys, generator_problem):
    code, report = run_cli(capsys, "criterion", "thm12", "--input", generator_problem)
    assert code == 0
    assert report["criterion"] == "thm12"
    assert report["result"]["feasible"] is True


def test_criterion_kind_mismatch(capsys, map_problem):
    code, _ = run_cli(capsys, "criterion", "thm12", "--input", map_problem)
    assert code == 2


def test_rebolledo(capsys, map_problem):
    code, report = run_cli(capsys, "rebolledo", "--input", map_problem)
    assert code == 0
    assert report["patterns_examined"] == 9
    assert report["compatible_elements"] == []
    assert report["all_operators_pass"] is False
    code, _ = run_cli(capsys, "rebolledo", "--input", map_problem, "--assert")
    assert code == 1


def test_split_commands(capsys, generator_problem):
    code, report = run_cli(capsys, "split", "cp-part", "--input", generator_problem)
    assert code == 0
    assert report["split"] == "cp-part"
    assert report["result"]["feasible"] is True
    code, report = run_cli(capsys, "split", "hamiltonian", "--input", generator_problem)
    assert code == 0
    assert report["result"]["feasible"] is True


def test_split_infeasible_certificate(capsys, tmp_path):
    gen_file = write_json(
        tmp_path / "blocked.json",
        {
            "kind": "generator",
            "kraus": [
                [[[1, 0], [1, 0]], [[1, 0], [1, 0]]],
                [[[1, 0], [2, 0]], [[2, 0], [2, 0]]],
            ],
            "beta": [[[-3.5, 0], [-3, 0]], [[-5, 0], [-5, 0]]],
        },
    )
    code, report = run_cli(capsys, "split", "hamiltonian", "--input", gen_file)
    assert code == 0
    result = report["result"]
    assert result["feasible"] is False
    cert = result["certificate"]
    assert set(cert["row_labels"]) == {"(0,1).re", "(0,1).im", "(1,0).re", "(1,0).im"}
    assert len(cert["violations"]) == 2


def test_equiv_same_presentation(capsys, generator_problem):
    code, report = run_cli(
        capsys, "equiv", "--input", generator_problem, "--other", generator_problem
    )
    assert code == 0
    assert report["result"]["equivalent"] is True
    assert report["result"]["checks"]["superoperator_distance"] <= 1e-12


def test_equiv_with_small_jump_and_padded_reference(capsys, tmp_path):
    # a jump of norm ~1e-5 stays in the minimal form, so padding the
    # reference with a zero jump still yields a witness
    rng = np.random.default_rng(23)
    a, b, beta = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
    jumps = [a, 1e-5 * b]
    problems = {}
    for name, family in (("other", jumps), ("padded", jumps + [0 * a])):
        problems[name] = write_json(
            tmp_path / f"{name}.json",
            {
                "kind": "generator",
                "kraus": [[[[z.real, z.imag] for z in row] for row in op] for op in family],
                "beta": [[[z.real, z.imag] for z in row] for row in beta],
            },
        )
    code, report = run_cli(
        capsys, "equiv", "--input", problems["padded"], "--other", problems["other"]
    )
    assert code == 0
    assert report["result"]["equivalent"] is True
    assert report["result"]["checks"]["drift_equation_residual"] <= 1e-9


def test_restrict(capsys, generator_problem):
    code, report = run_cli(capsys, "restrict", "--input", generator_problem)
    assert code == 0
    a = np.array(report["restriction"])
    assert a.shape == (2, 2)
    assert np.allclose(np.array(report["row_sums"]), 0, atol=1e-10)


def test_corpus_command(capsys):
    code, report = run_cli(capsys, "corpus", "ex2_1")
    assert code == 0
    assert report["ok"] is True
    assert report["id"] == "ex2_1"
    code, _ = run_cli(capsys, "corpus", "ex2_1", "--assert")
    assert code == 0


def test_timing_flag(capsys, map_problem):
    code, report = run_cli(capsys, "check-invariance", "--input", map_problem, "--timing")
    assert code == 0
    assert report["timing"]["seconds"] >= 0


def test_error_exit_codes(capsys, tmp_path):
    assert main(["check-invariance", "--input", str(tmp_path / "missing.json")]) == 2
    bad = write_json(tmp_path / "bad.json", {"kind": "cp_map"})
    assert main(["check-invariance", "--input", bad]) == 2
    assert main(["corpus", "ex0_0"]) == 2


@pytest.mark.parametrize(
    "fields",
    [
        {"atol": "x"},
        {"atol": True},
        {"rtol": False},
        {"kraus": [[[True, False], [False, True]]]},
    ],
    ids=["atol-string", "atol-bool", "rtol-bool", "bool-matrix-entries"],
)
def test_malformed_numbers_exit_2(capsys, tmp_path, fields):
    problem = {"kind": "cp_map", "kraus": [[[1, 0], [0, 1]]], **fields}
    path = write_json(tmp_path / "problem.json", problem)
    assert main(["check-invariance", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_numeric_string_tolerances_are_read(capsys, tmp_path):
    problem = {"kind": "cp_map", "kraus": [[[1, 0], [0, 1]]], "atol": "1e-4", "rtol": "1e-5"}
    path = write_json(tmp_path / "problem.json", problem)
    code, report = run_cli(capsys, "check-invariance", "--input", path)
    assert code == 0
    assert report["tolerance"] == {"atol": 1e-4, "rtol": 1e-5}


def test_non_finite_arithmetic_exits_2(capsys, tmp_path):
    # the images of the identity scaled by 1e308 overflow
    path = write_json(
        tmp_path / "huge.json", {"kind": "cp_map", "kraus": [[[1e308, 0], [0, 1e308]]]}
    )
    assert main(["check-invariance", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_non_finite_report_is_not_emitted(capsys, monkeypatch, map_problem):
    monkeypatch.setitem(
        cli._COMMANDS, "check-invariance", lambda args: ({"residual": float("nan")}, True)
    )
    assert main(["check-invariance", "--input", map_problem]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_console_script_entry_point(map_problem):
    # the [project.scripts] target, cpmasa.cli:main, in a child process: the
    # installed script when it is on PATH, else the module it points at
    if tomllib is not None:
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["cpmasa"] == "cpmasa.cli:main"
    script = shutil.which("cpmasa")
    command = [script] if script else [sys.executable, "-m", "cpmasa.cli"]
    package_root = str(Path(cpmasa.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [*command, "check-invariance", "--input", map_problem],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["invariant"]["ok"] is True


def test_find_masa_falls_back_to_search_outside_m2_precondition(capsys, tmp_path):
    # T(1) = diag(4, 1) is not scalar, so the Pauli construction does not
    # apply, yet T plainly preserves the diagonal masa
    path = write_json(tmp_path / "diag.json", {"kind": "cp_map", "kraus": [[[2, 0], [0, 1]]]})
    code, report = run_cli(capsys, "find-masa", "--input", path)
    assert code == 0
    assert report["method"] == "multi_start_descent"
    assert report["invariant"]["ok"] is True


def run_module(*argv):
    """`python -m cpmasa.cli` in a child process, with numpy warnings shown."""
    package_root = str(Path(cpmasa.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONWARNINGS="default")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "cpmasa.cli", *argv], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize("command", ["check-invariance", "find-masa"])
def test_non_finite_error_is_first_on_stderr(tmp_path, command):
    path = write_json(
        tmp_path / "huge.json", {"kind": "cp_map", "kraus": [[[1e308, 0], [0, 1e308]]]}
    )
    out = run_module(command, "--input", path)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error:"), out.stderr


_POSITIONALS = {"criterion": ["thm11"], "split": ["cp-part"], "corpus": ["ex2_2"]}
_UNREAD_FLAGS = [
    *[
        (command, flag)
        for command in (
            "check-invariance", "criterion", "rebolledo", "split", "equiv", "restrict", "corpus"
        )
        for flag in ("--seed", "--restarts")
    ],
    *[(command, "--masa") for command in ("find-masa", "search-masa", "equiv", "corpus")],
    ("corpus", "--input"),
]


@pytest.mark.parametrize(
    "command, flag", _UNREAD_FLAGS, ids=[f"{c}{f}" for c, f in _UNREAD_FLAGS]
)
def test_flag_a_command_does_not_read_exits_2(capsys, map_problem, command, flag):
    argv = [command, *_POSITIONALS.get(command, [])]
    if command != "corpus":
        argv += ["--input", map_problem]
    if command == "equiv":
        argv += ["--other", map_problem]
    argv += [flag, "3" if flag in ("--seed", "--restarts") else map_problem]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
