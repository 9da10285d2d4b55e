"""Command line contract: parsing, reports, exit codes, determinism, selftest."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oplebesgue import cli
from oplebesgue import selftest as selftest_suite
from oplebesgue.serialize import parse_problem_text, serialize_problem

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args, "--json")
    report = json.loads(out) if out else None
    return code, report, err


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def operator_doc(a, b, **extra):
    def encode(m):
        return [[[float(np.real(z)), float(np.imag(z))] for z in row] for row in np.asarray(m, complex)]

    doc = {"version": "1", "kind": "operator_pair", "payload": {"a": encode(a), "b": encode(b)}}
    doc.update(extra)
    return doc


def test_psum_operator_pair(capsys):
    code, report, _ = run_json(capsys, "psum", str(DATA / "operator_pair.json"))
    assert code == 0
    assert report["kind"] == "operator_pair"
    got = np.array([[complex(*z) for z in row] for row in report["result"]["parallel_sum"]])
    assert np.allclose(got, np.diag([6.0 / 5.0, 0.0]), atol=1e-9)
    assert report["diagnostics"]["min_eig_first_minus_sum"] >= -1e-9
    assert report["diagnostics"]["min_eig_second_minus_sum"] >= -1e-9


def test_psum_orthogonal_supports_reports_singularity(capsys, tmp_path):
    doc = operator_doc(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    code, report, _ = run_json(capsys, "psum", write_problem(tmp_path, doc))
    assert code == 0
    assert report["diagnostics"]["singularity_norm"] <= 1e-12


@pytest.mark.parametrize("method", ["direct", "iterate", "ando"])
def test_decompose_operator_pair_all_methods(capsys, method):
    code, report, _ = run_json(
        capsys, "decompose", str(DATA / "operator_pair.json"), "--method", method
    )
    assert code == 0
    ac = np.array([[complex(*z) for z in row] for row in report["result"]["ac"]])
    sing = np.array([[complex(*z) for z in row] for row in report["result"]["sing"]])
    assert np.allclose(ac, np.diag([3.0, 0.0]), atol=1e-6)
    assert np.allclose(sing, np.diag([0.0, 5.0]), atol=1e-6)
    diagnostics = report["diagnostics"]
    assert diagnostics["sum_residual"] >= 0.0
    assert diagnostics["singularity_norm"] <= 1e-7
    assert diagnostics["range_leak"] <= 1e-7
    assert "converged" in diagnostics


def test_decompose_zero_reference(capsys, tmp_path):
    doc = operator_doc(np.zeros((2, 2)), [[2.0, 1.0], [1.0, 2.0]])
    code, report, _ = run_json(capsys, "decompose", write_problem(tmp_path, doc))
    assert code == 0
    ac = np.array([[complex(*z) for z in row] for row in report["result"]["ac"]])
    assert np.linalg.norm(ac) <= 1e-12


def test_decompose_cross_check(capsys):
    code, report, _ = run_json(
        capsys, "decompose", str(DATA / "operator_pair.json"), "--cross-check"
    )
    assert code == 0
    assert report["diagnostics"]["cross_method_max_discrepancy"] <= 1e-6
    assert report["diagnostics"]["cross_method_all_converged"] is True


def test_decompose_form_pair(capsys):
    code, report, _ = run_json(capsys, "decompose", str(DATA / "form_pair.json"))
    assert code == 0
    assert report["result"]["basis"] == ["x", "y"]
    sing = np.array([[complex(*z) for z in row] for row in report["result"]["sing"]])
    assert np.allclose(sing, [[1.0, 1.0], [1.0, 1.0]], atol=1e-9)


def test_decompose_functional_pair(capsys):
    code, report, _ = run_json(capsys, "decompose", str(DATA / "functional_pair.json"))
    assert code == 0
    assert report["result"]["block_dims"] == [2, 1]
    ac0 = np.array([[complex(*z) for z in row] for row in report["result"]["ac"][0]])
    sing1 = np.array([[complex(*z) for z in row] for row in report["result"]["sing"][1]])
    assert np.allclose(ac0, [[2.0, 1.0j], [-1.0j, 2.0]], atol=1e-6)
    assert sing1[0, 0] == pytest.approx(5.0, abs=1e-6)


def test_decompose_non_convergence_still_emits(capsys, tmp_path):
    doc = operator_doc(np.diag([1e-5, 0.0]), np.eye(2), tolerances={"max_iter": 3})
    code, report, _ = run_json(
        capsys, "decompose", write_problem(tmp_path, doc), "--method", "iterate"
    )
    assert code == 0
    assert report["diagnostics"]["converged"] is False
    assert report["diagnostics"]["iterations"] == 3
    assert "ac" in report["result"]


def test_check_singular_pair(capsys, tmp_path):
    doc = operator_doc(np.diag([1.0, 0.0]), [[1.0, 1.0], [1.0, 1.0]])
    code, report, _ = run_json(capsys, "check", write_problem(tmp_path, doc))
    assert code == 0
    assert report["result"]["singular"] is True
    assert report["result"]["absolutely_continuous"] is False
    assert report["diagnostics"]["parallel_norm"] <= 1e-10
    assert report["diagnostics"]["factored_parallel_sum_residual"] <= 1e-9
    assert report["diagnostics"]["contraction_recursion_residual"] <= 1e-9


def test_check_identical_invertible_pair(capsys, tmp_path):
    doc = operator_doc(np.eye(2), np.eye(2))
    code, report, _ = run_json(capsys, "check", write_problem(tmp_path, doc))
    assert code == 0
    assert report["result"]["singular"] is False
    assert report["result"]["absolutely_continuous"] is True


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "psum", "/nonexistent/problem.json")
    assert code == 2
    assert json.loads(err)["error"]["exit_code"] == 2


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "psum", str(path))
    assert code == 2
    assert "invalid JSON" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(version="99"),
        lambda d: d.update(kind="matrix_pair"),
        lambda d: d["payload"].pop("b"),
        lambda d: d["payload"].update(b=[[[1.0, 0.0]]]),  # dimension mismatch
        lambda d: d.update(tolerances={"rank_rtol": -1.0}),
        lambda d: d.update(tolerances={"unknown_knob": 1.0}),
    ],
)
def test_schema_violations_exit_2(capsys, tmp_path, mutate):
    doc = operator_doc(np.eye(2), np.eye(2))
    mutate(doc)
    code, _, err = run_cli(capsys, "psum", write_problem(tmp_path, doc))
    assert code == 2
    assert json.loads(err)["error"]["category"] in ("schema", "input")


def test_non_psd_input_exits_2(capsys, tmp_path):
    doc = operator_doc(np.diag([1.0, -1.0]), np.eye(2))
    code, _, err = run_cli(capsys, "psum", write_problem(tmp_path, doc))
    assert code == 2
    assert "positive semidefinite" in json.loads(err)["error"]["message"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_exits_3(capsys, tmp_path):
    # each matrix is a valid PSD input, but the sum overflows inside compute
    big = 1.5e308
    doc = operator_doc(np.diag([big, big]), np.diag([big, big]))
    code, _, err = run_cli(capsys, "decompose", write_problem(tmp_path, doc))
    assert code == 3
    assert json.loads(err)["error"]["category"] == "numerical"


def test_output_flag_writes_report(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "psum", str(DATA / "operator_pair.json"), "--output", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["command"] == "psum"


def test_reports_are_deterministic(capsys):
    results = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "decompose", str(DATA / "operator_pair.json"), "--json")
        assert code == 0
        body = json.loads(out)
        body.pop("wall_time_ms")
        results.append(json.dumps(body, sort_keys=True))
    assert results[0] == results[1]


@pytest.mark.parametrize("name", ["operator_pair", "form_pair", "functional_pair"])
def test_problem_files_round_trip(name):
    raw = (DATA / f"{name}.json").read_text(encoding="utf-8")
    problem = parse_problem_text(raw)
    assert serialize_problem(problem) == json.loads(raw)


def test_selftest_passes(capsys):
    code, report, _ = run_json(capsys, "selftest")
    assert code == 0
    assert report["result"]["failed"] == 0
    assert report["result"]["total"] >= 60
    assert report["diagnostics"]["all_passed"] is True


def test_selftest_with_loose_iteration_tolerance(capsys):
    # looser stopping may only loosen the iterate fixtures, never break them
    code, report, _ = run_json(capsys, "selftest", "--iter-tol", "1e-2")
    assert code == 0
    assert report["result"]["failed"] == 0


def test_selftest_failure_exits_1(capsys):
    # an absurd rank cutoff collapses auxiliary spaces, so fixtures must fail
    code, report, _ = run_json(capsys, "selftest", "--tol-rank", "0.9")
    assert code == 1
    assert report["result"]["failed"] > 0
    assert all(f["name"] for f in report["result"]["failures"])


def test_selftest_missing_fixture_resource_exits_2(capsys, monkeypatch):
    def missing():
        raise FileNotFoundError("fixture resource deleted")

    monkeypatch.setattr(selftest_suite, "fixtures_bytes", missing)
    code, _, err = run_cli(capsys, "selftest")
    assert code == 2
    assert json.loads(err)["error"]["exit_code"] == 2


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "oplebesgue", "psum", str(DATA / "operator_pair.json"), "--json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["command"] == "psum"


def test_human_readable_output_without_json_flag(capsys):
    code, out, _ = run_cli(capsys, "decompose", str(DATA / "operator_pair.json"))
    assert code == 0
    assert "decompose" in out
    assert "sum_residual" in out


@pytest.mark.parametrize("method", ["direct", "iterate", "ando"])
@pytest.mark.parametrize("name", ["operator_pair.json", "form_pair.json", "functional_pair.json"])
def test_cross_check_runs_each_method_once(capsys, monkeypatch, name, method):
    path = str(DATA / name)
    original = cli._decomposition_views
    problem = parse_problem_text((DATA / name).read_text(encoding="utf-8"))
    tol = problem.tolerances
    sings = {m: original(problem, tol, m)[2].entries for m in ("direct", "iterate", "ando")}
    expected = max(
        float(np.linalg.norm(sings[x] - sings[y]))
        for x, y in (("ando", "direct"), ("ando", "iterate"), ("direct", "iterate"))
    )
    _, plain, _ = run_json(capsys, "decompose", path, "--method", method)

    calls = []

    def counted(problem, tol, m):
        calls.append(m)
        return original(problem, tol, m)

    monkeypatch.setattr(cli, "_decomposition_views", counted)
    code, report, _ = run_json(capsys, "decompose", path, "--method", method, "--cross-check")
    assert code == 0
    assert sorted(calls) == ["ando", "direct", "iterate"]
    assert report["result"] == plain["result"]
    extra = report["diagnostics"]
    assert extra.pop("cross_method_max_discrepancy") == expected
    assert extra.pop("cross_method_all_converged") is True
    assert extra == plain["diagnostics"]


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize dominates import time and only the variational oracle uses it
    probe = "import sys, oplebesgue.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
