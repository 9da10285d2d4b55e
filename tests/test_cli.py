"""Command line contract: parsing, reports, exit codes, determinism, selftest."""

import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oplebesgue import PsdMatrix, Tolerances, cli, lebesgue
from oplebesgue import selftest as selftest_suite
from oplebesgue.lebesgue import range_threshold, singularity_threshold
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


def form_doc(basis):
    """A form pair on ``basis`` with 2 x 2 identity Grams."""
    eye = operator_doc(np.eye(2), np.eye(2))["payload"]["a"]
    return {"kind": "form_pair", "payload": {"basis": basis, "t": eye, "w": eye}}


def functional_doc(block_dims, count):
    """A functional pair on ``block_dims`` with ``count`` 2 x 2 identity densities each."""
    eye = operator_doc(np.eye(2), np.eye(2))["payload"]["a"]
    return {"kind": "functional_pair",
            "payload": {"block_dims": block_dims, "w": [eye] * count, "v": [eye] * count}}


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


@pytest.mark.parametrize("scale", [1.0, 1e-9])
def test_check_flags_do_not_depend_on_scale(capsys, tmp_path, scale):
    # both thresholds scale with the operands, so a nonzero B at 1e-9 is not
    # singular to itself, nor absolutely continuous to an orthogonal A
    cases = [
        (np.eye(2), np.eye(2), {"singular": False, "absolutely_continuous": True}),
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
         {"singular": True, "absolutely_continuous": False}),
    ]
    for a, b, expected in cases:
        doc = operator_doc(scale * a, scale * b)
        code, report, _ = run_json(capsys, "check", write_problem(tmp_path, doc))
        assert code == 0
        assert report["result"] == expected
        a_mat, b_mat = PsdMatrix(scale * a), PsdMatrix(scale * b)
        assert report["diagnostics"]["range_threshold"] == range_threshold(b_mat)
        assert report["diagnostics"]["singularity_threshold"] == singularity_threshold(a_mat, b_mat)


def _scaled(x, scale):
    """A payload with every float (every matrix entry) times ``scale``."""
    if isinstance(x, float):
        return scale * x
    if isinstance(x, list):
        return [_scaled(y, scale) for y in x]
    if isinstance(x, dict):
        return {key: _scaled(y, scale) for key, y in x.items()}
    return x


@pytest.mark.parametrize("method", ["iterate", "ando"])
@pytest.mark.parametrize("name", ["operator_pair.json", "form_pair.json", "functional_pair.json"])
def test_decompose_steps_do_not_depend_on_scale(capsys, tmp_path, name, method):
    def steps(scale):
        doc = json.loads((DATA / name).read_text(encoding="utf-8"))
        doc["payload"] = _scaled(doc["payload"], scale)
        code, report, err = run_json(capsys, "decompose", write_problem(tmp_path, doc),
                                     "--method", method)
        assert code == 0, err
        return report["diagnostics"]["iterations"], report["diagnostics"]["converged"]

    assert steps(1e-9) == steps(1.0) == steps(1e9)


@pytest.mark.parametrize("command", ["check", "decompose"])
def test_diagnostics_stay_finite_above_the_norm_overflow(capsys, tmp_path, command):
    # ran B = ran A with ||B|| = 1e200: a norm that squares the entries
    # overflows to inf, which JSON cannot carry
    q = np.array([1.0, 2.0, 2.0]) / 3.0
    doc = operator_doc(np.outer(q, q), 1e200 * np.outer(q, q))
    code, report, err = run_json(capsys, command, write_problem(tmp_path, doc))
    assert code == 0, err
    values = [v for v in report["diagnostics"].values() if not isinstance(v, bool)]
    assert values and np.all(np.isfinite(values))


def test_form_psum_runs_one_parallel_sum(capsys, eigensolves):
    code, _, _ = run_json(capsys, "psum", str(DATA / "form_pair.json"))
    assert code == 0
    # eigh validates the two input Grams on the factorizations they keep; the
    # sum is solved in the eigenbasis of T = [[1, 1], [1, 1]], dense, with one
    # eigh for the Schur complement on its 1-dim kernel and one to clip the
    # 1-dim kept block; eigh computes the two min-eig diagnostics.
    # W = diag(1, 0) and W - T:W (T:W = 0) split into two decoupled 1-dim
    # blocks, one call each
    assert Counter((name, h.shape[0]) for name, h in eigensolves) == {
        ("eigh", 2): 2, ("eigh", 1): 6}


@pytest.mark.parametrize("args,expected", [
    (("psum",), {("eigh", 2): 5, ("eigh", 1): 8}),
    (("decompose",), {("eigh", 2): 2, ("eigh", 1): 11, ("svd", 4): 1, ("svd", 2): 1,
                      ("svd", 1): 1}),
    (("decompose", "--cross-check"), {("eigh", 2): 8, ("eigh", 1): 16, ("svd", 4): 1,
                                      ("svd", 2): 2, ("svd", 1): 1, ("qr", 5): 1,
                                      ("cholesky", 1): 1}),
], ids=["psum", "decompose", "cross-check"])
def test_functional_commands_do_not_revalidate_the_direct_sum(capsys, eigensolves, args,
                                                              expected):
    # the diagnostics run on each functional's one-copy Gram, the direct sum
    # of its densities' transposes (blocks 2 and 1), which keeps their
    # factorizations.  The four densities are validated as they are parsed, on
    # the eigh each keeps (one 2-dim call and four 1-dim ones: v's first
    # density is I_2), and the recovered parts keep the eigh of their clip, so
    # decompose's singularity norm and range leak factor neither v's Gram
    # nor sing's; psum's last two eigh per size are its min-eig diagnostics.
    # The induced forms declare two copies of the 2-dim block and one of the
    # 1-dim block, so every route runs on the 3-dim one-copy Grams, which
    # keep their densities' factorizations: no route factors a Gram.
    # parallel_sum clips its kept block once per block (2 and 1).
    # direct's only solves on them are the SVDs of the root-factor stack
    # [X Y]* (4 x 2, 1 x 1) and of V_X* (2 x 2).  ando factors B's 1-dim
    # block on ker A once, a 1 x 1 Cholesky certifies its first term's
    # Schur complement, so no term factors one, and its settle runs on the
    # 2-dim ran A: clips of the limit and of its complement under B's Schur
    # complement onto ran A.
    # iterate's congruence is one thin QR of the 5 x 3 stack [diag(lam)^(1/2),
    # F]*, and one 2 x 2 SVD factors its Q_F.
    # Revalidating a direct sum adds an eigh per block
    # of it and changes the tally
    code, _, _ = run_json(capsys, *args, str(DATA / "functional_pair.json"))
    assert code == 0
    assert Counter((name, h.shape[0]) for name, h in eigensolves) == expected


def test_check_runs_one_parallel_sum_of_the_pair(capsys, monkeypatch):
    problem = parse_problem_text((DATA / "operator_pair.json").read_text(encoding="utf-8"))
    a, b = problem.problem.a.entries, problem.problem.b.entries
    calls = []
    original = cli.parallel_sum

    def counted(x, y, *args, **kwargs):
        calls.append((x.entries, y.entries))
        return original(x, y, *args, **kwargs)

    monkeypatch.setattr(cli, "parallel_sum", counted)
    monkeypatch.setattr(lebesgue, "parallel_sum", counted)
    code, _, _ = run_json(capsys, "check", str(DATA / "operator_pair.json"))
    assert code == 0
    assert sum(np.array_equal(x, a) and np.array_equal(y, b) for x, y in calls) == 1


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


def _cell_neither_number_nor_pair(d):
    d["payload"]["a"][0][0] = "1.0"
    d["expect"] = "$.payload.a[0][0]"


def _ragged_row(d):
    d["payload"]["a"][1].pop()
    d["expect"] = "$.payload.a[1]"


def _nan_literal(d):
    # json.dumps writes these as the literals NaN and Infinity
    d["payload"]["a"][0][0] = [math.nan, 0.0]
    d["expect"] = "$"


def _infinity_literal(d):
    d["payload"]["b"][1][1] = [math.inf, 0.0]
    d["expect"] = "$"


def _top_level_array(d):
    d.update(body=[d["payload"]], expect="$")


def _tolerances_not_an_object(d):
    d.update(tolerances=[["iter_tol", 1e-9]], expect="$.tolerances")


def _payload_not_an_object(d):
    d.update(payload=[d["payload"]], expect="$.payload")


def _basis_not_all_strings(d):
    d.update(form_doc(["x", 2]), expect="$.payload.basis")


def _basis_not_matching_the_gram(d):
    d.update(form_doc(["x"]), expect="$.payload")


def _block_dims_not_positive(d):
    d.update(functional_doc([2, 0], 2), expect="$.payload.block_dims")


def _too_few_densities(d):
    d.update(functional_doc([2, 2], 1), expect="$.payload.w")


def _density_of_the_wrong_size(d):
    d.update(functional_doc([2, 3], 2), expect="$.payload.w[1]")


# Mutations that name the JSON path of the violation in "expect"; "body"
# replaces the whole document
SCHEMA_VIOLATIONS_AT_A_PATH = [
    _cell_neither_number_nor_pair, _ragged_row, _nan_literal, _infinity_literal,
    _top_level_array, _tolerances_not_an_object, _payload_not_an_object,
    _basis_not_all_strings, _basis_not_matching_the_gram, _block_dims_not_positive,
    _too_few_densities, _density_of_the_wrong_size,
]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(version="99"),
        lambda d: d.update(kind="matrix_pair"),
        lambda d: d["payload"].pop("b"),
        lambda d: d["payload"].update(b=[[[1.0, 0.0]]]),  # dimension mismatch
        lambda d: d.update(tolerances={"rank_rtol": -1.0}),
        lambda d: d.update(tolerances={"unknown_knob": 1.0}),
        lambda d: d.update(flags=["--tol-rank", "inf"]),
        lambda d: d.update(tolerances={"rank_rtol": "1e400"}),
        lambda d: d.update(tolerances={"max_iter": 2.7}),
        lambda d: d.update(tolerances={"max_iter": "1e400"}),
        lambda d: d.update(tolerances={"rank_rtol": 10**400}),
        *SCHEMA_VIOLATIONS_AT_A_PATH,
    ],
)
def test_schema_violations_exit_2(capsys, tmp_path, mutate):
    doc = operator_doc(np.eye(2), np.eye(2))
    mutate(doc)
    flags = doc.pop("flags", [])
    expect = doc.pop("expect", None)
    body = doc.pop("body", doc)
    # json.dumps writes an overflowing literal as Infinity, which the parser
    # rejects on its own, so the file carries the literal 1e400 itself
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(body).replace('"1e400"', "1e400"), encoding="utf-8")
    code, _, err = run_cli(capsys, "psum", str(path), *flags)
    assert code == 2
    error = json.loads(err)["error"]
    if expect is None:
        assert error["category"] in ("schema", "input")
    else:
        assert error["category"] == "schema"
        assert error["message"].startswith(f"{expect}: "), error["message"]


def _tolerances_message(**fields):
    with pytest.raises(ValueError) as exc:
        Tolerances(**fields)
    return str(exc.value)


@pytest.mark.parametrize("fields", [{"psd_slack": "1e-9"}, {"max_iter": 2.7}],
                         ids=["string", "fraction"])
def test_bad_tolerance_in_the_file_carries_the_library_message(capsys, tmp_path, fields):
    doc = operator_doc(np.eye(2), np.eye(2), tolerances=fields)
    code, _, err = run_cli(capsys, "psum", write_problem(tmp_path, doc))
    assert code == 2
    error = json.loads(err)["error"]
    assert error["category"] == "schema"
    assert error["message"] == f"$.tolerances: {_tolerances_message(**fields)}"


def test_bad_tolerance_reads_the_same_from_the_file_and_a_flag(capsys, tmp_path):
    # the file's tolerances and the flags take one override path, so one
    # out-of-range value gives one message, each at its own path
    expected = _tolerances_message(rank_rtol=-1.0)
    plain = write_problem(tmp_path, operator_doc(np.eye(2), np.eye(2)), "plain.json")
    overridden = write_problem(
        tmp_path, operator_doc(np.eye(2), np.eye(2), tolerances={"rank_rtol": -1.0}))
    messages = []
    for args in ([overridden], [plain, "--tol-rank", "-1"]):
        code, _, err = run_cli(capsys, "psum", *args)
        assert code == 2
        messages.append(json.loads(err)["error"]["message"])
    assert messages == [f"$.tolerances: {expected}", f"$(flags): {expected}"]


@pytest.mark.parametrize("dims", [3, None, [], [2, True], ["2"]],
                         ids=["number", "missing", "empty", "bool", "string"])
def test_bad_block_dims_carry_the_algebra_message(capsys, tmp_path, dims):
    doc = operator_doc(np.eye(2), np.eye(2))
    doc.update(functional_doc(dims, 1))
    code, _, err = run_cli(capsys, "psum", write_problem(tmp_path, doc))
    assert code == 2
    error = json.loads(err)["error"]
    assert error["category"] == "schema"
    assert error["message"].startswith("$.payload.block_dims: "), error["message"]


@pytest.mark.parametrize("cell", [10**400, [0, -(10**400)]], ids=["real", "pair"])
def test_integer_entry_too_large_for_a_float_exits_2(capsys, tmp_path, cell):
    doc = operator_doc(np.eye(2), np.eye(2))
    doc["payload"]["a"][0][0] = cell
    code, _, err = run_cli(capsys, "psum", write_problem(tmp_path, doc))
    assert code == 2
    error = json.loads(err)["error"]
    assert error["category"] == "schema"
    assert error["message"].startswith("$.payload.a[0][0]: ")


def test_non_psd_input_exits_2(capsys, tmp_path):
    doc = operator_doc(np.diag([1.0, -1.0]), np.eye(2))
    code, _, err = run_cli(capsys, "psum", write_problem(tmp_path, doc))
    assert code == 2
    assert "positive semidefinite" in json.loads(err)["error"]["message"]


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


def test_importing_the_cli_leaves_the_selftest_suite_unloaded():
    # only the selftest command imports the fixture suite
    probe = "import sys, oplebesgue.cli; print('oplebesgue.selftest' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


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
    expected = {
        f"{x}-{y}": float(np.linalg.norm(sings[x] - sings[y]))
        for x, y in (("ando", "direct"), ("ando", "iterate"), ("direct", "iterate"))
    }
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
    assert extra.pop("cross_method_discrepancies") == expected
    assert extra.pop("cross_method_max_discrepancy") == max(expected.values())
    assert extra.pop("cross_method_all_converged") is True
    assert extra == plain["diagnostics"]


def test_cli_and_selftest_load_no_package_but_numpy():
    # numpy is the only runtime dependency: importing the CLI and running every
    # bundled fixture, the variational oracle's included, loads no other
    # package outside the standard library
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import oplebesgue.cli\n"
        "from oplebesgue import selftest\n"
        "failed = [o.name for o in selftest.run_all() if not o.ok]\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "other = loaded - set(sys.stdlib_module_names) - {'numpy', 'oplebesgue'}\n"
        "print(json.dumps({'failed': failed, 'other': sorted(other)}))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"failed": [], "other": []}
