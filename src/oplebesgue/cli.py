"""Command line front end: JSON problems in, machine-readable reports out.

Exit codes: 0 success, 1 selftest failure, 2 input or schema error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .core import DEFAULT_TOL, PsdMatrix, Tolerances, _eigh, _frobenius
from .forms import SesquilinearForm, form_decompose, form_parallel_sum
from .functionals import Functional, functional_decompose, functional_parallel_sum, induced_form
from .lebesgue import (
    Method,
    arlinskii_step,
    auxiliary_space,
    decompose,
    range_leak,
    range_threshold,
    singularity_threshold,
)
from .parallel import parallel_sum
from .serialize import (
    FormPairProblem,
    OperatorPairProblem,
    ProblemFile,
    Report,
    SchemaError,
    matrix_to_json,
    parse_problem_text,
    render_report,
)

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-rank", type=float, metavar="X",
                        help="override the relative rank cutoff")
    common.add_argument("--iter-tol", type=float, metavar="X",
                        help="override the iteration stopping tolerance")
    common.add_argument("--max-iter", type=int, metavar="N",
                        help="override the iteration cap")
    common.add_argument("--output", metavar="PATH",
                        help="write the JSON report to PATH")
    common.add_argument("--json", action="store_true",
                        help="print the full JSON report to stdout")

    parser = argparse.ArgumentParser(
        prog="oplebesgue",
        description="Parallel sums and Lebesgue decompositions of PSD operators, "
        "forms, and functionals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psum", parents=[common], help="parallel sum of the pair")
    p.add_argument("file", help="problem file (JSON)")

    p = sub.add_parser("decompose", parents=[common],
                       help="Lebesgue decomposition of the pair")
    p.add_argument("file", help="problem file (JSON)")
    p.add_argument("--method", choices=[m.value for m in Method], default="direct")
    p.add_argument("--cross-check", action="store_true",
                   help="run all three methods and report their max discrepancy")

    p = sub.add_parser("check", parents=[common],
                       help="absolute-continuity and singularity predicates")
    p.add_argument("file", help="problem file (JSON)")

    sub.add_parser("selftest", parents=[common], help="run the bundled fixture suite")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "selftest":
            report, code = _cmd_selftest(args)
        else:
            problem, tol, digest = _load_problem(args)
            runner = {"psum": _cmd_psum, "decompose": _cmd_decompose, "check": _cmd_check}
            report, code = runner[args.command](args, problem, tol, digest)
        report = dataclasses.replace(report, wall_time_ms=(time.perf_counter() - started) * 1000.0)
        _emit_report(report, args)
    except SchemaError as exc:
        return _emit_error(EXIT_INPUT, "schema", exc)
    except OSError as exc:
        return _emit_error(EXIT_INPUT, "input", exc)
    except Exception as exc:
        return _emit_error(EXIT_NUMERICAL, "numerical", exc)
    return code


def entry_point():
    raise SystemExit(main())


def _emit_error(code: int, category: str, exc: Exception) -> int:
    body = {"error": {"exit_code": code, "category": category,
                      "type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(body, sort_keys=True), file=sys.stderr)
    return code


def _emit_report(report: Report, args) -> None:
    rendered = render_report(report)
    if getattr(args, "output", None):
        Path(args.output).write_text(rendered, encoding="utf-8")
    if getattr(args, "json", False):
        sys.stdout.write(rendered)
        return
    header = report.command if report.method is None else f"{report.command} ({report.method})"
    print(header if report.kind is None else f"{header} on {report.kind}")
    for key in sorted(report.diagnostics):
        print(f"  {key}: {report.diagnostics[key]}")


def _cli_tolerances(args, base: Tolerances) -> Tolerances:
    updates = {}
    if args.tol_rank is not None:
        updates["rank_rtol"] = args.tol_rank
    if args.iter_tol is not None:
        updates["iter_tol"] = args.iter_tol
    if args.max_iter is not None:
        updates["max_iter"] = args.max_iter
    if not updates:
        return base
    try:
        return dataclasses.replace(base, **updates)
    except ValueError as exc:
        raise SchemaError(str(exc), "$(flags)") from exc


def _load_problem(args) -> tuple[ProblemFile, Tolerances, str]:
    raw = Path(args.file).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input is not UTF-8: {exc}") from exc
    problem = parse_problem_text(text)
    return problem, _cli_tolerances(args, problem.tolerances), digest


def _kind_calls(p):
    """Reference and target of the problem's kind, its basis fields, and its
    parallel sum and decomposition, called in the kind's own argument order."""
    if isinstance(p, OperatorPairProblem):
        return (p.a, p.b, {},
                lambda tol: parallel_sum(p.a, p.b, tol),
                lambda method, tol: decompose(p.a, p.b, method, tol))
    if isinstance(p, FormPairProblem):
        return (p.w, p.t, {"basis": list(p.t.basis_labels)},
                lambda tol: form_parallel_sum(p.t, p.w, tol),
                lambda method, tol: form_decompose(p.t, p.w, method, tol))
    return (p.v, p.w, {"block_dims": list(p.algebra.block_dims)},
            lambda tol: functional_parallel_sum(p.w, p.v, tol),
            lambda method, tol: functional_decompose(p.w, p.v, method, tol))


def _as_matrix(x) -> PsdMatrix:
    """The matrix backing the diagnostics: an operator itself, a form's Gram,
    or the one-copy Gram of a functional's induced form, the direct sum of
    its densities' transposes that the routes solve."""
    if isinstance(x, PsdMatrix):
        return x
    if isinstance(x, SesquilinearForm):
        return x.gram
    return induced_form(x).copy_gram


def _to_json(x):
    if isinstance(x, Functional):
        return [matrix_to_json(rho.entries) for rho in x.densities]
    return matrix_to_json(_as_matrix(x).entries)


def _min_eig(diff: np.ndarray) -> float:
    return float(_eigh(diff)[0][-1]) if diff.shape[0] else 0.0


def _cmd_psum(args, problem, tol, digest):
    reference, target, fields, psum, _ = _kind_calls(problem.problem)
    summed = psum(tol)
    a_mat, b_mat, summed_mat = _as_matrix(reference), _as_matrix(target), _as_matrix(summed)
    result = {**fields, "parallel_sum": _to_json(summed)}
    diagnostics = {
        "singularity_norm": summed_mat.norm,
        "min_eig_first_minus_sum": _min_eig(a_mat.entries - summed_mat.entries),
        "min_eig_second_minus_sum": _min_eig(b_mat.entries - summed_mat.entries),
    }
    report = Report("psum", digest, problem.kind, None, result, diagnostics, 0.0)
    return report, EXIT_OK


def _decomposition_views(problem, tol, method):
    """Run the decomposition for the problem's kind.

    Returns the result payload, matrix-level (ac, sing) for diagnostics, and
    the decomposition itself for its metadata.
    """
    _, _, fields, _, decompose_kind = _kind_calls(problem.problem)
    dec = decompose_kind(method, tol)
    result = {**fields, "ac": _to_json(dec.ac), "sing": _to_json(dec.sing)}
    return result, _as_matrix(dec.ac), _as_matrix(dec.sing), dec


def _cmd_decompose(args, problem, tol, digest):
    reference, target, *_ = _kind_calls(problem.problem)
    a_mat, b_mat = _as_matrix(reference), _as_matrix(target)
    result, ac_mat, sing_mat, meta = _decomposition_views(problem, tol, args.method)
    diagnostics = {
        "sum_residual": _frobenius(b_mat.entries - ac_mat.entries - sing_mat.entries),
        "singularity_norm": parallel_sum(a_mat, sing_mat, tol).norm,
        "range_leak": range_leak(ac_mat, a_mat, tol),
        "iterations": meta.iterations,
        "stopping_residual": meta.residual,
        "converged": meta.converged,
    }
    if args.cross_check:
        sings = {args.method: sing_mat.entries}
        flags = [meta.converged]
        for name in (m.value for m in Method if m.value != args.method):
            _, _, other_sing, other_meta = _decomposition_views(problem, tol, name)
            sings[name] = other_sing.entries
            flags.append(other_meta.converged)
        names = sorted(sings)
        pairs = {
            f"{x}-{y}": _frobenius(sings[x] - sings[y])
            for i, x in enumerate(names)
            for y in names[i + 1 :]
        }
        diagnostics["cross_method_discrepancies"] = pairs
        diagnostics["cross_method_max_discrepancy"] = max(pairs.values())
        diagnostics["cross_method_all_converged"] = all(flags)
    report = Report("decompose", digest, problem.kind, args.method, result, diagnostics, 0.0)
    return report, EXIT_OK


def _cmd_check(args, problem, tol, digest):
    reference, target, *_ = _kind_calls(problem.problem)
    a_mat, b_mat = _as_matrix(reference), _as_matrix(target)
    range_residual = range_leak(b_mat, a_mat, tol)
    summed = parallel_sum(a_mat, b_mat, tol)
    aux = auxiliary_space(a_mat, b_mat, tol)
    j = aux.embed
    factored = j @ parallel_sum(aux.a_tilde, aux.b_tilde, tol).entries @ j.conj().T
    recursion_residual = 0.0
    if aux.rank:
        eye = np.eye(aux.rank)
        current = aux.b_tilde
        for _ in range(3):
            nxt = arlinskii_step(current, aux.a_tilde, tol)
            predicted = np.linalg.solve(
                eye - aux.b_tilde.entries + current.entries,
                current.entries @ current.entries,
            )
            recursion_residual = max(recursion_residual, _frobenius(nxt.entries - predicted))
            current = nxt
    range_bound = range_threshold(b_mat, tol)
    singularity_bound = singularity_threshold(a_mat, b_mat)
    result = {
        "absolutely_continuous": range_residual <= range_bound,
        "singular": summed.norm <= singularity_bound,
    }
    diagnostics = {
        "range_residual": range_residual,
        "range_threshold": range_bound,
        "parallel_norm": summed.norm,
        "singularity_threshold": singularity_bound,
        "factored_parallel_sum_residual": _frobenius(factored - summed.entries),
        "contraction_recursion_residual": recursion_residual,
    }
    report = Report("check", digest, problem.kind, None, result, diagnostics, 0.0)
    return report, EXIT_OK


def _cmd_selftest(args):
    # imported here, so that no other command loads the fixture suite
    from . import selftest as selftest_suite

    raw = selftest_suite.fixtures_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    tol = _cli_tolerances(args, DEFAULT_TOL)
    outcomes = selftest_suite.run_all(tol)
    failures = [o for o in outcomes if not o.ok]
    result = {
        "total": len(outcomes),
        "passed": len(outcomes) - len(failures),
        "failed": len(failures),
        "failures": [{"name": o.name, "detail": o.detail} for o in failures],
    }
    diagnostics = {"all_passed": not failures}
    report = Report("selftest", digest, None, None, result, diagnostics, 0.0)
    return report, EXIT_OK if not failures else EXIT_SELFTEST_FAILED
