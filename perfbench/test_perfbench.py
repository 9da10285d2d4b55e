"""Quick tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checkout
import oracles
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent


# -- oracles on hand-worked 2x2 cases ----------------------------------------

def test_short_of_diagonal_pair_keeps_the_shared_axis():
    a = np.diag([2.0, 0.0])
    b = np.diag([3.0, 5.0])
    ac, sing = oracles.lebesgue_parts(a, b)
    np.testing.assert_allclose(ac, np.diag([3.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(sing, np.diag([0.0, 5.0]), atol=1e-14)


def test_rank_one_target_off_the_reference_range_is_singular():
    # ran B = span(1, 1) meets ran A = span(e0) only in 0: B11 - B12 B22^+ B21 = 1 - 1 = 0.
    a = np.diag([1.0, 0.0])
    b = np.ones((2, 2))
    ac, sing = oracles.lebesgue_parts(a, b)
    np.testing.assert_allclose(ac, np.zeros((2, 2)), atol=1e-14)
    np.testing.assert_allclose(sing, b, atol=1e-14)


def test_short_is_a_schur_complement():
    # B = [[2, 1], [1, 1]] shorted to span(e0): 2 - 1 * 1^-1 * 1 = 1.
    a = np.diag([1.0, 0.0])
    b = np.array([[2.0, 1.0], [1.0, 1.0]])
    ac, sing = oracles.lebesgue_parts(a, b)
    np.testing.assert_allclose(ac, np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(sing, np.ones((2, 2)), atol=1e-14)


def test_parallel_sum_by_hand():
    np.testing.assert_allclose(oracles.parallel_sum(np.diag([2.0, 0.0]), np.diag([3.0, 5.0])),
                               np.diag([1.2, 0.0]), atol=1e-14)
    np.testing.assert_allclose(oracles.parallel_sum(np.eye(2), np.eye(2)), np.eye(2) / 2,
                               atol=1e-14)


def test_complex_short_and_rank():
    # B = v v* with v = (1, i): its short to span(e0) vanishes, and B has rank one.
    v = np.array([1.0, 1.0j])
    b = np.outer(v, v.conj())
    ac, _ = oracles.lebesgue_parts(np.diag([1.0, 0.0]), b)
    np.testing.assert_allclose(ac, np.zeros((2, 2)), atol=1e-14)
    assert oracles.rank(b) == 1
    assert oracles.functional_value([np.diag([1.0, 2.0])], [np.array([[3.0, 7.0], [5.0, 4.0]])]) == 11


def test_tail_percentile_leaves_ten_samples_beyond():
    for q in (0.75, 0.85, 0.9):
        n = run.min_ops_for(q)
        values = list(range(n))
        assert n - 1 - run.percentile(values, q) >= run.TAIL_SAMPLES
    assert run.min_ops_for(0.75) == 40


# -- each workload, one round at a tiny length --------------------------------

@pytest.fixture(scope="module")
def ol():
    return checkout.load()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_round_is_correct_and_reaches_its_layers(ol, name, tmp_path):
    cls = workloads.WORKLOADS[name]
    checkout.load(cls.import_module)
    wl = cls(ol, 3, tmp_path / "work")
    try:
        with tracer.Tracer() as tr:
            loop = run.Loop().run(wl.inprocess_round(), 0.0, tracer=tr)
        assert loop.failures == [] and loop.problems == []
        assert tr.missing(wl.layers) == []
        assert tr.counts["eig_work"] > 0
    finally:
        wl.cleanup()


def test_cli_subprocess_round_trip_is_checked(ol, tmp_path):
    checkout.load("oplebesgue.cli")
    wl = workloads.CliSmall(ol, 3, tmp_path / "work")
    try:
        ops = wl.round()
        loop = run.Loop().run(ops[:1], 0.0)
        assert loop.failures == [] and loop.problems == []
        assert len(wl.child_rss_kib) == 1 and wl.child_rss_kib[0] > 0
    finally:
        wl.cleanup()


def test_checks_reject_swapped_parts(ol, tmp_path):
    wl = workloads.OperatorCrosscheck(ol, 3, tmp_path)
    psum, decs = wl.run(0)
    swapped = dict(decs)
    d = decs["direct"]
    swapped["direct"] = type(d)(d.sing, d.ac, d.method, d.iterations, d.residual, d.converged)
    assert wl.check(0, (psum, decs)) == []
    assert any("direct" in p for p in wl.check(0, (psum, swapped)))
    assert wl.check(0, (decs["ando"].ac, decs)) != []


def test_cli_check_rejects_a_wrong_digest(ol, tmp_path):
    checkout.load("oplebesgue.cli")
    wl = workloads.CliSmall(ol, 3, tmp_path / "work")
    try:
        text = wl.call(("psum",), "operator")
        report = json.loads(text)
        report["input_digest"] = "0" * 64
        assert wl.check(("psum",), "operator", text) == []
        assert wl.check(("psum",), "operator", json.dumps(report)) != []
    finally:
        wl.cleanup()


# -- the command as a whole ---------------------------------------------------

def test_setup_probe_reports_import_and_setup_time():
    report = run.probe("functional-blocks", 3)
    assert report["setup_s"] > report["import_s"] > 0
    assert report["modules_loaded"] > 0


def _run(workload, trace, cwd=checkout.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _declared(kind):
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(name):
    proc = _run(name, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")


def test_plain_run_prints_every_end_to_end_metric():
    proc = _run("functional-blocks", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.min_ops_for(workloads.FunctionalBlocks.tail_q)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("cli-small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
