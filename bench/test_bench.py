"""Tests of the benchmark's own logic: span self time, output checks, tracing, set-up.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import loader

sys.path.insert(0, str(loader.SRC))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bellsplit import bell, cli, regions, scattering  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("a", 10, 30, 0, 0),
        Span("b", 20, 50, 0, 0),  # overlaps a: the union [10, 50] counts once
        Span("c", 90, 120, 0, 0),  # runs past its parent: only [90, 100] is covered
        Span("grandchild", 12, 28, 1, 0),  # covers part of a, not of root directly
        Span("other_root", 200, 260, -1, 1),
    ]
    assert tracing.self_times_ns(spans) == [50, 4, 30, 30, 16, 60]


def test_layer_metrics_sum_self_time_per_name_per_op():
    spans = [
        Span("bell.emax", 0, 1_000_000, -1, 0),
        Span("bell.chsh_bruteforce", 100_000, 900_000, 0, 0),
        Span("bell.emax", 2_000_000, 2_500_000, -1, 1),
    ]
    m = tracing.layer_metrics(spans, {("decomp.semi_polar", "DegenerateXi"): 3}, ops=2)
    assert m["bell.emax.calls"] == (1.0, "calls/op")
    assert m["bell.emax.self_ms"] == pytest.approx((0.35, "ms/op"))
    assert m["bell.chsh_bruteforce.self_ms"] == pytest.approx((0.4, "ms/op"))
    assert m["decomp.semi_polar.raised"] == (1.5, "count/op")
    assert m["state.build_rho.calls"] == (0.0, "calls/op")


def test_layer_metrics_do_not_grow_with_the_number_of_ops():
    one_op = [Span("bell.emax", 0, 1_000_000, -1, 0), Span("bell.correlator_e", 10, 20, 0, 0)]
    shift = 5_000_000
    two_ops = one_op + [Span(s.name, s.start_ns + shift, s.end_ns + shift, s.parent + 2 if s.parent >= 0 else -1, 1)
                        for s in one_op]
    assert tracing.layer_metrics(one_op, {}, ops=1) == tracing.layer_metrics(two_ops, {}, ops=2)


def test_calibration_scales_by_the_kernel_time_around_the_op():
    cal = run.Calibration()
    cal.stamps = [float(t) for t in range(20)]
    cal.times = [run.CAL_REF_S] * 10 + [2.0 * run.CAL_REF_S] * 10  # the machine halves its speed at t = 10
    assert cal.scale(2.5) == 1.0
    assert cal.scale(16.5) == 0.5


def test_tracer_catches_internal_calls_and_restores_bindings():
    original = bell.u_eigen_closed
    tracer = tracing.Tracer()
    tracer.enable()
    try:
        bell.emax(scattering.hybrid(scattering.preset("balanced_pc")), 0.5)
        regions.balanced_emax(regions.BalancedPoint(0.5, 0.1))
    finally:
        tracer.disable()
    assert bell.u_eigen_closed is original and regions.u_eigen_closed is original
    names = [s.name for s in tracer.spans]
    parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent >= 0}
    assert parents["bell.chsh_bruteforce"] == "bell.emax"
    assert names.count("bell.u_eigen_closed") == 2  # once from emax, once from regions
    assert tracer.spans[-1].name == "bell.u_eigen_closed"
    assert tracer.spans[tracer.spans[-1].parent].name == "regions.balanced_emax"


def test_tail_percentile_counts_the_samples_beyond():
    assert run.tail([float(x) for x in range(100)], 90.0) == (89.0, 10)
    assert run.tail([float(x) for x in range(40)], 75.0) == (29.0, 10)
    assert run.tail([3.0], 95.0) == (3.0, 0)


def _cli(argv):
    return workloads.call_cli(cli, argv)


@pytest.fixture(scope="module")
def analyze_case():
    rc, text = _cli(["analyze", "--preset", "balanced_mixing(0.7)", "--alpha-sq", "0.6"])
    meta = {
        "statistics": "bosonic",
        "s": workloads.ref.preset_matrix("balanced_mixing", 0.7),
        "source": "direct",
        "alpha_sq": 0.6,
        "balanced": True,
    }
    return rc, text, meta


def test_analyze_check_passes_real_output(analyze_case):
    assert checks.check_analyze(*analyze_case) == []


@pytest.mark.parametrize(
    "path, value",
    [
        (("concurrence", "wootters"), 0.5),
        (("concurrence", "closed"), 0.3),
        (("bell", "emax_bruteforce"), 2.0),
        (("bell", "emax_closed"), 2.9),
        (("alpha", "alpha_sq"), 0.61),
        (("statistics",), "fermionic"),
    ],
)
def test_analyze_check_flags_corruption(analyze_case, path, value):
    rc, text, meta = analyze_case
    rep = json.loads(text)
    node = rep
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert checks.check_analyze(rc, json.dumps(rep), meta)
    assert checks.check_analyze(rc, text[:-20], meta)
    assert checks.check_analyze(3, text, meta)


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_scan_check_passes_real_output(statistics):
    rc, text = _cli(["scan", "--grid", "9x13", "--statistics", statistics])
    assert checks.check_scan(rc, text, 9, 13, statistics) == []


def test_scan_check_flags_corrupted_rows():
    rc, text = _cli(["scan", "--grid", "9x13", "--statistics", "bosonic"])
    lines = text.splitlines()

    def with_row(i, row):
        return "\n".join(lines[:i] + [row] + lines[i + 1 :]) + "\n"

    fields = lines[40].split(",")
    wrong_c = ",".join(fields[:2] + [repr(float(fields[2]) + 1e-6)] + fields[3:])
    wrong_region = ",".join(fields[:5] + ["unentangled" if fields[5] != "unentangled" else "violating"])
    swapped = "\n".join(lines[:40] + [lines[41], lines[40]] + lines[42:]) + "\n"
    for corrupted in (with_row(40, wrong_c), with_row(40, wrong_region), swapped, text.replace(lines[0], "a,b")):
        assert checks.check_scan(rc, corrupted, 9, 13, "bosonic")
    assert checks.check_scan(rc, "\n".join(lines[:-1]) + "\n", 9, 13, "bosonic")


def test_verify_check_flags_fail_report():
    rc, text = _cli(["verify", "--count", "1", "--seed", "5"])
    assert checks.check_verify(rc, text, 1) == []
    failing = text.replace("overall: PASS", "overall: FAIL").replace("    pass", "    FAIL", 1)
    assert checks.check_verify(1, failing, 1)
    assert checks.check_verify(0, text.replace("    pass", "    FAIL", 1), 1)
    assert checks.check_verify(rc, text, 2)  # check counts must match the instance count


def test_hom_check_flags_wrong_alpha():
    gram = np.array([[0.4, 0.1], [0.1, 0.6]], dtype=complex)
    meta = {"kind": "tab201", "window": "inf", "sigma": 1.0, "delay": 1.0, "tau": 2.0, "gram": gram}
    a = np.exp(-1.0)
    c, e_u = 0.3, (0.5, 0.2, 0.1)
    assert checks.check_hom((a, c, e_u, -2.0 * a * 0.01), meta) == []
    assert checks.check_hom((a + 1e-3, c, e_u, -2.0 * (a + 1e-3) * 0.01), meta)
    assert checks.check_hom((a, c, e_u, 0.0), meta)
    assert checks.check_hom((1.2, c, e_u, -2.4 * 0.01), meta)


def _argv_of_batches(workload, seed, workdir, n=2):
    stream = workloads.batches(workload, seed, workdir)
    return [[spec["argv"] for spec in next(stream)[1]] for _ in range(n)]


def test_generation_is_deterministic_and_never_repeats_an_input(tmp_path):
    for workload in ("scan", "verify"):
        first = _argv_of_batches(workload, 7, tmp_path / workload / "a")
        assert first == _argv_of_batches(workload, 7, tmp_path / workload / "b")
        assert first != _argv_of_batches(workload, 8, tmp_path / workload / "c")
    verify_argv = [argv for batch in first for argv in batch]
    assert len({tuple(argv) for argv in verify_argv}) == len(verify_argv)


def test_run_fails_fast_without_the_program(tmp_path):
    shutil.copytree(loader.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(loader.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert '"metrics"' not in proc.stdout
