"""The library names and call shapes that the benchmark in ``bench/`` relies on.

``bench/`` lies outside ``testpaths``, and its tracer stops a traced run at
once when a name it wraps is gone. This guard loads ``bench/tracing.py`` by
path, unchanged, so a renamed function or a changed signature fails here.
"""

import importlib.util
from pathlib import Path

import pytest

from bellsplit import bell, cli, regions, scattering, verify  # noqa: F401  (the tracer wraps names in each)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_bench_call_shapes_run_under_the_tracer():
    if not TRACING.exists():
        pytest.skip("bench/ is not in this checkout")
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # Tracer() looks up every TRACED name and raises on a missing one.
    original = bell.correlation_matrix
    tracer = tracing.Tracer()
    tracer.enable()
    try:
        bell.emax(scattering.hybrid(scattering.preset("balanced_pc")), 0.5)
        regions.balanced_emax(regions.BalancedPoint(0.5, 0.1))
    finally:
        tracer.disable()
    assert bell.correlation_matrix is original
    names = [s.name for s in tracer.spans]
    assert names.count("bell.emax") == 1
    assert names.count("bell.correlation_matrix") == 1
    assert names.count("bell.u_eigen_closed") == 2
    assert names.count("regions.balanced_emax") == 1
