"""bellsplit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program under test is always the
checkout's own ``src/`` tree. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
span metrics, from a run that times every op both traced and untraced. Every
op runs on inputs no earlier op of the run has seen. Exit code 0 means every
output check passed, 1 that some op failed, 2 that the checkout could not be
imported or the inputs could not be set up.
"""

from __future__ import annotations

import os

# One client and no threads: keep numpy's BLAS single-threaded in this process
# and in the set-up children. Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import hashlib
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Iterator

import numpy as np

import checks
import loader
import tracing
import workloads

ROOT = loader.ROOT
SRC = loader.SRC
OUT = Path(__file__).resolve().parent / "_out"
#: Timed set-up children per run.
SETUP_RUNS = 9
#: Tail percentile per workload, fixed so that runs stay comparable; the
#: count beyond it is printed. A 30 s run at the reference speed has about
#: 450 analyze, 350 hom-sweep, 135 scan and 170 verify ops, so each leaves
#: more than 10 ops beyond it. analyze takes p90, not p95: the oracle's cost
#: over random splitters is heavy-tailed, and with a gap floor of 1e-3 its
#: p95 moved by 31% (IQR over median) between seeds.
TAIL_PCT = {"analyze": 90.0, "hom-sweep": 95.0, "scan": 90.0, "verify": 90.0}
#: Reference speed: the calibration kernel takes CAL_REF_S, close to its
#: median time on the 2-core machine where the bounds were set (Python
#: 3.11.7, numpy 2.4.6).
CAL_REF_S = 1.0e-3
CAL_ITERS = 60
#: Calibration samples taken on each side of an op whose median gives the machine's speed during it.
CAL_WINDOW = 4
_CAL_STEP = np.array([[1, 1j, 0, 0], [1j, 1, 0, 0], [0, 0, 1, -1j], [0, 0, -1j, 1]]) / np.sqrt(2.0)
#: The re-anchor baseline table in ROADMAP.md: metric -> (row, baseline).
BASELINE_ROWS = {
    "cli.main.p50_ms": ("cli.main, in process (no import)", "analyze 0.35 s incl. ~0.2 s import"),
    "bell.emax.p50_ms": ("bell.emax, all routes", "59 ms"),
    "bell.chsh_bruteforce.p50_ms": ("chsh_bruteforce", "60 ms"),
    "bell.correlation_matrix.p50_ms": ("correlation_matrix", "0.8 ms"),
    "regions.balanced_emax.p50_us": ("scan cell (regions.balanced_emax)", "~70 us"),
    "wavepacket.alpha_tab801.p50_ms": ("alpha_*_window, 801-sample tabulated", "100-120 ms"),
    "wavepacket.alpha_gauss.p50_ms": ("alpha_*_window, Gaussian", "~1 ms"),
}


class SetupError(RuntimeError):
    """The checkout or the workload inputs could not be set up."""


def import_checkout():
    """Import bellsplit from this checkout's src/ and nowhere else."""
    if not (SRC / "bellsplit" / "__init__.py").is_file():
        raise SetupError(f"no bellsplit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bellsplit
    import bellsplit.cli  # noqa: F401  (loads every submodule the ops and the tracer reach)

    found = Path(bellsplit.__file__).resolve().parent
    if found != SRC / "bellsplit":
        raise SetupError(f"imported bellsplit from {found}, expected {SRC / 'bellsplit'}")
    return bellsplit


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout (git never looks above it)."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance(bellsplit) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bellsplit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "bellsplit_file": bellsplit.__file__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def calibration_kernel() -> str:
    """Fixed work shaped like the program's: 4x4 complex products and traces, then scalar rows as CSV text."""
    acc, m = 0j, np.eye(4, dtype=complex)
    for _ in range(CAL_ITERS):
        m = m @ _CAL_STEP
        acc += np.trace(m)
    rows = []
    for i in range(CAL_ITERS):
        a = i / CAL_ITERS
        rows.append(f"{a!r},{a * (1.0 - 0.4) / (1.0 - 0.4 * a)!r},{acc.real!r}")
    return "\n".join(rows)


class Calibration:
    """The machine's speed through a run, from the calibration kernel timed before every op.

    On a shared machine the same code runs up to ~60% slower in phases that
    last from seconds to minutes, and the kernel slows with it. Scaling an
    op's wall time by ``CAL_REF_S`` over the kernel's median time around the
    op gives its time at the reference speed, in which that drift cancels.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        calibration_kernel()  # refills the caches the previous op evicted; not timed
        start = perf_counter()
        calibration_kernel()
        self.stamps.append(start)
        self.times.append(perf_counter() - start)

    def scale(self, at: float) -> float:
        """Reference seconds per wall second for an interval that started at ``at``."""
        k = bisect.bisect(self.stamps, at)
        return CAL_REF_S / statistics.median(self.times[max(0, k - CAL_WINDOW) : k + CAL_WINDOW])


class SetupSampler:
    """Set-up time: from spawning a fresh interpreter to bellsplit imported and inputs loaded.

    Samples are spread evenly through the run and each is scaled to the
    reference speed like an op.
    """

    def __init__(self, workdir: Path, budget_s: float, cal: Calibration) -> None:
        self.workdir = workdir
        self.cal = cal
        self.period = budget_s / SETUP_RUNS
        self.due = 0.0
        self.samples: list[tuple[float, float]] = []  # (start, wall seconds)
        self.spawn()  # warms the file cache; not counted

    def spawn(self) -> tuple[float, float]:
        self.cal.sample()
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-I", str(Path(loader.__file__).resolve()), str(self.workdir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or not line.startswith("ready"):
            raise SetupError(f"set-up child failed (exit {proc.returncode}): {err.strip()[-500:]}")
        return start, elapsed

    def poll(self, elapsed_s: float) -> None:
        """Take the next sample if it is due; called between ops."""
        if len(self.samples) < SETUP_RUNS and elapsed_s >= self.due:
            self.samples.append(self.spawn())
            self.due += self.period

    def median(self) -> float:
        while len(self.samples) < SETUP_RUNS:
            self.samples.append(self.spawn())
        return statistics.median(wall * self.cal.scale(start) for start, wall in self.samples)


class LayerExtras:
    """Figures read from the outputs of a traced run: oracle gap, verify check count, VW band excess."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.gap_max = -math.inf
        self.verify_checks = 0
        self.verify_items = 0
        self.band_excess = 0.0

    def observe(self, op: workloads.Op, out: object) -> None:
        if self.workload == "analyze":
            bell = json.loads(out[1])["bell"]
            self.gap_max = max(self.gap_max, bell["emax_horodecki"] - bell["emax_bruteforce"])
        elif self.workload == "verify":
            rows = checks.parse_verify(out[1])
            self.gap_max = max(self.gap_max, rows["bruteforce_gap"][1])
            self.verify_checks += sum(row[0] for row in rows.values())
            self.verify_items += op.items
        elif self.workload == "scan":
            self.band_excess = max(self.band_excess, checks.scan_band_excess(out[1]))


class Run:
    """What a run measured: each untraced op's start and wall time, and the failures."""

    def __init__(self) -> None:
        self.ops: list[tuple[float, float, int]] = []  # (start, wall seconds, items)
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, i: int, op: workloads.Op, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(f"op {i} ({op.label}): {p}" for p in problems[:5])


def _timed(op: workloads.Op) -> tuple[object, list[str] | None, float, float]:
    start = perf_counter()
    try:
        out, problems = op.run(), None
    except Exception as exc:  # the op boundary: record, count, keep going
        out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
    return out, problems, start, perf_counter() - start


def measure(
    ops: Iterator[workloads.Op],
    budget_s: float,
    cal: Calibration,
    tracer: tracing.Tracer | None = None,
    setup: SetupSampler | None = None,
    extras: LayerExtras | None = None,
) -> Run:
    """Run ops, each on fresh inputs, until ``budget_s`` has passed (at least one op).

    With a tracer each op runs twice in a row, once traced, in alternating
    order, and both runs must give the same output. An op fails if it
    raises, exits with an unexpected code or fails a check.
    """
    res = Run()
    start = perf_counter()
    for i, op in enumerate(ops):
        if setup is not None:
            setup.poll(perf_counter() - start)
        cal.sample()
        modes = (False,) if tracer is None else ((False, True) if i % 2 else (True, False))
        first = None
        for traced in modes:
            if traced:
                tracer.op = i
                tracer.enable()
            try:
                out, problems, t0, wall = _timed(op)
            finally:
                if traced:
                    tracer.disable()
                    tracer.op = -1
            if traced:
                res.traced_s += wall
            else:
                res.untraced_s += wall
                res.ops.append((t0, wall, op.items))
            if problems is None:
                if first is None:
                    first, problems = out, op.check(out)
                    if extras is not None and not problems:
                        extras.observe(op, out)
                else:
                    problems = [] if out == first else ["traced and untraced runs differ"]
            res.record(i, op, problems)
        if perf_counter() - start >= budget_s:
            return res
    return res


def tail(values: list[float], pct: float) -> tuple[float, int]:
    """(value, samples beyond) of the ``pct`` percentile, nearest rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload: str, res: Run, cal: Calibration, setup_s: float) -> dict[str, tuple[float, str]]:
    wall_ms = [wall * 1e3 for _, wall, _ in res.ops]
    latency_ms = [wall * cal.scale(t0) * 1e3 for t0, wall, _ in res.ops]
    items = sum(n for _, _, n in res.ops)
    pct = TAIL_PCT[workload]
    tail_ms, beyond = tail(latency_ms, pct)
    print(f"latency_tail_ms is p{pct:g} of {len(latency_ms)} ops ({beyond} beyond it)"
          + ("" if beyond >= 10 else "; fewer than 10 beyond it: too few ops for this percentile"))
    print(f"times are at the reference speed; unscaled: p50 {statistics.median(wall_ms):.4g} ms, "
          f"p{pct:g} {tail(wall_ms, pct)[0]:.4g} ms; machine speed (reference/actual) "
          f"median {statistics.median(CAL_REF_S / t for t in cal.times):.3f} over {len(cal.times)} samples")
    print(f"fail_ratio = {res.failed}/{res.attempted} = {res.failed / res.attempted:.6g}")
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items / (sum(latency_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(latency_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "ok_ratio": (1.0 - res.failed / res.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(
    res: Run, tracer: tracing.Tracer, cal: Calibration, extras: LayerExtras, labels: dict[int, str]
) -> dict[str, tuple[float, str]]:
    spans = tracer.spans
    op_scale: dict[int, float] = {}

    def scale(span: tracing.Span) -> float:
        """Reference-speed factor of the span's op (of the first span outside any op for the rest)."""
        if span.op not in op_scale:
            op_scale[span.op] = cal.scale(span.start_ns / 1e9)
        return op_scale[span.op]

    metrics = tracing.layer_metrics(spans, tracer.raised, len(res.ops), scale)
    metrics["bell.chsh_bruteforce.gap_max"] = (extras.gap_max if extras.gap_max > -math.inf else 0.0, "chsh")
    metrics["verify.checks"] = (extras.verify_checks / extras.verify_items if extras.verify_items else 0.0, "count/item")
    metrics["regions.scan_grid.band_excess_max"] = (extras.band_excess, "chsh")
    metrics["trace_overhead_ratio"] = (res.traced_s / res.untraced_s, "ratio")
    alpha = ("wavepacket.alpha_infinite_window", "wavepacket.alpha_finite_window")
    per_call = {f"{name}.p50_ms": ([name], None, 1.0)
                for name in ("cli.main", "bell.emax", "bell.chsh_bruteforce", "bell.correlation_matrix")}
    per_call["regions.balanced_emax.p50_us"] = (["regions.balanced_emax"], None, 1e3)
    for kind in ("tab801", "gauss"):
        per_call[f"wavepacket.alpha_{kind}.p50_ms"] = (alpha, {i for i, label in labels.items() if label == kind}, 1.0)
    wall = {}
    for key, (names, ops, factor) in per_call.items():
        unit = key.rsplit("_", 1)[1]
        scaled = [d * factor for name in names for d in tracing.durations_ms(spans, name, ops, scale)]
        wall[key] = _median_or_zero([d * factor for name in names for d in tracing.durations_ms(spans, name, ops)])
        metrics[key] = (_median_or_zero(scaled), unit)
    print("per-call medians beside the ROADMAP baseline table (traced, wrapper cost included; "
          "at the reference speed, wall time as measured in brackets):")
    for key, (row, baseline) in BASELINE_ROWS.items():
        value, unit = metrics[key]
        shown = f"{value:.4g} {unit} ({wall[key]:.4g} {unit})" if value else "not run by this workload"
        print(f"  {row:<40s} baseline {baseline:<36s} this run {shown}")
    return metrics


def _ops(workload: str, stream, bs, labels: dict[int, str], tracer: tracing.Tracer | None) -> Iterator[workloads.Op]:
    """The ops of each batch in turn, its inputs loaded through bellsplit's loaders (traced if tracing)."""
    for batch_dir, specs in stream:
        if tracer is not None:
            tracer.enable()
        try:
            loaded = loader.load_inputs(batch_dir)
        finally:
            if tracer is not None:
                tracer.disable()
        for op in workloads.bind(workload, specs, bs, loaded):
            labels[len(labels)] = op.label
            yield op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bellsplit = import_checkout()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prov = provenance(bellsplit)
    print("provenance: " + json.dumps(prov, sort_keys=True))

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    labels: dict[int, str] = {}
    cal = Calibration()
    try:
        stream = workloads.batches(args.workload, args.seed, workdir)
        first = next(stream)
        stream = itertools.chain([first], stream)
        if args.trace:
            tracer = tracing.Tracer()
            extras = LayerExtras(args.workload)
            ops = _ops(args.workload, stream, bellsplit, labels, tracer)
            res = measure(ops, args.seconds, cal, tracer=tracer, extras=extras)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write(spans_path)
            print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
            metrics = per_layer(res, tracer, cal, extras, labels)
        else:
            setup = SetupSampler(first[0], args.seconds, cal)
            res = measure(_ops(args.workload, stream, bellsplit, labels, None), args.seconds, cal, setup=setup)
            metrics = end_to_end(args.workload, res, cal, setup.median())
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in res.messages[:50]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} ops={len(res.ops)}")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if res.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
