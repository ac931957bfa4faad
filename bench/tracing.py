"""Span recording from outside the program.

A traced run rebinds each public function in TRACED with a wrapper that
records a span (name, start, end, parent span, op id). The wrapper replaces
the function in every ``bellsplit*`` module that binds it, so calls between
modules are caught too: ``bell.emax`` -> ``chsh_bruteforce`` inside bell, and
``regions`` -> ``u_eigen_closed``, which regions imports by name. Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, NamedTuple

TRACED = {
    "cli": ["main"],
    "verify": ["run_campaign", "format_report"],
    "regions": ["scan_grid", "balanced_emax", "scan_to_csv"],
    "bell": ["emax", "chsh_bruteforce", "correlation_matrix", "u_eigen_closed", "correlator_e"],
    "state": [
        "build_rho",
        "concurrence_report",
        "concurrence_closed",
        "concurrence_gamma",
        "concurrence_wootters",
        "mandel_dip",
    ],
    "decomp": ["semi_polar", "r_prime"],
    "wavepacket": ["alpha_infinite_window", "alpha_finite_window", "read_packet_csv"],
    "scattering": [
        "make_scattering",
        "gammas",
        "hybrid",
        "trace_identities",
        "polar_decompose_s",
        "canonicalize_input",
    ],
    "smallmat": ["herm_eigen", "haar_unitary", "mat_from_json"],
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
#: Typed errors counted where they are raised: (span, exception class).
RAISED = {
    "decomp.semi_polar": "DegenerateXi",
    "scattering.polar_decompose_s": "DegenerateTransmission",
    "regions.balanced_emax": "ZeroCoincidence",
}


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a root span
    op: int  # op index, -1 outside any op


class Tracer:
    """Records spans of the TRACED functions while enabled."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.raised: Counter[tuple[str, str]] = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        modules = [m for key, m in list(sys.modules.items()) if key == "bellsplit" or key.startswith("bellsplit.")]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"bellsplit.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._bindings.append((module, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        spans, stack, raised = self.spans, self._stack, self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                spans[index] = Span(name, start, perf_counter_ns(), parent, self.op)
                stack.pop()

        return traced

    def enable(self) -> None:
        """Rebind every traced name to its wrapper, in every module that binds it."""
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: index, name, start_ns, end_ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_ns,end_ns,parent,op\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.name},{s.start_ns},{s.end_ns},{s.parent},{s.op}\n")


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start_ns, s.end_ns))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start_ns
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end_ns)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end_ns - s.start_ns - covered)
    return out


def _unscaled(span: Span) -> float:
    return 1.0


def layer_metrics(
    spans: list[Span], raised: Counter, ops: int, scale: Callable[[Span], float] = _unscaled
) -> dict[str, tuple[float, str]]:
    """``<span>.calls``, ``<span>.self_ms`` and the raised counts of every traced function, per op.

    Dividing by the ``ops`` traced makes each figure the cost of one op, so it
    does not grow with the number of ops a run fits into its time budget.
    Each span's self time is multiplied by ``scale(span)``.
    """
    calls: Counter[str] = Counter()
    self_ns: Counter[str] = Counter()
    for s, own in zip(spans, self_times_ns(spans)):
        calls[s.name] += 1
        self_ns[s.name] += own * scale(s)
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / ops, "calls/op")
        metrics[f"{name}.self_ms"] = (self_ns[name] / 1e6 / ops, "ms/op")
    for name, exc in RAISED.items():
        metrics[f"{name}.raised"] = (raised.get((name, exc), 0) / ops, "count/op")
    return metrics


def durations_ms(
    spans: list[Span], name: str, ops: set[int] | None = None, scale: Callable[[Span], float] = _unscaled
) -> list[float]:
    """Duration of every call of ``name`` (optionally only inside the given ops), times ``scale(span)``."""
    return [
        (s.end_ns - s.start_ns) / 1e6 * scale(s)
        for s in spans
        if s.name == name and (ops is None or s.op in ops)
    ]
