"""Output checks. Each returns a list of failure messages; an empty list passes.

The checks recompute what they can with the benchmark's own reference
physics (bench/reference.py) instead of trusting the program's routes to
check themselves.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

#: Suite name -> checks per Haar instance in ``bellsplit verify`` (no degenerate instance).
VERIFY_SUITES = {
    "trace_identities": 4,
    "tilde_orthogonality": 3,
    "concurrence_wootters": 6,
    "concurrence_gamma": 6,
    "state_positivity": 12,
    "mandel_identity": 6,
    "bell_spectrum": 12,
    "horodecki_vs_closed": 6,
    "gisin_pure": 1,
    "polar_roundtrip": 1,
    "semi_polar": 5,
    "canonicalize": 1,
    "bruteforce_gap": 1,
    "bruteforce_excess": 1,
}
SCAN_HEADER = "alpha_sq,hv_sq,concurrence,emax,branch,region"
#: Cells this close to the f or g curve are tagged by the program, not classified.
BOUNDARY_BAND = 1e-6


def _over(fails: list[str], what: str, dev: float, tol: float) -> None:
    if not dev <= tol:  # also catches NaN
        fails.append(f"{what}: deviation {dev:.3e} exceeds {tol:.1e}")


def alpha_tolerance(kind: str, window: str) -> float:
    """How far a computed |alpha|^2 may sit from the analytic Gaussian value.

    Gaussian packets are integrated to the quadrature tolerance. A tabulated
    copy in the infinite window adds linear-interpolation error, measured at
    1.96e-4 for 201 samples on +-8 sigma and falling as the spacing squared;
    the bound is twice that. In a finite window the tabulated packet enters
    through its Simpson time transform, accurate to about 2.3e-9.
    """
    if kind == "gauss":
        return 1e-9
    if window == "fin":
        return 1e-8
    samples = int(kind.removeprefix("tab"))
    return 4e-4 * (200.0 / (samples - 1)) ** 2


def check_analyze(rc: int, text: str, meta: dict) -> list[str]:
    """``bellsplit analyze`` JSON against the route gates, the VW band and the reference."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    try:
        rep = json.loads(text)
        conc, bell, alpha = rep["concurrence"], rep["bell"], rep["alpha"]
        c, e, a = float(conc["closed"]), float(bell["emax_closed"]), float(alpha["alpha_sq"])
        gram_obj = rep["hybrid_gram"]
        gram = (np.array(gram_obj["re"]) + 1j * np.array(gram_obj["im"])).reshape(2, 2)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed analyze JSON: {exc!r}"]
    fails: list[str] = []
    if rep.get("statistics") != meta["statistics"]:
        fails.append(f"statistics {rep.get('statistics')!r}, expected {meta['statistics']!r}")
    _over(fails, "C closed vs Wootters", abs(c - conc["wootters"]), 1e-8)
    _over(fails, "C closed vs gamma form", abs(c - conc["gamma_form"]), 1e-10)
    _over(fails, "E_max closed vs Horodecki", abs(e - bell["emax_horodecki"]), 1e-8)
    _over(fails, "brute-force gap", bell["emax_horodecki"] - bell["emax_bruteforce"], 1e-4)
    _over(fails, "brute-force excess", bell["emax_bruteforce"] - bell["emax_horodecki"], 1e-6)
    if not ref.vw_band(c, e, 1e-8):
        fails.append(f"Verstraete-Wolf band violated: C={c!r}, E_max={e!r}")
    _over(fails, "E_max vs reference Horodecki", abs(e - ref.emax_horodecki(meta["s"], a, meta["statistics"])), 1e-8)
    _over(fails, "hybrid Gram vs reference", float(np.abs(gram - ref.hybrid_gram(meta["s"])).max()), 1e-12)
    if meta["source"] == "direct":
        _over(fails, "alpha_sq vs configured", abs(a - meta["alpha_sq"]), 0.0)
    else:
        window = meta.get("window")
        expected = ref.gaussian_alpha_sq(meta["sigma"], meta["delay"], window)
        _over(fails, "alpha_sq vs analytic Gaussian", abs(a - expected), 1e-9)
    if meta["balanced"]:
        _over(fails, "balanced Gram diagonal", float(abs(gram[0, 0] - 0.5) + abs(gram[1, 1] - 0.5)), 1e-12)
        slice_c = ref.slice_concurrence(a, abs(gram[0, 1]) ** 2, meta["statistics"])
        _over(fails, "C vs slice formula", abs(c - slice_c), 1e-10)
    return fails


def check_scan(rc: int, text: str, n_alpha: int, n_hv: int, statistics: str) -> list[str]:
    """``bellsplit scan`` CSV: shape, grid order, slice formula, region and branch labels."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    lines = text.splitlines()
    if not lines or lines[0] != SCAN_HEADER:
        return [f"bad scan header {lines[:1]!r}"]
    if len(lines) != 1 + n_alpha * n_hv:
        return [f"{len(lines) - 1} scan rows, expected {n_alpha * n_hv}"]
    grid = [(float(a), float(h)) for a in np.linspace(0.0, 1.0, n_alpha) for h in np.linspace(0.0, 0.25, n_hv)]
    fails: list[str] = []
    for lineno, (line, (a, h)) in enumerate(zip(lines[1:], grid), start=2):
        row_fails = _check_scan_row(line, a, h, statistics)
        fails.extend(f"row {lineno}: {msg}" for msg in row_fails)
        if len(fails) > 20:
            break
    return fails


def _check_scan_row(line: str, a: float, h: float, statistics: str) -> list[str]:
    parts = line.split(",")
    if len(parts) != 6:
        return [f"expected 6 fields, got {line!r}"]
    try:
        ra, rh, c, e = (float(x) for x in parts[:4])
    except ValueError:
        return [f"non-numeric field in {line!r}"]
    branch, region = parts[4], parts[5]
    if (ra, rh) != (a, h):
        return [f"grid point ({ra!r}, {rh!r}) out of lexicographic order, expected ({a!r}, {h!r})"]
    empty = statistics == "bosonic" and 1.0 - 4.0 * a * h <= 1e-14
    if empty or region == "zero_coincidence":
        if not (empty and region == "zero_coincidence" and branch == "none" and math.isnan(c) and math.isnan(e)):
            return [f"zero-coincidence tagging mismatch at ({a!r}, {h!r}): {line!r}"]
        return []
    fails: list[str] = []
    tol = 1e-12 if statistics == "bosonic" else 1e-10
    _over(fails, "C vs slice formula", abs(c - ref.slice_concurrence(a, h, statistics)), tol)
    if region != "boundary_g":
        expected = "violating" if e > 2.0 + 1e-12 else ("unentangled" if c <= 1e-12 else "entangled_nonviolating")
        if region != expected:
            fails.append(f"region {region!r} disagrees with E_max={e!r}, C={c!r}")
    if statistics == "bosonic":
        g, f = ref.g_boundary(a), ref.f_boundary(a)
        if region != "boundary_g" and abs(h - g) >= BOUNDARY_BAND and (region == "violating") != (h < g):
            fails.append(f"region {region!r} on the wrong side of the g curve (g={g!r})")
        if (region == "boundary_g") != (abs(h - g) < BOUNDARY_BAND):
            fails.append(f"boundary_g tag mismatch (g={g!r})")
        if (branch == "boundary_f") != (abs(h - f) < BOUNDARY_BAND):
            fails.append(f"boundary_f tag mismatch (f={f!r})")
        elif branch != "boundary_f" and 0.0 < a < 1.0 and 0.0 < h < 0.25 and (branch == "u3_active") != (h <= f):
            # On the edges of the slice u2 and u3 tie and either label is valid.
            fails.append(f"branch {branch!r} on the wrong side of the f curve (f={f!r})")
    return fails


def scan_band_excess(text: str) -> float:
    """Largest E_max - 2 sqrt(1 + C^2) over the rows of a scan CSV (0 when the VW band holds)."""
    worst = 0.0
    for line in text.splitlines()[1:]:
        parts = line.split(",")
        c, e = float(parts[2]), float(parts[3])
        if not math.isnan(c):
            worst = max(worst, e - 2.0 * math.sqrt(1.0 + c * c))
    return worst


def parse_verify(text: str) -> dict[str, tuple[int, float, float, str]]:
    """Suite rows of a verify report: name -> (checks, max_dev, tol, status)."""
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[0] in VERIFY_SUITES:
            rows[parts[0]] = (int(parts[1]), float(parts[2]), float(parts[3]), parts[4])
    return rows


def check_verify(rc: int, text: str, count: int) -> list[str]:
    """``bellsplit verify`` report: exit 0, every suite passing, exact check counts."""
    fails: list[str] = []
    if rc != 0:
        fails.append(f"exit code {rc}, expected 0")
    if "overall: PASS" not in text.splitlines():
        fails.append("no 'overall: PASS' line")
    try:
        rows = parse_verify(text)
    except ValueError as exc:
        return fails + [f"malformed verify report: {exc!r}"]
    for name, per_instance in VERIFY_SUITES.items():
        if name not in rows:
            fails.append(f"suite {name} missing")
            continue
        checks, dev, tol, status = rows[name]
        if checks != per_instance * count:
            fails.append(f"suite {name}: {checks} checks, expected {per_instance * count}")
        if status != "pass" or not dev <= tol:
            fails.append(f"suite {name}: {status} with deviation {dev:.3e} > {tol:.1e}")
    return fails


def check_hom(result: tuple, meta: dict) -> list[str]:
    """One HOM sweep point: |alpha|^2 range and analytic value, VW band, Mandel dip."""
    a, c, (u1, u2, u3), dip = result
    fails: list[str] = []
    if not 0.0 <= a <= 1.0:
        fails.append(f"|alpha|^2 = {a!r} outside [0, 1]")
    window = (meta["delay"] / 2.0, meta["tau"]) if meta["window"] == "fin" else None
    expected = ref.gaussian_alpha_sq(meta["sigma"], meta["delay"], window)
    _over(fails, f"{meta['kind']}/{meta['window']} alpha_sq vs analytic", abs(a - expected),
          alpha_tolerance(meta["kind"], meta["window"]))
    e = 2.0 * math.sqrt(u1 + max(u2, u3))
    if not ref.vw_band(c, e, 1e-9):
        fails.append(f"Verstraete-Wolf band violated: C={c!r}, E_max={e!r}")
    _over(fails, "Mandel dip vs -2a|G_HV|^2", abs(dip + 2.0 * a * abs(meta["gram"][0, 1]) ** 2), 1e-12)
    return fails
