"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines including the measured worst deviations and runtimes.
"""

import time

import numpy as np
import pytest

from bellsplit import bell, decomp, regions, scattering, state, wavepacket
from bellsplit.cli import main as cli_main
from bellsplit.decomp import DegenerateXi
from bellsplit.scattering import DegenerateTransmission
from bellsplit.smallmat import SIGMA_IN, dagger, haar_unitary, max_abs, tilde2
from conftest import scan_cells

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
ENSEMBLE_SEED = 7_000_000  # criteria 1, 2 and 6 share this ensemble
ENSEMBLE_SIZE = 1000


def _report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, detail


def _ensemble(size=ENSEMBLE_SIZE, seed=ENSEMBLE_SEED):
    for i in range(size):
        sm = scattering.make_scattering(haar_unitary(4, seed + i))
        yield sm, scattering.gammas(sm), scattering.hybrid(sm)


def test_criterion_1_concurrence_oracle_equivalence():
    start = time.monotonic()
    worst_wootters = 0.0
    worst_gamma = 0.0
    for sm, g, x in _ensemble():
        for a in ALPHAS:
            c_closed = state.concurrence_closed(x, a)
            c_wootters = state.concurrence_wootters(state.build_rho(g, a))
            c_gamma = state.concurrence_gamma(g, a)
            worst_wootters = max(worst_wootters, abs(c_closed - c_wootters))
            worst_gamma = max(worst_gamma, abs(c_closed - c_gamma))
    elapsed = time.monotonic() - start
    ok = worst_wootters <= 1e-8 and worst_gamma <= 1e-10 and elapsed < 10.0
    _report(
        1,
        ok,
        f"closed vs generic {worst_wootters:.2e} (tol 1e-8), closed vs amplitude-form "
        f"{worst_gamma:.2e} (tol 1e-10), {ENSEMBLE_SIZE}x{len(ALPHAS)} instances in {elapsed:.1f}s",
    )


def test_criterion_2_bell_spectrum_three_way():
    start = time.monotonic()
    worst_direct = 0.0
    worst_sparse = 0.0
    perturbed = 0
    for sm, g, x in _ensemble():
        try:
            sp = decomp.semi_polar(g)
        except DegenerateXi:
            # Documented escape hatch: nudge off the degenerate surface.
            perturbed += 1
            wiggle = np.diag(np.exp(1j * 1e-9 * np.arange(4)))
            sm = scattering.make_scattering(sm.s @ wiggle)
            g = scattering.gammas(sm)
            x = scattering.hybrid(sm)
            sp = decomp.semi_polar(g)
        for a in ALPHAS:
            closed = np.sort(bell.u_eigen_closed(x, a))
            rho = state.build_rho(g, a)
            r = bell.correlation_matrix(rho)
            direct = np.sort(np.linalg.eigvalsh(r.T @ r))
            sparse = np.sort(np.asarray(decomp.r_prime(sp, a, state.mixture_norm(g.invariants, a)).eigenvalues_squared()))
            worst_direct = max(worst_direct, float(np.abs(closed - direct).max()))
            worst_sparse = max(worst_sparse, float(np.abs(closed - sparse).max()))
    elapsed = time.monotonic() - start
    ok = worst_direct <= 1e-8 and worst_sparse <= 1e-8
    _report(
        2,
        ok,
        f"closed vs direct spectrum {worst_direct:.2e}, closed vs sparse-basis {worst_sparse:.2e} "
        f"(tol 1e-8), {perturbed} degenerate instances perturbed, {elapsed:.1f}s",
    )


def test_criterion_3_bruteforce_vs_horodecki():
    start = time.monotonic()
    worst_gap = 0.0
    worst_excess = 0.0
    rng = np.random.Generator(np.random.PCG64(7_100_000))
    for i in range(100):
        sm = scattering.make_scattering(haar_unitary(4, 7_100_000 + i))
        g = scattering.gammas(sm)
        rho = state.build_rho(g, float(rng.uniform(0.0, 1.0)))
        r = bell.correlation_matrix(rho)
        w = np.sort(np.linalg.eigvalsh(r.T @ r))
        e_h = 2.0 * np.sqrt(w[2] + w[1])
        e_bf = bell.chsh_bruteforce(rho, r)
        worst_gap = max(worst_gap, e_h - e_bf)
        worst_excess = max(worst_excess, e_bf - e_h)
    elapsed = time.monotonic() - start
    ok = worst_gap <= 1e-4 and worst_excess <= 1e-6 and elapsed < 60.0
    _report(
        3,
        ok,
        f"optimizer within {worst_gap:.2e} below the criterion value (tol 1e-4), "
        f"excess {worst_excess:.2e} (tol 1e-6), 100 instances in {elapsed:.1f}s",
    )


def test_criterion_4_pure_state_gisin_relation():
    worst = 0.0
    for i in range(200):
        sm = scattering.make_scattering(haar_unitary(4, 7_200_000 + i))
        g = scattering.gammas(sm)
        x = scattering.hybrid(sm)
        c = state.concurrence_closed(x, 1.0)
        u1, u2, u3 = bell.u_eigen_closed(x, 1.0)
        e_closed = 2.0 * np.sqrt(u1 + max(u2, u3))
        rho = state.build_rho(g, 1.0)
        r = bell.correlation_matrix(rho)
        w = np.sort(np.linalg.eigvalsh(r.T @ r))
        e_num = 2.0 * np.sqrt(w[2] + w[1])
        target = 2.0 * np.sqrt(1.0 + c * c)
        worst = max(worst, abs(e_closed - target), abs(e_num - target))
    ok = worst <= 1e-8
    _report(4, ok, f"max |emax - 2 sqrt(1 + C^2)| = {worst:.2e} (tol 1e-8), 200 pure instances")


def test_criterion_5_balanced_slice_region_map():
    start = time.monotonic()
    rows = scan_cells(regions.scan_grid(200, 200))

    edge_worst = 0.0
    for r in rows:
        if r.region == "zero_coincidence":
            continue
        if r.hv_sq == 0.25 or r.alpha_sq == 0.0:
            edge_worst = max(edge_worst, abs(r.concurrence))
    part_a = edge_worst <= 1e-10

    g_worst = 0.0
    for a in np.linspace(0.05, 0.95, 19):
        rep = regions.balanced_emax(regions.BalancedPoint(float(a), regions.g_boundary(float(a))))
        g_worst = max(g_worst, abs(rep.emax - 2.0))
    part_b = g_worst <= 1e-8

    mismatches = 0
    for r in rows:
        if r.region == "zero_coincidence":
            continue
        gap = regions.g_boundary(r.alpha_sq) - r.hv_sq
        if abs(gap) <= 1e-8 or abs(r.emax - 2.0) <= 1e-8:
            continue
        if (r.emax > 2.0) != (gap > 0.0):
            mismatches += 1
    part_c = mismatches == 0

    witnesses = [r for r in rows if r.concurrence >= 0.05 and r.emax <= 1.99]
    part_d = len(witnesses) > 0

    elapsed = time.monotonic() - start
    ok = part_a and part_b and part_c and part_d and elapsed < 60.0
    _report(
        5,
        ok,
        f"edge concurrence {edge_worst:.2e} (tol 1e-10), g-curve |emax-2| {g_worst:.2e} (tol 1e-8), "
        f"{mismatches} sign mismatches, {len(witnesses)} entangled-nonviolating witnesses, "
        f"200x200 grid in {elapsed:.1f}s",
    )


def test_criterion_6_trace_identity_suite():
    worst = 0.0
    for sm, g, x in _ensemble():
        by_gammas, by_gram = scattering.trace_identities(sm)
        worst = max(
            worst,
            *(abs(p - q) for p, q in zip(by_gammas, by_gram)),
            abs(np.trace(dagger(g.gamma1) @ tilde2(g.gamma2))),
            abs(np.trace(dagger(g.gamma2) @ tilde2(g.gamma1))),
            abs(
                np.trace(dagger(g.gamma1) @ tilde2(g.gamma1))
                + np.trace(dagger(g.gamma2) @ tilde2(g.gamma2))
            ),
        )
    ok = worst <= 1e-10
    _report(6, ok, f"gamma route vs Gram route, worst deviation {worst:.2e} (tol 1e-10), {ENSEMBLE_SIZE} instances")


def test_criterion_7_decomposition_round_trips():
    rng = np.random.Generator(np.random.PCG64(7_300_000))
    worst_polar = 0.0
    worst_semi = 0.0
    worst_constraints = 0.0
    worst_canon = 0.0
    degenerate_polar = 0
    degenerate_semi = 0
    for i in range(300):
        sm = scattering.make_scattering(haar_unitary(4, 7_300_000 + i))
        g = scattering.gammas(sm)

        try:
            factors = scattering.polar_decompose_s(sm)
            rebuilt = scattering.assemble_polar(*factors)
            worst_polar = max(worst_polar, max_abs(rebuilt.s - sm.s))
        except DegenerateTransmission:
            degenerate_polar += 1

        try:
            sp = decomp.semi_polar(g)
            r1, r2 = sp.reconstruct()
            worst_semi = max(worst_semi, max_abs(r1 - g.gamma1), max_abs(r2 - g.gamma2))
            worst_semi = max(worst_semi, float(np.abs(sp.q.imag).max()) if np.iscomplexobj(sp.q) else 0.0)
            worst_constraints = max(
                worst_constraints,
                abs(sp.q[0, 0] + sp.q[1, 1]),
                abs(sp.c1**2 + sp.c2 * sp.c3 - 1.0),
                abs(
                    sp.c1**2 * (sp.xi[0] + sp.xi[1])
                    + sp.c2**2 * sp.xi[1]
                    + sp.c3**2 * sp.xi[0]
                    - np.trace(dagger(g.gamma1) @ g.gamma1).real
                ),
            )
        except DegenerateXi:
            degenerate_semi += 1

        sigma = np.outer(
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
        )
        canon = scattering.canonicalize_input(sm, sigma)
        scale = np.linalg.svd(sigma, compute_uv=False)[0]
        worst_canon = max(
            worst_canon,
            max_abs(
                scattering.outgoing_matrix(canon, SIGMA_IN)
                - scattering.outgoing_matrix(sm, sigma) / scale
            ),
        )
    ok = (
        worst_polar <= 1e-10
        and worst_semi <= 1e-10
        and worst_constraints <= 1e-10
        and worst_canon <= 1e-10
        and degenerate_polar + degenerate_semi < 10
    )
    _report(
        7,
        ok,
        f"polar rebuild {worst_polar:.2e}, joint factorization {worst_semi:.2e}, "
        f"coefficient constraints {worst_constraints:.2e}, input canonicalization {worst_canon:.2e} "
        f"(tol 1e-10 each), {degenerate_polar}+{degenerate_semi} degenerate skips of 300",
    )


def test_criterion_8_wavepacket_limits():
    p = wavepacket.GaussianPacket(center=0.0, width=1.0, delay=0.0)
    a_inf = wavepacket.alpha_infinite_window(p, p)
    identical_ok = abs(a_inf.alpha_sq - 1.0) <= 1e-10

    a_short = wavepacket.alpha_finite_window(p, p, t=0.0, tau=1e-3)
    short_identical_ok = abs(a_short.alpha_sq - 1.0) <= 1e-4

    psi = wavepacket.GaussianPacket(0.0, 1.0, delay=-0.5)
    phi = wavepacket.GaussianPacket(0.0, 1.0, delay=0.5)
    a_short_delayed = wavepacket.alpha_finite_window(psi, phi, t=0.0, tau=1e-3)
    erased_ok = a_short_delayed.alpha_sq >= 1.0 - 1e-4

    a_wide = wavepacket.alpha_finite_window(psi, phi, t=0.0, tau=50.0)
    a_limit = wavepacket.alpha_infinite_window(psi, phi)
    converged_ok = abs(a_wide.alpha_sq - a_limit.alpha_sq) <= 1e-6

    bounds_ok = True
    grid = np.linspace(-8.0, 8.0, 1201)
    tab = wavepacket.TabulatedPacket(grid, np.exp(-(grid**2) / 4.0) * np.exp(0.2j * grid))
    cases = []
    for dt in (0.0, 0.3, 1.0, 2.5):
        other = wavepacket.GaussianPacket(0.0, 1.0, delay=dt)
        cases.append(wavepacket.alpha_infinite_window(p, other))
        cases.append(wavepacket.alpha_finite_window(p, other, t=dt / 2.0, tau=4.0))
        cases.append(wavepacket.alpha_infinite_window(tab, other))
    for a in cases:
        bounds_ok = bounds_ok and 0.0 <= a.alpha_sq <= 1.0 + 1e-10

    ok = identical_ok and short_identical_ok and erased_ok and converged_ok and bounds_ok
    _report(
        8,
        ok,
        f"identical packets 1-|alpha|^2 = {abs(a_inf.alpha_sq - 1.0):.2e} (tol 1e-10), "
        f"ultrashort-window erasure 1-|alpha|^2 = {1.0 - a_short_delayed.alpha_sq:.2e} (tol 1e-4), "
        f"wide-window gap {abs(a_wide.alpha_sq - a_limit.alpha_sq):.2e} (tol 1e-6), bounds hold: {bounds_ok}",
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    paths = [tmp_path / name for name in ("s1.csv", "s2.csv", "v1.txt", "v2.txt")]
    assert cli_main(["scan", "--grid", "40x40", "--out", str(paths[0])]) == 0
    assert cli_main(["scan", "--grid", "40x40", "--out", str(paths[1])]) == 0
    assert cli_main(["verify", "--count", "4", "--seed", "11", "--out", str(paths[2])]) == 0
    assert cli_main(["verify", "--count", "4", "--seed", "11", "--out", str(paths[3])]) == 0
    capsys.readouterr()
    scan_ok = paths[0].read_bytes() == paths[1].read_bytes()
    verify_ok = paths[2].read_bytes() == paths[3].read_bytes()
    ok = scan_ok and verify_ok
    _report(9, ok, f"scan outputs identical: {scan_ok}, verify outputs identical: {verify_ok}")
