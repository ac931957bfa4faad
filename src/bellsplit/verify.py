"""Cross-route property campaign over random scattering matrices.

Every closed form in the package has an independent numeric route; this
module drives all of them over a seeded ensemble of Haar-random scattering
matrices and reports the worst deviation per suite. The CLI ``verify``
subcommand is a thin wrapper around :func:`run_campaign`.
"""

from __future__ import annotations

import math
import os
import traceback
from dataclasses import dataclass

import numpy as np

from . import bell, decomp, scattering, state
from .scattering import DegenerateTransmission
from .decomp import DegenerateXi
from .smallmat import DEFAULT_TOLERANCES, SIGMA_IN, dagger, haar_unitary, max_abs, tilde2

__all__ = ["SuiteResult", "run_campaign", "format_report", "ALPHA_LADDER", "SUITE_TOLERANCES"]

ALPHA_LADDER = (0.0, 0.25, 0.5, 0.75, 1.0)

#: How far the CHSH oracle may land below the Horodecki maximum, and above it.
_BRUTEFORCE_GAP, _BRUTEFORCE_EXCESS = 1e-4, 1e-6

_T = DEFAULT_TOLERANCES  # verify holds every suite to the default ladder, whatever the profile
#: Suite name -> tolerance, in report order.
SUITE_TOLERANCES = {
    "trace_identities": _T.identity, "tilde_orthogonality": _T.identity, "concurrence_wootters": _T.oracle,
    "concurrence_gamma": _T.identity, "state_positivity": _T.identity, "mandel_identity": _T.construction,
    "bell_spectrum": _T.oracle, "horodecki_vs_closed": _T.oracle, "gisin_pure": _T.oracle,
    "polar_roundtrip": _T.identity, "semi_polar": _T.identity, "canonicalize": _T.identity,
    "bruteforce_gap": _BRUTEFORCE_GAP, "bruteforce_excess": _BRUTEFORCE_EXCESS,
}


@dataclass
class SuiteResult:
    name: str
    checks: int
    max_dev: float
    tol: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol

    def absorb(self, dev: float) -> None:
        self.checks += 1
        if dev > self.max_dev:
            self.max_dev = float(dev)


def run_campaign(count: int, seed: int) -> list[SuiteResult]:
    """Run every cross-route invariant on ``count`` seeded Haar instances."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    random_alphas = rng.uniform(0.0, 1.0, size=count)

    suites = {name: SuiteResult(name, 0, 0.0, tol) for name, tol in SUITE_TOLERANCES.items()}

    for i in range(count):
        # Drawn first, so that an instance that raises leaves later draws unchanged.
        uvec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vvec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = float(random_alphas[i])
        try:
            sm = scattering.make_scattering(haar_unitary(4, seed + i))
            g = scattering.gammas(sm)
            x = scattering.hybrid(sm)

            for by_gammas, by_gram in zip(*scattering.trace_identities(sm)):
                suites["trace_identities"].absorb(abs(by_gammas - by_gram))
            suites["tilde_orthogonality"].absorb(abs(np.trace(dagger(g.gamma1) @ tilde2(g.gamma2))))
            suites["tilde_orthogonality"].absorb(abs(np.trace(dagger(g.gamma2) @ tilde2(g.gamma1))))
            suites["tilde_orthogonality"].absorb(
                abs(np.trace(dagger(g.gamma1) @ tilde2(g.gamma1)) + np.trace(dagger(g.gamma2) @ tilde2(g.gamma2)))
            )

            try:
                sp = decomp.semi_polar(g)
            except DegenerateXi:
                sp = None

            for a in (*ALPHA_LADDER, float(random_alphas[i])):
                ev = bell.evaluate(x, a, g)
                for check in bell.ROUTE_CHECKS:
                    suites[check.suite].absorb(check.deviation(ev))
                evals, c = ev.state.eigenvalues, ev.concurrence
                suites["state_positivity"].absorb(max(0.0, -evals[-1]))
                suites["state_positivity"].absorb(max(0.0, evals[2]))

                norm = state.mixture_norm(g.invariants, a)
                suites["mandel_identity"].absorb(abs(c.mandel.coincidence_prob - norm / 2.0))

                u_closed = np.sort(ev.u)
                suites["bell_spectrum"].absorb(np.abs(u_closed - ev.spectrum).max())
                if sp is not None:
                    rp = decomp.r_prime(sp, a, norm)
                    u_rp = np.sort(np.asarray(rp.eigenvalues_squared()))
                    suites["bell_spectrum"].absorb(np.abs(u_closed - u_rp).max())

                if a == 1.0:
                    suites["gisin_pure"].absorb(abs(ev.emax_closed - 2.0 * np.sqrt(1.0 + c.c_closed**2)))

            # The ladder ends on the random alpha: the oracle measures its state.
            e_bf = bell.chsh_bruteforce(ev.state, ev.corr)
            suites["bruteforce_gap"].absorb(max(0.0, ev.emax_horodecki - e_bf))
            suites["bruteforce_excess"].absorb(max(0.0, e_bf - ev.emax_horodecki))

            try:
                factors = scattering.polar_decompose_s(sm)
            except DegenerateTransmission:
                factors = None
            if factors is not None:
                rebuilt = scattering.assemble_polar(*factors)
                suites["polar_roundtrip"].absorb(max_abs(rebuilt.s - sm.s))

            if sp is not None:
                r1, r2 = sp.reconstruct()
                suites["semi_polar"].absorb(max_abs(r1 - g.gamma1))
                suites["semi_polar"].absorb(max_abs(r2 - g.gamma2))
                suites["semi_polar"].absorb(abs(sp.q[0, 0] + sp.q[1, 1]))
                suites["semi_polar"].absorb(abs(sp.c1**2 + sp.c2 * sp.c3 - 1.0))
                norm_lhs = sp.c1**2 * (sp.xi[0] + sp.xi[1]) + sp.c2**2 * sp.xi[1] + sp.c3**2 * sp.xi[0]
                suites["semi_polar"].absorb(abs(norm_lhs - g.invariants.t1))

            sigma = np.outer(uvec, vvec)
            canon = scattering.canonicalize_input(sm, sigma)
            scale = np.linalg.svd(sigma, compute_uv=False)[0]
            suites["canonicalize"].absorb(
                max_abs(
                    scattering.outgoing_matrix(canon, SIGMA_IN)
                    - scattering.outgoing_matrix(sm, sigma) / scale
                )
            )
        except Exception as exc:  # a raise is a failed instance, reported with its inputs
            where = traceback.extract_tb(exc.__traceback__)[-1]
            suites[f"raised {i}"] = SuiteResult("raised", 1, math.inf, 0.0, (
                f"instance seed={seed + i} alpha_sq={a!r}: {type(exc).__name__}: {exc} "
                f"(in {where.name}, {os.path.basename(where.filename)}:{where.lineno})"
            ))

    return list(suites.values())


def format_report(results: list[SuiteResult]) -> str:
    lines = ["suite                       checks    max_deviation    tolerance    status"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        note = f"    {r.note}" if r.note else ""
        lines.append(f"{r.name:<26s} {r.checks:>7d}    {r.max_dev:13.6e}    {r.tol:9.1e}    {status}{note}")
    overall = "PASS" if all(r.passed for r in results) else "FAIL"
    lines.append(f"overall: {overall}")
    return "\n".join(lines) + "\n"
