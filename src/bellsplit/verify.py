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
from .smallmat import SIGMA_IN, dagger, haar_unitary, herm_eigen, max_abs, tilde2

__all__ = ["SuiteResult", "run_campaign", "format_report", "ALPHA_LADDER"]

ALPHA_LADDER = (0.0, 0.25, 0.5, 0.75, 1.0)


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

    suites = {
        "trace_identities": SuiteResult("trace_identities", 0, 0.0, 1e-10),
        "tilde_orthogonality": SuiteResult("tilde_orthogonality", 0, 0.0, 1e-10),
        "concurrence_wootters": SuiteResult("concurrence_wootters", 0, 0.0, 1e-8),
        "concurrence_gamma": SuiteResult("concurrence_gamma", 0, 0.0, 1e-10),
        "state_positivity": SuiteResult("state_positivity", 0, 0.0, 1e-10),
        "mandel_identity": SuiteResult("mandel_identity", 0, 0.0, 1e-12),
        "bell_spectrum": SuiteResult("bell_spectrum", 0, 0.0, 1e-8),
        "horodecki_vs_closed": SuiteResult("horodecki_vs_closed", 0, 0.0, 1e-8),
        "gisin_pure": SuiteResult("gisin_pure", 0, 0.0, 1e-8),
        "polar_roundtrip": SuiteResult("polar_roundtrip", 0, 0.0, 1e-10),
        "semi_polar": SuiteResult("semi_polar", 0, 0.0, 1e-10),
        "canonicalize": SuiteResult("canonicalize", 0, 0.0, 1e-10),
        "bruteforce_gap": SuiteResult("bruteforce_gap", 0, 0.0, 1e-4),
        "bruteforce_excess": SuiteResult("bruteforce_excess", 0, 0.0, 1e-6),
    }

    for i in range(count):
        # Drawn first, so that an instance that raises leaves later draws unchanged.
        uvec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vvec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = float(random_alphas[i])
        try:
            sm = scattering.make_scattering(haar_unitary(4, seed + i))
            g = scattering.gammas(sm)
            x = scattering.hybrid(sm)

            ids = scattering.trace_identities(sm)
            suites["trace_identities"].absorb(abs(ids.gamma_side.abs_tr_g1tg1 - ids.hybrid_side.abs_tr_g1tg1))
            suites["trace_identities"].absorb(abs(ids.gamma_side.tr_g1g1 - ids.hybrid_side.tr_g1g1))
            suites["trace_identities"].absorb(abs(ids.gamma_side.tr_g2g2 - ids.hybrid_side.tr_g2g2))
            suites["trace_identities"].absorb(abs(ids.gamma_side.tr_g1g2 - ids.hybrid_side.tr_g1g2))
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
                rho = state.build_rho(g, a)
                evals = herm_eigen(rho.rho).eigenvalues
                suites["state_positivity"].absorb(max(0.0, -evals[-1]))
                suites["state_positivity"].absorb(max(0.0, evals[2]))

                c_closed = state.concurrence_closed(x, a)
                suites["concurrence_wootters"].absorb(abs(c_closed - state.concurrence_wootters(rho)))
                suites["concurrence_gamma"].absorb(abs(c_closed - state.concurrence_gamma(g, a)))

                md = state.mandel_dip(x, a)
                suites["mandel_identity"].absorb(
                    abs(md.coincidence_prob - state.normalization(g, a) / 2.0)
                )

                u = bell.u_eigen_closed(x, a)
                u_closed = np.sort(u)
                corr = bell.correlation_matrix(rho)
                u_num = np.sort(np.linalg.eigvalsh(corr.T @ corr))
                suites["bell_spectrum"].absorb(np.abs(u_closed - u_num).max())
                if sp is not None:
                    rp = decomp.r_prime(sp, a, state.normalization(g, a))
                    u_rp = np.sort(np.asarray(rp.eigenvalues_squared()))
                    suites["bell_spectrum"].absorb(np.abs(u_closed - u_rp).max())

                e_closed, _ = bell.emax_and_branch(u)
                e_h = 2.0 * np.sqrt(max(0.0, u_num[2] + u_num[1]))
                suites["horodecki_vs_closed"].absorb(abs(e_closed - e_h))
                if a == 1.0:
                    suites["gisin_pure"].absorb(abs(e_closed - 2.0 * np.sqrt(1.0 + c_closed**2)))

            # The ladder ends on the random alpha: rho, corr and e_h belong to it.
            e_bf = bell.chsh_bruteforce(rho, corr)
            suites["bruteforce_gap"].absorb(max(0.0, e_h - e_bf))
            suites["bruteforce_excess"].absorb(max(0.0, e_bf - e_h))

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
                suites["semi_polar"].absorb(abs(norm_lhs - np.trace(dagger(g.gamma1) @ g.gamma1).real))

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
