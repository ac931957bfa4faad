from typing import NamedTuple

import numpy as np
import pytest

from bellsplit import regions as regions_mod
from bellsplit.bell import emax, emax_and_branch, u_eigen_closed
from bellsplit.regions import (
    BOUNDARY_BAND,
    BalancedPoint,
    balanced_emax,
    balanced_gram,
    f_boundary,
    g_boundary,
    scan_grid,
    scan_to_csv,
)
from bellsplit.scattering import HybridMatrix, gammas, hybrid, realize_hybrid
from bellsplit.state import (
    ZeroCoincidence,
    build_rho,
    concurrence_closed,
    concurrence_wootters,
    require_coincidences,
)
from bellsplit.smallmat import ConsistencyError, max_abs


def slice_concurrence(p):
    """Bosonic concurrence on the balanced slice, a (1 - 4 h) / (1 - 4 a h).

    On the slice the mixture norm is 1 - 4 a h; the formula is specific to
    bunching statistics.
    """
    a, h = p.alpha_sq, p.hv_sq
    return float(a * (1.0 - 4.0 * h) / require_coincidences(1.0 - 4.0 * a * h))


class TestBoundaries:
    def test_f_endpoints(self):
        assert f_boundary(0.0) == 0.0
        assert f_boundary(1.0) == pytest.approx(0.25)

    def test_g_endpoints(self):
        assert g_boundary(0.0) == pytest.approx(0.0, abs=1e-15)
        assert g_boundary(1.0) == pytest.approx(0.25)

    def test_g_below_f(self):
        for a in np.linspace(0.0, 1.0, 101):
            assert g_boundary(float(a)) <= f_boundary(float(a)) + 1e-12

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            f_boundary(1.2)
        with pytest.raises(ValueError):
            g_boundary(-0.1)

    def test_f_predicts_branch(self):
        # On a dense grid the branch from the closed eigenvalues flips exactly
        # at the crossover curve (away from a thin numerical band).
        for a in (0.25, 0.5, 0.8, 1.0):
            f = f_boundary(a)
            for h in np.linspace(0.0, 0.25, 100):
                if abs(h - f) < 1e-10:
                    continue
                x = HybridMatrix(_sqrt_balanced(h))
                _, u2, u3 = u_eigen_closed(x, a)
                if abs(u2 - u3) < 1e-12:
                    continue
                assert (u3 > u2) == (h < f), (a, h, u2, u3)

    def test_emax_is_two_on_g_curve(self):
        for a in (0.25, 0.5, 0.75):
            rep = balanced_emax(BalancedPoint(a, g_boundary(a)))
            assert rep.emax == pytest.approx(2.0, abs=1e-8)


def _sqrt_balanced(hv_sq):
    h = np.sqrt(hv_sq)
    p, m = np.sqrt(0.5 + h), np.sqrt(0.5 - h)
    return np.array([[(p + m) / 2, (p - m) / 2], [(p - m) / 2, (p + m) / 2]], complex)


@pytest.mark.parametrize("norm", [5e-15, 1.5e-14, 3e-14])
def test_closed_forms_agree_on_empty_ensemble(norm):
    # Near the corner (1, 1/4) the mixture norm is 1 - 4 hv_sq; every
    # closed-form entry point must draw the empty-ensemble line in one place.
    hv_sq = 0.25 - norm / 4.0
    x = HybridMatrix(_sqrt_balanced(hv_sq))
    p = BalancedPoint(1.0, hv_sq)
    calls = [
        lambda: concurrence_closed(x, 1.0),
        lambda: u_eigen_closed(x, 1.0),
        lambda: slice_concurrence(p),
        lambda: balanced_emax(p),
    ]
    raised = []
    for call in calls:
        try:
            call()
            raised.append(False)
        except ZeroCoincidence:
            raised.append(True)
    assert raised in ([True] * 4, [False] * 4), raised
    assert raised[0] == (norm < 2e-14)


def test_emax_within_verstraete_wolf_bound():
    # E_max <= 2 sqrt(1 + C^2) (Verstraete & Wolf, PRL 89, 170401), tight
    # where u1 = u2, as on the whole a = 1 line.
    for a in (0.5, 0.9, 1.0):
        for h in np.linspace(0.0, 0.25, 200)[:-1]:
            rep = balanced_emax(BalancedPoint(a, float(h)))
            assert rep.emax <= 2.0 * np.sqrt(1.0 + rep.concurrence**2) + 1e-12, (a, h)


class TestBalancedPoint:
    def test_bounds(self):
        with pytest.raises(ValueError):
            BalancedPoint(1.2, 0.1)
        with pytest.raises(ValueError):
            BalancedPoint(0.5, 0.3)


class TestBalancedConcurrence:
    def test_full_mixing_kills_entanglement(self):
        for a in (0.0, 0.4, 0.99):
            assert slice_concurrence(BalancedPoint(a, 0.25)) == pytest.approx(0.0, abs=1e-12)

    def test_no_mixing_equals_alpha_sq(self):
        for a in (0.0, 0.3, 1.0):
            assert slice_concurrence(BalancedPoint(a, 0.0)) == pytest.approx(a, abs=1e-12)

    def test_corner_raises(self):
        with pytest.raises(ZeroCoincidence):
            slice_concurrence(BalancedPoint(1.0, 0.25))

    def test_slice_formula_matches_balanced_emax(self):
        # The slice formula is an oracle for the general closed form that balanced_emax takes C from.
        for a in np.linspace(0.0, 1.0, 61).tolist():
            for h in np.linspace(0.0, 0.25, 61).tolist():
                p = BalancedPoint(a, h)
                try:
                    c = slice_concurrence(p)
                except ZeroCoincidence:
                    with pytest.raises(ZeroCoincidence):
                        balanced_emax(p)
                    continue
                assert abs(balanced_emax(p).concurrence - c) <= 1e-14, (a, h)

    def test_matches_explicit_splitter(self):
        # Construction oracle: realize the balanced Gram matrix as an actual
        # unitary splitter and push it through the general machinery.
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(25):
            p = BalancedPoint(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.0, 0.24)))
            sm = realize_hybrid(balanced_gram(p.hv_sq))
            x = hybrid(sm)
            assert max_abs(x.gram - balanced_gram(p.hv_sq)) <= 1e-10
            slice_value = slice_concurrence(p)
            assert slice_value == pytest.approx(concurrence_closed(x, p.alpha_sq), abs=1e-10)
            rho = build_rho(gammas(sm), p.alpha_sq)
            assert slice_value == pytest.approx(concurrence_wootters(rho), abs=1e-8)


class TestBalancedEmax:
    def test_pure_no_mixing_is_maximal(self):
        rep = balanced_emax(BalancedPoint(1.0, 0.0))
        assert rep.concurrence == pytest.approx(1.0, abs=1e-12)
        assert rep.emax == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-10)
        assert rep.region == "violating"

    def test_just_above_g_stops_violating(self):
        for a in (0.3, 0.6, 0.9):
            h = g_boundary(a) + 1e-4
            rep = balanced_emax(BalancedPoint(a, h))
            assert rep.concurrence > 0.0
            assert rep.emax < 2.0
            assert rep.region == "entangled_nonviolating"

    def test_in_branch_formula(self):
        # Below the crossover the maximum reduces to 2 C sqrt(1 + a^2) / a.
        for a in (0.3, 0.55, 0.85):
            for h in np.linspace(0.0, f_boundary(a) - 1e-6, 7):
                p = BalancedPoint(a, float(h))
                rep = balanced_emax(p)
                formula = 2.0 * slice_concurrence(p) * np.sqrt(1.0 + a**2) / a
                assert rep.emax == pytest.approx(formula, abs=1e-10)

    def test_oracle_against_full_pipeline(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for _ in range(10):
            p = BalancedPoint(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.0, 0.24)))
            sm = realize_hybrid(balanced_gram(p.hv_sq))
            rep = balanced_emax(p)
            full = emax(hybrid(sm), p.alpha_sq, gamma_pair=gammas(sm))
            assert rep.emax == pytest.approx(full.emax_horodecki, abs=1e-8)
            assert rep.emax == pytest.approx(full.emax_bruteforce, abs=1e-4)

    def test_fermionic_map_differs(self):
        p = BalancedPoint(0.8, 0.05)
        bos = balanced_emax(p, "bosonic")
        fer = balanced_emax(p, "fermionic")
        assert bos.concurrence != pytest.approx(fer.concurrence, abs=1e-6)

    def test_fermionic_matches_general_route(self):
        for a, h in ((0.4, 0.03), (0.9, 0.2)):
            p = BalancedPoint(a, h)
            sm = realize_hybrid(balanced_gram(p.hv_sq))
            g = gammas(sm, "fermionic")
            rep = balanced_emax(p, "fermionic")
            assert rep.concurrence == pytest.approx(
                concurrence_wootters(build_rho(g, a)), abs=1e-8
            )
            full = emax(hybrid(sm), a, gamma_pair=g)
            assert rep.emax == pytest.approx(full.emax_horodecki, abs=1e-8)


class NoMixingResult(NamedTuple):
    c: float
    emax: float


def no_mixing_case(X: HybridMatrix, alpha_sq: float) -> NoMixingResult:
    """Special case of a diagonal Gram matrix: no polarization which-path mixing.

    The concurrence reduces to the product of the diagonal fluctuation terms
    and the CHSH maximum to the pure-state-like relation 2 sqrt(1 + C^2);
    both are cross-checked against the general pipeline.
    """
    gram = X.gram
    if abs(gram[0, 1]) > 1e-12:
        raise ValueError(f"no-mixing case requires a diagonal Gram matrix, off-diagonal {gram[0, 1]}")
    g_hh, g_vv = gram[0, 0].real, gram[1, 1].real
    den = g_hh + g_vv - 2.0 * g_hh * g_vv
    require_coincidences(2.0 * den)
    c = 2.0 * alpha_sq * np.sqrt(max(0.0, g_hh * (1.0 - g_hh) * g_vv * (1.0 - g_vv))) / den
    e = 2.0 * np.sqrt(1.0 + c**2)
    c_general = concurrence_closed(X, alpha_sq)
    e_general, _ = emax_and_branch(u_eigen_closed(X, alpha_sq))
    if abs(c - c_general) > 1e-10 or abs(e - e_general) > 1e-10:
        raise ConsistencyError(
            f"no-mixing formulas disagree with the general pipeline: "
            f"C {c} vs {c_general}, E {e} vs {e_general}"
        )
    return NoMixingResult(c=float(c), emax=float(e))


class TestNoMixing:
    def test_balanced_diagonal_full_overlap(self):
        x = HybridMatrix(np.diag([np.sqrt(0.5), np.sqrt(0.5)]).astype(complex))
        res = no_mixing_case(x, 1.0)
        assert res.c == pytest.approx(1.0, abs=1e-12)
        assert res.emax == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    def test_zero_overlap(self):
        x = HybridMatrix(np.diag([np.sqrt(0.5), np.sqrt(0.5)]).astype(complex))
        res = no_mixing_case(x, 0.0)
        assert res.c == 0.0
        assert res.emax == pytest.approx(2.0, abs=1e-12)

    def test_asymmetric_diagonal_cross_check(self):
        x = hybrid(realize_hybrid(np.diag([0.9, 0.2])))
        res = no_mixing_case(x, 0.6)
        assert res.c == pytest.approx(concurrence_closed(x, 0.6), abs=1e-10)
        rep = emax(x, 0.6)
        assert res.emax == pytest.approx(rep.emax_horodecki, abs=1e-8)

    def test_rejects_mixing(self):
        x = HybridMatrix(_sqrt_balanced(0.1))
        with pytest.raises(ValueError):
            no_mixing_case(x, 0.5)


class TestScan:
    def test_row_count_and_header(self):
        rows = scan_grid(10, 10)
        csv = scan_to_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "alpha_sq,hv_sq,concurrence,emax,branch,region"
        assert len(lines) == 101

    def test_lexicographic_order(self):
        rows = scan_grid(5, 7)
        keys = [(r.alpha_sq, r.hv_sq) for r in rows]
        assert keys == sorted(keys)

    def test_determinism(self):
        assert scan_to_csv(scan_grid(20, 20)) == scan_to_csv(scan_grid(20, 20))

    def test_corner_is_zero_coincidence(self):
        rows = scan_grid(5, 5)
        corner = [r for r in rows if r.alpha_sq == 1.0 and r.hv_sq == 0.25]
        assert len(corner) == 1
        assert corner[0].region == "zero_coincidence"
        assert np.isnan(corner[0].concurrence)

    def test_fermionic_region_map_differs(self):
        bos = scan_grid(15, 15, "bosonic")
        fer = scan_grid(15, 15, "fermionic")
        assert any(b.region != f.region for b, f in zip(bos, fer))

    def test_boundary_tagging(self):
        rows = scan_grid(9, 9)
        # alpha_sq = 0: both curves start at hv_sq = 0, so the (0, 0) cell is tagged.
        first = rows[0]
        assert first.branch == "boundary_f"
        assert first.region == "boundary_g"

    def test_sign_classification_against_g(self):
        for row in scan_grid(40, 40):
            if row.region == "zero_coincidence":
                continue
            gap = g_boundary(row.alpha_sq) - row.hv_sq
            if abs(gap) <= 1e-8:
                continue
            assert (row.emax > 2.0) == (gap > 0.0), row

    def test_entangled_nonviolating_witness_exists(self):
        rows = scan_grid(40, 40)
        assert any(r.concurrence >= 0.05 and r.emax <= 1.99 for r in rows)

    def test_e2_crossings_above_f_only_on_degenerate_edge(self):
        # The E = 2 contour proper lives below the branch crossover, but the
        # hv_sq = 1/4 edge also sits exactly at E = 2: there the symmetric
        # amplitude vanishes and the state degenerates to a perfectly
        # correlated separable mixture. Check the grid reports no crossings
        # above the crossover other than that edge.
        crossings = [
            r
            for r in scan_grid(60, 60)
            if r.region not in ("zero_coincidence",)
            and r.hv_sq > f_boundary(r.alpha_sq) + 1e-9
            and abs(r.emax - 2.0) <= 1e-9
        ]
        assert crossings, "the degenerate edge itself must be found"
        assert all(r.hv_sq == 0.25 and r.concurrence == 0.0 for r in crossings)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            scan_grid(1, 5)


def _scalar_row(a, h, statistics):
    """The scan row of (a, h) by the scalar route: balanced_emax plus the boundary tags."""
    try:
        rep = balanced_emax(BalancedPoint(a, h), statistics)
    except ZeroCoincidence:
        return float("nan"), float("nan"), "none", "zero_coincidence"
    branch, region = rep.branch, rep.region
    if statistics == "bosonic":
        if abs(h - f_boundary(a)) < BOUNDARY_BAND:
            branch = "boundary_f"
        if abs(h - g_boundary(a)) < BOUNDARY_BAND:
            region = "boundary_g"
    return rep.concurrence, rep.emax, branch, region


def _mp_reference(a, h, statistics):
    """C and E_max on the slice in 50-digit arithmetic, through the textbook root of the spectrum.

    The Gram invariants come from the per- and determinant of the balanced
    Gram matrix, and u1, u2 from (T +- sqrt(T^2 - 4D)) / (2 norm^2), the form
    that double precision evaluates as a sum of squares instead.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        a, h = mp.mpf(a), mp.mpf(h)
        s, half = mp.sqrt(h), mp.mpf(1) / 2
        per, det = half * half + s * s, half * half - s * s
        t1, t2 = 1 - 2 * per, 1 - 2 * det
        if statistics == "fermionic":
            t1, t2 = t2, t1
        tt = 2 * mp.sqrt(det * det)  # det(I - G) = det(G) on the slice
        norm = (1 + a) * t1 + (1 - a) * t2
        big_a, big_b = norm**2 - 4 * (1 - a**2) * t1 * t2, 4 * tt**2
        root = mp.sqrt(max((big_a + big_b) ** 2 - 4 * big_a * big_b, 0))  # c = 0: D = A B
        u1, u2 = (big_a + big_b + root) / (2 * norm**2), (big_a + big_b - root) / (2 * norm**2)
        u3 = 4 * a**2 * tt**2 / norm**2
        return float(2 * a * tt / norm), float(2 * mp.sqrt(u1 + max(u2, u3)))


class TestArrayScan:
    @pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
    def test_matches_scalar_route(self, statistics):
        ties = set()
        for row in scan_grid(41, 41, statistics):
            c, e, branch, region = _scalar_row(row.alpha_sq, row.hv_sq, statistics)
            if region == "zero_coincidence":
                assert (row.branch, row.region) == (branch, region)
                assert np.isnan(row.concurrence) and np.isnan(row.emax)
                continue
            assert abs(row.concurrence - c) <= 1e-13, row
            assert abs(row.emax - e) <= 1e-13, row
            if (row.branch, row.region) != (branch, region):
                # Only a tie u2 = u3 may flip a label: the alpha_sq = 1 row.
                _, u2, u3 = u_eigen_closed(HybridMatrix(_sqrt_balanced(row.hv_sq)), row.alpha_sq, statistics)
                assert abs(u2 - u3) <= 1e-12, (row, branch, region)
                ties.add(row.alpha_sq)
        assert ties <= {1.0}

    @pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
    def test_against_50_digit_reference(self, statistics):
        for row in scan_grid(41, 41, statistics):
            if row.region == "zero_coincidence":
                continue
            c, e = _mp_reference(row.alpha_sq, row.hv_sq, statistics)
            assert abs(row.concurrence - c) <= 1e-13, row
            assert abs(row.emax - e) <= 1e-13, row
            scalar = balanced_emax(BalancedPoint(row.alpha_sq, row.hv_sq), statistics)
            assert abs(scalar.concurrence - c) <= 1e-13 and abs(scalar.emax - e) <= 1e-13, row

    def test_branch_gate_covers_every_cell(self, monkeypatch):
        # A wrong crossover at one alpha_sq must stop the scan, naming the cell.
        original = regions_mod.f_boundary
        monkeypatch.setattr(regions_mod, "f_boundary", lambda a: 0.0 if a == 0.5 else original(a))
        with pytest.raises(ConsistencyError, match=r"branch crossover prediction failed at \(0\.5, "):
            scan_grid(11, 11)

    def test_spectrum_gate_covers_every_cell(self, monkeypatch):
        # One corrupted Gram matrix pushes u3 out of [0, 1] on its column.
        original = regions_mod.gram_invariants

        def corrupted(gram, statistics):
            inv = original(gram, statistics)
            tt = inv.tt.copy()
            tt[3] *= 3.0
            return inv._replace(tt=tt)

        monkeypatch.setattr(regions_mod, "gram_invariants", corrupted)
        for statistics in ("bosonic", "fermionic"):
            with pytest.raises(ConsistencyError, match=r"escapes \[0, 1\] at alpha_sq="):
                scan_grid(11, 11, statistics)

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_only_the_corner_is_empty(self, n):
        for statistics, expected in (("bosonic", [(1.0, 0.25)]), ("fermionic", [])):
            empty = [r for r in scan_grid(n, n, statistics) if r.region == "zero_coincidence"]
            assert [(r.alpha_sq, r.hv_sq) for r in empty] == expected
            for r in empty:
                assert r.branch == "none" and np.isnan(r.concurrence) and np.isnan(r.emax)

    def test_closed_forms_run_once_per_grid(self, monkeypatch):
        # A per-cell loop would make these counts grow with the grid.
        counts = {}
        for name in (
            "balanced_emax",
            "u_eigen_closed",
            "concurrence_closed",
            "gram_invariants",
            "mixture_norm",
            "concurrence_from_invariants",
            "u_from_invariants",
            "emax_and_branch",
        ):
            original = getattr(regions_mod, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(regions_mod, name, counted)
        per_grid = []
        for n in (10, 50):
            counts.clear()
            scan_grid(n, n)
            per_grid.append(dict(counts))
        assert per_grid[0] == per_grid[1]
        assert per_grid[1] == {
            "gram_invariants": 1,
            "mixture_norm": 1,
            "concurrence_from_invariants": 1,
            "u_from_invariants": 1,
            "emax_and_branch": 1,
        }

    def test_rows_and_csv_keep_their_format(self):
        rows = scan_grid(3, 3)
        assert rows[4]._fields == ("alpha_sq", "hv_sq", "concurrence", "emax", "branch", "region")
        assert all(type(x) is float for r in rows for x in r[:4])
        assert all(type(x) is str for r in rows for x in r[4:])
        assert scan_to_csv(rows).splitlines()[5] == "0.5,0.125,{!r},{!r},{},{}".format(*rows[4][2:])
