import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from bellsplit import bell as bell_mod
from bellsplit import cli as cli_mod
from bellsplit import decomp as decomp_mod
from bellsplit import scattering as scattering_mod
from bellsplit import smallmat as smallmat_mod
from bellsplit.cli import main
from bellsplit.smallmat import mat_to_json
from bellsplit import state as state_mod
from bellsplit import verify as verify_mod
from conftest import mixing_times_drift

NO_COINCIDENCE_S = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_callers(monkeypatch, *functions):
    """Name of the calling function, per call of each of ``functions``, from here on.

    Each function is rebound in every bellsplit module that binds it, so calls
    between modules are counted too.
    """
    callers = {fn.__name__: [] for fn in functions}
    modules = [m for key, m in sys.modules.items() if key == "bellsplit" or key.startswith("bellsplit.")]

    def counting(fn):
        def wrapper(*args, **kwargs):
            callers[fn.__name__].append(sys._getframe(1).f_code.co_name)
            return fn(*args, **kwargs)

        return wrapper

    for fn in functions:
        for module in modules:
            if vars(module).get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, counting(fn))
    return callers


class TestAnalyze:
    def test_balanced_full_overlap(self, capsys):
        code, out, _ = run(capsys, "analyze", "--preset", "balanced_pc", "--alpha-sq", "1.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["concurrence"]["closed"] == pytest.approx(1.0, abs=1e-10)
        assert payload["bell"]["emax_closed"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-10)
        assert payload["bell"]["violating"] is True
        assert payload["version"]
        assert set(payload["tolerances"]) == {"construction", "identity", "oracle"}

    def test_mandel_split_computed_once(self, capsys, monkeypatch):
        calls = []
        original = state_mod.mandel_dip
        monkeypatch.setattr(state_mod, "mandel_dip", lambda *a: calls.append(a) or original(*a))
        code, out, _ = run(capsys, "analyze", "--preset", "balanced_mixing(0.6)", "--alpha-sq", "0.5")
        assert code == 0
        assert len(calls) == 1
        mandel = json.loads(out)["mandel"]
        assert mandel["dip"] == mandel["coincidence_prob"] - mandel["classical_prob"]

    def test_state_built_and_validated_once(self, capsys, monkeypatch):
        # Every route reads the one rho: its validation and Wootters' square root are the two eigensolves.
        callers = count_callers(monkeypatch, state_mod.build_rho, smallmat_mod.herm_eigen)
        code, _, _ = run(capsys, "analyze", "--preset", "balanced_mixing(0.6)", "--alpha-sq", "0.5")
        assert code == 0
        assert len(callers["build_rho"]) == 1
        assert len(callers["herm_eigen"]) == 2

    def test_gram_invariants_derived_once(self, capsys, monkeypatch):
        # The coincidence denominator, the closed concurrence and the closed
        # spectrum all read the invariants of the one hybrid matrix.
        calls = []
        original = scattering_mod.gram_invariants
        monkeypatch.setattr(scattering_mod, "gram_invariants", lambda *a: calls.append(a) or original(*a))
        code, _, _ = run(capsys, "analyze", "--preset", "balanced_mixing(0.4)", "--alpha-sq", "0.6")
        assert code == 0
        assert len(calls) == 1

    def test_amplitude_invariants_derived_once(self, capsys, monkeypatch):
        # build_rho, the amplitude concurrence, the amplitude tensor and semi_polar all
        # read the traces the one GammaPair formed.
        calls = []
        original = scattering_mod.GammaPair.__post_init__
        monkeypatch.setattr(scattering_mod.GammaPair, "__post_init__", lambda g: calls.append(g) or original(g))
        code, _, _ = run(capsys, "analyze", "--preset", "balanced_mixing(0.4)", "--alpha-sq", "0.6")
        assert code == 0
        assert len(calls) == 1

    def test_identity_preset_reports_separable(self, capsys):
        code, out, _ = run(capsys, "analyze", "--preset", "identity", "--alpha-sq", "0.8")
        assert code == 0
        payload = json.loads(out)
        assert payload["concurrence"]["closed"] == 0.0
        assert payload["bell"]["violating"] is False

    def test_mixing_preset_with_argument(self, capsys):
        code, out, _ = run(capsys, "analyze", "--preset", "balanced_mixing(0.6)", "--alpha-sq", "0.5")
        assert code == 0
        payload = json.loads(out)
        hv_sq = np.sin(0.6) ** 2 / 4.0
        gram_im = payload["hybrid_gram"]["im"][1]
        gram_re = payload["hybrid_gram"]["re"][1]
        assert gram_re**2 + gram_im**2 == pytest.approx(hv_sq, abs=1e-12)

    def test_scattering_file(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(mat_to_json(np.eye(4))))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scattering": {"file": str(path)}, "alpha": {"alpha_sq": 0.5}}))
        code, out, _ = run(capsys, "analyze", "--config", str(config))
        assert code == 0
        assert json.loads(out)["concurrence"]["closed"] == 0.0

    def test_zero_coincidence_exit_code(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(mat_to_json(NO_COINCIDENCE_S)))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scattering": {"file": str(path)}, "alpha": {"alpha_sq": 0.5}}))
        code, _, err = run(capsys, "analyze", "--config", str(config))
        assert code == 3
        assert "empty postselected ensemble" in err

    def test_missing_alpha_source(self, capsys):
        code, _, err = run(capsys, "analyze", "--preset", "balanced_pc")
        assert code == 2
        assert "alpha" in err

    def test_conflicting_alpha_sources(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "scattering": {"preset": "balanced_pc"},
                    "alpha": {
                        "alpha_sq": 0.5,
                        "psi": {"gaussian": {"center": 0.0, "width": 1.0}},
                        "phi": {"gaussian": {"center": 0.0, "width": 1.0}},
                    },
                }
            )
        )
        code, _, err = run(capsys, "analyze", "--config", str(config))
        assert code == 2
        assert "exactly one alpha source" in err

    def test_bad_statistics_in_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"statistics": "anyonic"}))
        code, _, err = run(capsys, "analyze", "--config", str(config), "--preset", "balanced_pc", "--alpha-sq", "0.5")
        assert code == 2
        assert "statistics must be 'bosonic' or 'fermionic'" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--config", "/nonexistent/cfg.json")
        assert code == 2

    def test_bad_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"rows": 4, "cols": 4, "re": [0.0], "im": [0.0]}))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scattering": {"file": str(path)}, "alpha": {"alpha_sq": 1.0}}))
        code, _, err = run(capsys, "analyze", "--config", str(config))
        assert code == 2

    def test_gaussian_wavepackets_full_overlap(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "scattering": {"preset": "balanced_pc"},
                    "alpha": {
                        "psi": {"gaussian": {"center": 0.0, "width": 1.0, "delay": 0.0}},
                        "phi": {"gaussian": {"center": 0.0, "width": 1.0, "delay": 0.0}},
                        "window": "infinite",
                    },
                }
            )
        )
        code, out, _ = run(capsys, "analyze", "--config", str(config))
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"]["alpha_sq"] == pytest.approx(1.0, abs=1e-10)
        assert payload["alpha"]["source"] == "wavepackets"

    def test_far_delay_gaussians_are_distinguishable(self, tmp_path, capsys):
        # Two unit-width packets 50 widths apart: |alpha|^2 = exp(-2500), 0 in floats. The
        # Simpson doubling aliased the 50 s beat and printed 0.932 for both numbers.
        config = tmp_path / "cfg.json"
        alpha = gaussian_pair(1.0, 50.0, "infinite")
        config.write_text(json.dumps({"scattering": {"preset": "balanced_pc"}, "alpha": alpha}))
        code, out, err = run(capsys, "analyze", "--config", str(config))
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["alpha"]["alpha_sq"] <= 1e-14
        assert payload["concurrence"]["closed"] <= 1e-14

    def test_tau_flag_sets_window(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "scattering": {"preset": "balanced_pc"},
                    "alpha": {
                        "psi": {"gaussian": {"center": 0.0, "width": 1.0, "delay": -0.4}},
                        "phi": {"gaussian": {"center": 0.0, "width": 1.0, "delay": 0.4}},
                    },
                }
            )
        )
        code, out, _ = run(capsys, "analyze", "--config", str(config), "--tau", "0.001")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"]["alpha_sq"] >= 1.0 - 1e-4  # ultrashort window

    def test_maximally_entangled_mixing_preset_is_consistent(self, capsys):
        # A pure state with u1 = u2: the closed form must hold the 1e-8 gate here.
        code, out, _ = run(capsys, "analyze", "--preset", "balanced_mixing(0.9125512756378189)", "--alpha-sq", "1")
        assert code == 0
        bell = json.loads(out)["bell"]
        assert abs(bell["emax_closed"] - bell["emax_horodecki"]) <= 1e-10

    @pytest.mark.parametrize("offset", [1.2247e-7, 1.4e-7])
    def test_near_full_mixing_is_empty_ensemble(self, capsys, offset):
        preset = f"balanced_mixing({np.pi / 2 - offset!r})"
        code, _, err = run(capsys, "analyze", "--preset", preset, "--alpha-sq", "1")
        assert code == 3
        assert "empty postselected ensemble" in err

    def test_fermionic_statistics_changes_result(self, capsys):
        code_b, out_b, _ = run(
            capsys, "analyze", "--preset", "balanced_mixing(0.8)", "--alpha-sq", "0.9"
        )
        code_f, out_f, _ = run(
            capsys,
            "analyze",
            "--preset",
            "balanced_mixing(0.8)",
            "--alpha-sq",
            "0.9",
            "--statistics",
            "fermionic",
        )
        assert code_b == 0 and code_f == 0
        c_b = json.loads(out_b)["concurrence"]["closed"]
        c_f = json.loads(out_f)["concurrence"]["closed"]
        assert abs(c_b - c_f) > 1e-3

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "analyze", "--preset", "balanced_pc", "--alpha-sq", "0.3", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["alpha"]["alpha_sq"] == 0.3

    def test_env_profile(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLSPLIT_TOLERANCE_PROFILE", "strict")
        code, out, _ = run(capsys, "analyze", "--preset", "balanced_pc", "--alpha-sq", "0.5")
        assert code == 0
        assert json.loads(out)["tolerances"]["oracle"] == 1e-9

    def test_bad_env_profile(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLSPLIT_TOLERANCE_PROFILE", "bogus")
        code, _, err = run(capsys, "analyze", "--preset", "balanced_pc", "--alpha-sq", "0.5")
        assert code == 2

    @pytest.mark.parametrize("argv", [["scan", "--grid", "3x3"], ["verify", "--count", "1"]])
    def test_bad_env_profile_in_scan_and_verify(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("BELLSPLIT_TOLERANCE_PROFILE", "bogus")
        assert run(capsys, *argv) == (2, "", "error: unknown tolerance profile 'bogus'\n")

    def test_semi_polar_miss_exits_4(self, capsys, monkeypatch):
        # Tighten the ladder that semi_polar reads until its first cross-check misses.
        monkeypatch.setattr(decomp_mod, "DEFAULT_TOLERANCES", smallmat_mod.Tolerances(identity=1e-30))
        code, out, err = run(capsys, "analyze", "--preset", "balanced_mixing(0.6)", "--alpha-sq", "0.5")
        assert (code, out) == (4, "")
        assert err == "error: internal consistency failure: singular values inconsistent with the norm of gamma2\n"


class TestNearDegenerateXi:
    @pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
    def test_family_exits_0(self, tmp_path, capsys, statistics):
        # Under fermionic statistics the two xi values of gamma2 sit 7e-11 to 7e-5 apart.
        semis = []
        for s in mixing_times_drift(0.6, 5, np.logspace(-10.0, -4.0, 61)):
            path = tmp_path / "s.json"
            path.write_text(json.dumps(mat_to_json(s)))
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"scattering": {"file": str(path)}, "alpha": {"alpha_sq": 0.5}}))
            code, out, err = run(capsys, "analyze", "--config", str(config), "--statistics", statistics)
            assert (code, err) == (0, ""), err
            semis.append(json.loads(out)["semi_polar"])
        for semi in semis:
            if semi["degenerate"]:
                assert re.match(r"xi (values \S+, \S+ coincide within|gap \S+ is below) ", semi["reason"]), semi
            else:
                assert semi["xi"][0] - semi["xi"][1] >= 4.4e-6, semi
        # Bosonic statistics keep gamma2 far from degenerate here; fermionic ones cross the floor.
        assert {semi["degenerate"] for semi in semis} == ({False} if statistics == "bosonic" else {False, True})

    @pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
    def test_small_coupling_does_not_set_the_phase(self, tmp_path, capsys, statistics):
        # xi gap 1.9e-4 and |a01| / |a10| = 0.009 as fermions: a phase read from the small a01
        # fails the reconstruction gate (exit 4).
        s = mixing_times_drift(0.6, 15, np.logspace(-7.0, -3.0, 17))[14]
        (tmp_path / "s.json").write_text(json.dumps(mat_to_json(s)))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scattering": {"file": str(tmp_path / "s.json")}}))
        argv = ["analyze", "--config", str(config), "--alpha-sq", "0.5", "--statistics", statistics]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), err
        semi = json.loads(out)["semi_polar"]
        assert semi["degenerate"] is False
        if statistics == "fermionic":
            assert 1e-4 < semi["xi"][0] - semi["xi"][1] < 3e-4


def gaussian_pair(width, delay, window):
    packet = {"center": 0.0, "width": width}
    return {
        "psi": {"gaussian": dict(packet, delay=0.0)},
        "phi": {"gaussian": dict(packet, delay=delay)},
        "window": window,
    }


class TestRidgeOracle:
    # Inputs from the analyze benchmark on the u2 ~ u3 ridge, where the former
    # grid-search oracle stopped 5.7e-4 to 1.3e-3 below the Horodecki value.
    @pytest.mark.parametrize(
        "theta, width, delay, window",
        [
            (0.5373154235858433, 1.0635631724013423, 1.3108963258165072,
             {"t": 0.6554481629082536, "tau": 3.081245129162698}),
            (0.545332243320477, 1.0313578966031731, 1.3182112492074984, "infinite"),
            (0.4483639999510366, 1.4879550736337388, 1.2126101974516312,
             {"t": 0.6063050987258156, "tau": 1.3347020330709252}),
        ],
        ids=["finite-window-1", "infinite-window", "finite-window-2"],
    )
    def test_bruteforce_reaches_horodecki(self, tmp_path, capsys, theta, width, delay, window):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "scattering": {"preset": "balanced_mixing", "theta": theta},
                    "alpha": gaussian_pair(width, delay, window),
                    "statistics": "bosonic",
                }
            )
        )
        code, out, _ = run(capsys, "analyze", "--config", str(config))
        assert code == 0
        b = json.loads(out)["bell"]
        assert b["emax_horodecki"] - b["emax_bruteforce"] <= 1e-4
        assert b["emax_bruteforce"] - b["emax_horodecki"] <= 1e-6


class TestMalformedConfig:
    # Each of these ended in a traceback; each must now exit 2 naming its field.
    @pytest.mark.parametrize(
        "scattering, alpha, field",
        [
            ({"preset": "balanced_pc"}, gaussian_pair(1.0, 1.0, {"t": 0.5, "tau": 0.0}), "tau"),
            ({"preset": "balanced_pc"}, gaussian_pair(1.0, 1.0, {"t": 0.5, "tau": -1.0}), "tau"),
            ({"preset": "balanced_mixing", "theta": "abc"}, {"alpha_sq": 0.5}, "theta"),
            ({"preset": "balanced_pc"}, gaussian_pair(1e-300, 1.0, "infinite"), "width"),
            ({"preset": "balanced_pc"}, 0.5, "alpha"),
            ({"preset": "balanced_pc"}, gaussian_pair(1e200, 0.0, "infinite"), "width"),
            ({"preset": "balanced_pc"}, {"alpha_sq": [0.5]}, "alpha_sq"),
            ({"preset": "balanced_mixing", "theta": [1, 2]}, {"alpha_sq": 0.5}, "theta"),
            (5, {"alpha_sq": 0.5}, "scattering"),
            ({"preset": "balanced_pc"}, dict(gaussian_pair(1.0, 1.0, "infinite"), psi=0.5), "psi"),
            # tau = inf exited 3 ("window [-inf, inf] holds no amplitude"), and an
            # infinite center exited 0 with alpha = 0.
            ({"preset": "balanced_pc"}, gaussian_pair(1.0, 1.0, {"t": 0.5, "tau": np.inf}), "tau"),
            ({"preset": "balanced_pc"}, dict(gaussian_pair(1.0, 1.0, "infinite"),
                                             psi={"gaussian": {"center": np.inf, "width": 1.0}}), "center"),
        ],
        ids=[
            "tau-zero", "tau-negative", "theta-string", "width-underflow", "alpha-number",
            "width-overflow", "alpha_sq-list", "theta-list", "scattering-number", "psi-number",
            "tau-infinite", "center-infinite",
        ],
    )
    def test_exits_2_naming_the_field(self, tmp_path, capsys, scattering, alpha, field):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scattering": scattering, "alpha": alpha}))
        code, out, err = run(capsys, "analyze", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and field in err

    def test_alpha_number_with_tau_flag(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scattering": {"preset": "balanced_pc"}, "alpha": 0.5}))
        code, _, err = run(capsys, "analyze", "--config", str(config), "--tau", "1.0")
        assert code == 2
        assert "'alpha'" in err

    # These exited 0 as if no angle were given, reporting scattering_source "preset:balanced_pc(1)".
    @pytest.mark.parametrize(
        "scattering, name",
        [("balanced_pc(1)", "balanced_pc"), ("identity(7)", "identity"), ({"preset": "balanced_pc", "theta": 1}, "balanced_pc")],
        ids=["balanced_pc-flag", "identity-flag", "balanced_pc-config"],
    )
    def test_preset_without_angle_rejects_one(self, tmp_path, capsys, scattering, name):
        if isinstance(scattering, str):
            argv = ["--preset", scattering, "--alpha-sq", "0.5"]
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"scattering": scattering, "alpha": {"alpha_sq": 0.5}}))
            argv = ["--config", str(config)]
        code, out, err = run(capsys, "analyze", *argv)
        assert code == 2
        assert out == ""
        assert f"preset '{name}' takes no angle" in err

    def test_non_string_preset(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scattering": {"preset": 5}, "alpha": {"alpha_sq": 0.5}}))
        code, _, err = run(capsys, "analyze", "--config", str(config))
        assert code == 2
        assert "unknown preset '5'" in err

    @pytest.mark.parametrize(
        "scattering, alpha, message",
        [
            ({"file": ["a"]}, {"alpha_sq": 0.5}, "scattering 'file' must be a file path string, got ['a']"),
            # An integer was opened as a file descriptor: 0 read the matrix from stdin.
            ({"file": 0}, {"alpha_sq": 0.5}, "scattering 'file' must be a file path string, got 0"),
            ({"preset": "balanced_pc"}, dict(gaussian_pair(1.0, 1.0, "infinite"), psi={"csv": ["a"]}),
             "'psi' 'csv' must be a file path string, got ['a']"),
            ({"preset": "balanced_pc"}, dict(gaussian_pair(1.0, 1.0, "infinite"), phi={"csv": 0}),
             "'phi' 'csv' must be a file path string, got 0"),
        ],
        ids=["file-list", "file-descriptor", "csv-list", "csv-descriptor"],
    )
    def test_non_string_path(self, tmp_path, capsys, scattering, alpha, message):
        # A list ended in a TypeError traceback (exit 1).
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scattering": scattering, "alpha": alpha}))
        code, out, err = run(capsys, "analyze", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "alpha, message",
        [
            (dict(gaussian_pair(1.0, 1.0, "infinite"), psi={"gaussian": 1.0}),
             "'psi' 'gaussian' must be a JSON object, got 1.0"),
            (dict(gaussian_pair(1.0, 1.0, "infinite"), phi={"gaussian": [1.0]}),
             "'phi' 'gaussian' must be a JSON object, got [1.0]"),
            (gaussian_pair(1.0, 1.0, "finite"),
             "window must be 'infinite' or an object with 't' and 'tau', got 'finite'"),
            (gaussian_pair(1.0, 1.0, {"tau": 1.0}),
             "window must be 'infinite' or an object with 't' and 'tau', got {'tau': 1.0}"),
        ],
        ids=["gaussian-number", "gaussian-list", "window-string", "window-without-t"],
    )
    def test_message_names_the_field_not_python(self, tmp_path, capsys, alpha, message):
        # These exited 2 with Python's text ("not subscriptable", "string indices").
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scattering": {"preset": "balanced_pc"}, "alpha": alpha}))
        code, out, err = run(capsys, "analyze", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


    # A null or numeric payload ended in a TypeError traceback (exit 1); rows 4.5 was read as 4.
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"re": None, "im": None}, "'re' must be a flat list of numbers"),
            ({"re": 5}, "'re' must be a flat list of numbers"),
            ({"im": [[0.0] * 4] * 4}, "'im' must be a flat list of numbers"),
            ({"rows": 4.5}, "'rows' must be a positive integer, got 4.5"),
            ({"cols": 0}, "'cols' must be a positive integer, got 0"),
        ],
        ids=["re-null", "re-number", "im-nested", "rows-fraction", "cols-zero"],
    )
    def test_malformed_scattering_file(self, tmp_path, capsys, monkeypatch, fields, message):
        monkeypatch.chdir(tmp_path)
        matrix = {"rows": 4, "cols": 4, "re": np.eye(4).ravel().tolist(), "im": [0.0] * 16}
        Path("s.json").write_text(json.dumps({**matrix, **fields}))
        Path("cfg.json").write_text(json.dumps({"scattering": {"file": "s.json"}, "alpha": {"alpha_sq": 0.5}}))
        code, out, err = run(capsys, "analyze", "--config", "cfg.json")
        assert (code, out) == (2, "")
        assert err == f"error: bad scattering file s.json: {message}\n"

    # A descending grid read "cannot normalize a zero packet"; a repeated node gave the
    # right text only after three numpy RuntimeWarnings.
    @pytest.mark.parametrize("omega", [[3.0, 2.0, 1.0], [1.0, 2.0, 2.0, 3.0]], ids=["descending", "repeated"])
    def test_bad_packet_grid(self, tmp_path, capsys, recwarn, omega):
        packet = tmp_path / "phi.csv"
        packet.write_text("omega,re,im\n" + "".join(f"{w},1.0,0.0\n" for w in omega))
        alpha = dict(gaussian_pair(1.0, 1.0, "infinite"), phi={"csv": str(packet)})
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scattering": {"preset": "balanced_pc"}, "alpha": alpha}))
        code, out, err = run(capsys, "analyze", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "error: frequency grid must be strictly increasing\n"
        assert recwarn.list == []

    @pytest.mark.parametrize(
        "text, message",
        [
            ("omega,re,im\n0.0,1.0,0.0\n1.0,abc,0.0\n", "phi.csv:3: could not convert string to float: 'abc'"),
            ("omega,re,im\n\n0.0,1.0\n1.0,1.0,0.0\n", "phi.csv:3: expected 3 columns, got 2"),
            ("omega,re,im\n0.0,1.0,0.0,2.0\n", "phi.csv:2: expected 3 columns, got 4"),
            ("w,re,im\n0.0,1.0,0.0\n", "phi.csv: expected header 'omega,re,im', got ['w', 're', 'im']"),
            ("", "phi.csv: empty file"),
            ("omega,re,im\n0.0,1.0,0.0\n", "phi.csv: need at least two samples"),
            # A nan frequency read "frequency grid must be strictly increasing".
            ("omega,re,im\n0.0,1.0,0.0\nnan,1.0,0.0\n2.0,1.0,0.0\n", "samples must be finite"),
            ("omega,re,im\n0.0,0.0,0.0\n1.0,0.0,0.0\n", "cannot normalize a packet whose integral |amp|^2 is 0.0"),
            # |amp|^2 overflows to inf: rejected, where dividing by it would scale the packet to zero.
            ("omega,re,im\n0.0,1e160,0.0\n1.0,1e160,0.0\n", "cannot normalize a packet whose integral |amp|^2 is inf"),
        ],
        ids=["bad-number", "short-row", "long-row", "header", "empty", "one-sample", "nan-omega", "zero", "overflow"],
    )
    def test_bad_packet_file_message(self, tmp_path, capsys, monkeypatch, text, message):
        monkeypatch.chdir(tmp_path)
        Path("phi.csv").write_text(text)
        alpha = dict(gaussian_pair(1.0, 1.0, "infinite"), phi={"csv": "phi.csv"})
        Path("cfg.json").write_text(json.dumps({"scattering": {"preset": "balanced_pc"}, "alpha": alpha}))
        code, out, err = run(capsys, "analyze", "--config", "cfg.json")
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


class TestScan:
    def test_small_grid_shape(self, capsys):
        code, out, _ = run(capsys, "scan", "--grid", "10x10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha_sq,hv_sq,concurrence,emax,branch,region"
        assert len(lines) == 101

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "scan", "--grid", "10by10")
        assert code == 2

    def test_byte_identical_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "scan", "--grid", "25x25", "--out", str(a))[0] == 0
        assert run(capsys, "scan", "--grid", "25x25", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_strict_stderr_prints_the_ladder_scan_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLSPLIT_TOLERANCE_PROFILE", "strict")
        code, out, err = run(capsys, "scan", "--grid", "4x4")
        monkeypatch.delenv("BELLSPLIT_TOLERANCE_PROFILE")
        assert (code, out) == run(capsys, "scan", "--grid", "4x4")[:2]
        assert err.endswith(" scan 4x4 statistics=bosonic tolerance_profile=strict oracle_tol=1e-08\n"), err

    def test_fermionic_scan_differs(self, tmp_path, capsys):
        a, b = tmp_path / "bos.csv", tmp_path / "fer.csv"
        run(capsys, "scan", "--grid", "12x12", "--out", str(a))
        run(capsys, "scan", "--grid", "12x12", "--statistics", "fermionic", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()


class TestVerify:
    def test_strict_header_prints_the_ladder_verify_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLSPLIT_TOLERANCE_PROFILE", "strict")
        code, out, _ = run(capsys, "verify", "--count", "1")
        assert code == 0
        header, _, *rows = out.splitlines()
        printed = dict(field.split("=") for field in header.split("tolerances ")[1].split())
        column = {row.split()[0]: float(row.split()[3]) for row in rows[:-1]}
        rungs = {"construction": "mandel_identity", "identity": "trace_identities", "oracle": "concurrence_wootters"}
        assert {rung: float(printed[rung]) for rung in rungs} == {rung: column[suite] for rung, suite in rungs.items()}

    def test_small_campaign_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--count", "3", "--seed", "123")
        assert code == 0
        assert "overall: PASS" in out
        assert "bell_spectrum" in out

    def test_amplitude_invariants_derived_twice_per_instance(self, capsys, monkeypatch):
        # Once for the instance's pair, read at every alpha of the ladder, and once inside
        # trace_identities, which takes both routes afresh from the splitter.
        calls = []
        original = scattering_mod.GammaPair.__post_init__
        monkeypatch.setattr(scattering_mod.GammaPair, "__post_init__", lambda g: calls.append(g) or original(g))
        code, _, _ = run(capsys, "verify", "--count", "4", "--seed", "3")
        assert code == 0
        assert len(calls) == 2 * 4

    def test_zero_count_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--count", "0")
        assert code == 2

    def test_negative_seed_usage_error(self, capsys):
        # PCG64 rejects a negative seed; it ended in a traceback with exit 1.
        code, out, err = run(capsys, "verify", "--count", "2", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: --seed must be nonnegative, got -1\n"

    def test_byte_identical_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(capsys, "verify", "--count", "3", "--seed", "5", "--out", str(a))[0] == 0
        assert run(capsys, "verify", "--count", "3", "--seed", "5", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_corrupted_build_detected(self, capsys, monkeypatch):
        # Negative control: a sign error in a closed form must trip the campaign.
        original = verify_mod.state.concurrence_closed

        def corrupted(x, alpha_sq, statistics="bosonic"):
            return original(x, alpha_sq, statistics) + 1e-3

        monkeypatch.setattr(verify_mod.state, "concurrence_closed", corrupted)
        code, out, _ = run(capsys, "verify", "--count", "2", "--seed", "9")
        assert code == 1
        assert "FAIL" in out

    def test_raising_instance_is_a_fail_row(self, capsys, monkeypatch):
        # An exception inside a suite used to escape as a traceback.
        original = verify_mod.scattering.polar_decompose_s

        def raising(sm):
            if np.allclose(sm.s, verify_mod.haar_unitary(4, 10)):
                raise RuntimeError("planted")  # reported with this line's number
            return original(sm)

        monkeypatch.setattr(verify_mod.scattering, "polar_decompose_s", raising)
        code, out, err = run(capsys, "verify", "--count", "3", "--seed", "9")
        assert (code, err) == (1, "")
        lineno = raising.__code__.co_firstlineno + 2
        # The instance's own alpha: the ladder had ended on it when the polar suite raised.
        alpha = float(np.random.Generator(np.random.PCG64(9)).uniform(0.0, 1.0, size=3)[1])
        rows = [line.split(None, 5) for line in out.splitlines() if line.startswith("raised")]
        assert rows == [[
            "raised", "1", "inf", "0.0e+00", "FAIL",
            f"instance seed=10 alpha_sq={alpha!r}: RuntimeError: planted (in raising, test_cli.py:{lineno})",
        ]]
        assert out.splitlines()[-1] == "overall: FAIL"
        polar = [line.split() for line in out.splitlines() if line.startswith("polar_roundtrip")]
        assert polar[0][:2] == ["polar_roundtrip", "2"]  # the other two instances still ran

    def test_raise_on_the_ladder_names_its_alpha(self, capsys, monkeypatch):
        original = verify_mod.state.build_rho

        def raising(g, alpha_sq, *args):
            if alpha_sq == 0.5:
                raise ValueError("planted")
            return original(g, alpha_sq, *args)

        monkeypatch.setattr(verify_mod.state, "build_rho", raising)
        code, out, _ = run(capsys, "verify", "--count", "2", "--seed", "3")
        assert code == 1
        notes = [line.split("FAIL", 1)[1].split(" (in ")[0] for line in out.splitlines() if line.startswith("raised")]
        assert notes == [f"    instance seed={s} alpha_sq=0.5: ValueError: planted" for s in (3, 4)]

    def test_ladder_step_is_one_evaluation(self, monkeypatch):
        routes = (state_mod.mandel_dip, state_mod.build_rho, bell_mod.u_eigen_closed)
        callers = count_callers(monkeypatch, *routes, smallmat_mod.herm_eigen)
        results = verify_mod.run_campaign(1, 5)
        assert all(r.passed for r in results)
        steps = len(verify_mod.ALPHA_LADDER) + 1
        assert [len(callers[fn.__name__]) for fn in routes] == [steps] * 3
        # The state's own validation found its eigenvalues; the campaign reads them.
        assert "run_campaign" not in callers["herm_eigen"]

    def test_report_bytes_unchanged_without_raises(self):
        results = verify_mod.run_campaign(2, 4)
        assert all(r.note == "" for r in results)
        assert "raised" not in verify_mod.format_report(results)


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unconverged_quadrature_exits_2(self, tmp_path, capsys):
        # Carriers 1e6 apart beat faster than 2^14 nodes per window resolve.
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "scattering": {"preset": "balanced_pc"},
                    "alpha": {
                        "psi": {"gaussian": {"center": 0.0, "width": 1.0}},
                        "phi": {"gaussian": {"center": 1e6, "width": 1.0}},
                        "window": {"t": 0.0, "tau": 2.0},
                    },
                }
            )
        )
        code, out, err = run(capsys, "analyze", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == (
            "error: integral over [-1, 1] is out of reach: its 1.00002e+06 rad/s beat needs more than "
            "682 panels of 24 Gauss-Legendre nodes\n"
        )

    def test_infinite_window_beat_past_the_cap_exits_2(self, tmp_path, capsys):
        # A 200 s relative delay at unit width needs 32,000 panels over the 16 rad/s wide support.
        config = tmp_path / "cfg.json"
        alpha = gaussian_pair(1.0, 200.0, "infinite")
        config.write_text(json.dumps({"scattering": {"preset": "balanced_pc"}, "alpha": alpha}))
        code, out, err = run(capsys, "analyze", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == (
            "error: integral over [-8, 8] is out of reach: its 200 s delay beat needs more than "
            "16384 panels of 4 Gauss-Legendre nodes\n"
        )

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_parser_is_built_once(self, capsys):
        argvs = [
            ["analyze", "--preset", "balanced_pc", "--alpha-sq", "0.3"],
            ["scan", "--grid", "3x4", "--statistics", "fermionic"],
            ["verify", "--count", "1", "--seed", "3"],
            ["scan", "--grid", "3x3", "--statistics", "anyonic"],
            ["analyze", "--alpha-sq", "half"],
            ["frobnicate"],
            ["scan", "--help"],
            [],
        ]
        fresh = []
        for argv in argvs:
            cli_mod.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        cli_mod.build_parser.cache_clear()
        reused = [run(capsys, *argv) for argv in argvs]
        assert cli_mod.build_parser.cache_info().misses == 1
        assert reused == fresh
