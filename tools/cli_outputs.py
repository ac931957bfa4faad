"""Record the CLI's bytes on a fixed comparison set, for a byte-identity check between two trees.

Usage:

    python tools/cli_outputs.py SRC OUT

imports ``bellsplit`` from the source directory SRC, runs every entry of the
set in-process through ``cli.main``, once under each ``BELLSPLIT_TOLERANCE_PROFILE``
(``default``, then ``strict``), and writes one JSON line per run to OUT:
``{"profile", "argv", "exit", "stdout", "stderr"}``. Run it once per tree and
``diff`` the two files; any difference is a change in what the CLI prints or
returns.

The set: ``analyze`` on 8 presets x 6 alphas, on 12 Haar-random splitter
files x 4 alphas and on wavepacket configs (Gaussian x CSV in both windows,
Gaussian x Gaussian at an ordinary and a far delay, ``packet.csv`` x
``packet_wide.csv`` on interleaved grids in both windows (``packets_csv``,
``packets_csv_finite``) and ``packet.csv`` x ``packet_delayed.csv``, its grid
and amplitude times exp(-0.7 i w), in both windows (``packets_same_grid``,
``packets_same_grid_finite``); all under both statistics), a few
malformed scattering and packet files, ``scan --grid 60x60`` under both
statistics, ``verify --count 25`` at four seeds and, last, the empty-corner
sweep: ``analyze --preset "balanced_mixing(theta)" --alpha-sq 1`` at
theta = pi/2 - d for 26 log-spaced d in [1e-8, 1e-3] under both statistics,
with theta passed as its float ``repr``. Near d = 0 the postselected
ensemble empties and the closed forms lose precision, so that sweep records
the exits and messages of that corner. Then the near-degenerate family:
``analyze --alpha-sq 0.5`` under both statistics on 13 splitter files
S = B V diag(exp(i d w)) V†, with B the balanced_mixing(0.6) matrix, (w, V)
the eigensystem of the Hermitian part of a complex Gaussian 4x4 matrix drawn
from ``default_rng(5)``, and d every fifth of 61 log-spaced values in
[1e-10, 1e-4]. Under fermionic statistics the two xi values of gamma2 there
sit 7e-11 to 7e-5 apart, so those records hold what the joint
factorization reports near its degenerate surface. Last, the small-coupling
family: the same command on 7 files built the same way from
``default_rng(15)`` with d the 9th to 15th of 17 log-spaced values in
[1e-7, 1e-3]. As fermions their xi gaps run from 6.0e-6 to 1.9e-4 and the
rotated gamma1's two couplings differ in modulus about 110-fold, so those
records show which coupling sets the factorization's phase. The input files are
written into a fresh working directory and passed by relative name, so
``scattering_source`` and every message read the same on both trees. An
exception that escapes ``cli.main`` is recorded as exit 1 with its last line,
as the console script would end.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np

MIXING_ANGLES = (0.2, 0.6, 1.0, 1.3, 1.5707963267948966, 2.5)
PRESETS = ("identity", "balanced_pc") + tuple(f"balanced_mixing({t})" for t in MIXING_ANGLES)
PRESET_ALPHAS = (0.0, 0.2, 0.37, 0.5, 0.8, 1.0)
HAAR_SEEDS = range(12)
HAAR_ALPHAS = (0.1, 0.4, 0.7, 1.0)
STATISTICS = ("bosonic", "fermionic")
VERIFY_SEEDS = (0, 7, 31, 100)
PACKET_CONFIGS = ("infinite", "finite", "gauss", "gauss_far", "csv", "csv_finite", "same_grid", "same_grid_finite")
CORNER_DISTANCES = tuple(float(d) for d in np.logspace(-8.0, -3.0, 26))
NEAR_DEGENERATE_STEPS = tuple(float(d) for d in np.logspace(-10.0, -4.0, 61)[::5])
SMALL_COUPLING_STEPS = tuple(float(d) for d in np.logspace(-7.0, -3.0, 17)[8:15])
PROFILES = ("default", "strict")


def _haar(seed: int) -> np.ndarray:
    # QR of a complex Ginibre matrix with the phases of R's diagonal removed; drawn here, not by
    # the package under test, so both trees read the same files.
    rng = np.random.Generator(np.random.PCG64(seed))
    q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _near_degenerate(step: float, seed: int = 5) -> np.ndarray:
    # balanced_mixing(0.6) times exp(i step H) for the random Hermitian H of ``seed``, built here with numpy alone.
    c, s = math.cos(0.6), math.sin(0.6)
    rot, eye = np.array([[c, -s], [s, c]]), np.eye(2)
    mixing = np.block([[eye, 1j * rot], [1j * rot.T, eye]]) / math.sqrt(2.0)
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return mixing @ v @ np.diag(np.exp(1j * step * w)) @ v.conj().T


def _matrix_json(m: np.ndarray) -> dict:
    return {"rows": 4, "cols": 4, "re": [float(x) for x in m.real.ravel()], "im": [float(x) for x in m.imag.ravel()]}


def _packet_csv(omega, amp) -> str:
    return "omega,re,im\n" + "".join(f"{w!r},{complex(a).real!r},{complex(a).imag!r}\n" for w, a in zip(omega, amp))


def write_inputs(workdir: Path) -> None:
    """Write every input file of the set into ``workdir``."""
    for seed in HAAR_SEEDS:
        (workdir / f"haar{seed}.json").write_text(json.dumps(_matrix_json(_haar(seed))))
        (workdir / f"haar{seed}_cfg.json").write_text(json.dumps({"scattering": {"file": f"haar{seed}.json"}}))
    omega = np.linspace(-6.0, 6.0, 201).tolist()
    (workdir / "packet.csv").write_text(_packet_csv(omega, [math.exp(-w * w / 2.0) for w in omega]))
    delayed = [math.exp(-w * w / 2.0) * complex(math.cos(0.7 * w), -math.sin(0.7 * w)) for w in omega]
    (workdir / "packet_delayed.csv").write_text(_packet_csv(omega, delayed))
    shifted = np.linspace(-7.0, 5.0, 161).tolist()  # its nodes interleave with packet.csv's
    (workdir / "packet_wide.csv").write_text(_packet_csv(shifted, [math.exp(-w * w / 3.0) for w in shifted]))
    (workdir / "descending.csv").write_text(_packet_csv([3.0, 2.0, 1.0], [0.5, 1.0, 0.5]))
    (workdir / "repeated.csv").write_text(_packet_csv([1.0, 2.0, 2.0, 3.0], [0.5, 1.0, 1.0, 0.5]))
    bad = {"re_null": {"re": None, "im": None}, "re_number": {"re": 5}, "rows_fraction": {"rows": 4.5}}
    for name, fields in bad.items():
        (workdir / f"{name}.json").write_text(json.dumps({**_matrix_json(np.eye(4)), **fields}))
    gaussian = {"gaussian": {"center": 0.0, "width": 1.0, "delay": 0.3}}
    window, same_grid = {"t": 0.1, "tau": 2.5}, {"csv": "packet_delayed.csv"}
    configs = {
        "packets_infinite": {"psi": gaussian, "phi": {"csv": "packet.csv"}, "window": "infinite"},
        "packets_finite": {"psi": gaussian, "phi": {"csv": "packet.csv"}, "window": window},
        "packets_gauss": {"psi": gaussian, "phi": {"gaussian": {"center": 0.0, "width": 1.0, "delay": 1.4}}},
        "packets_gauss_far": {"psi": gaussian, "phi": {"gaussian": {"center": 0.0, "width": 1.0, "delay": 50.3}}},
        "packets_csv": {"psi": {"csv": "packet.csv"}, "phi": {"csv": "packet_wide.csv"}, "window": "infinite"},
        "packets_csv_finite": {"psi": {"csv": "packet.csv"}, "phi": {"csv": "packet_wide.csv"}, "window": window},
        "packets_same_grid": {"psi": {"csv": "packet.csv"}, "phi": same_grid, "window": "infinite"},
        "packets_same_grid_finite": {"psi": {"csv": "packet.csv"}, "phi": same_grid, "window": window},
        "packets_descending": {"psi": gaussian, "phi": {"csv": "descending.csv"}},
        "packets_repeated": {"psi": gaussian, "phi": {"csv": "repeated.csv"}},
    }
    for name, alpha in configs.items():
        cfg = {"scattering": {"preset": "balanced_mixing", "theta": 0.6}, "alpha": alpha}
        (workdir / f"{name}.json").write_text(json.dumps(cfg))
    for name in bad:
        cfg = {"scattering": {"file": f"{name}.json"}, "alpha": {"alpha_sq": 0.5}}
        (workdir / f"{name}_cfg.json").write_text(json.dumps(cfg))
    for i, step in enumerate(NEAR_DEGENERATE_STEPS):
        (workdir / f"neardeg{i}.json").write_text(json.dumps(_matrix_json(_near_degenerate(step))))
        (workdir / f"neardeg{i}_cfg.json").write_text(json.dumps({"scattering": {"file": f"neardeg{i}.json"}}))
    for i, step in enumerate(SMALL_COUPLING_STEPS):
        (workdir / f"smallcoupling{i}.json").write_text(json.dumps(_matrix_json(_near_degenerate(step, seed=15))))
        cfg = {"scattering": {"file": f"smallcoupling{i}.json"}}
        (workdir / f"smallcoupling{i}_cfg.json").write_text(json.dumps(cfg))


def comparison_set() -> list[list[str]]:
    """Every argv of the set, in a fixed order."""
    runs = []
    for stats in STATISTICS:
        flag = ["--statistics", stats]
        runs += [["analyze", "--preset", p, "--alpha-sq", repr(a), *flag] for p in PRESETS for a in PRESET_ALPHAS]
        runs += [
            ["analyze", "--config", f"haar{s}_cfg.json", "--alpha-sq", repr(a), *flag]
            for s in HAAR_SEEDS
            for a in HAAR_ALPHAS
        ]
        runs += [["analyze", "--config", f"packets_{w}.json", *flag] for w in PACKET_CONFIGS]
    runs += [["analyze", "--config", f"{name}_cfg.json"] for name in ("re_null", "re_number", "rows_fraction")]
    runs += [["analyze", "--config", f"packets_{name}.json"] for name in ("descending", "repeated")]
    runs += [["scan", "--grid", "60x60", "--statistics", stats] for stats in STATISTICS]
    runs += [["verify", "--count", "25", "--seed", str(seed)] for seed in VERIFY_SEEDS]
    for stats in STATISTICS:
        runs += [
            ["analyze", "--preset", f"balanced_mixing({math.pi / 2.0 - d!r})", "--alpha-sq", "1", "--statistics", stats]
            for d in CORNER_DISTANCES
        ]
    for stats in STATISTICS:
        runs += [
            ["analyze", "--config", f"neardeg{i}_cfg.json", "--alpha-sq", "0.5", "--statistics", stats]
            for i in range(len(NEAR_DEGENERATE_STEPS))
        ]
    for stats in STATISTICS:
        runs += [
            ["analyze", "--config", f"smallcoupling{i}_cfg.json", "--alpha-sq", "0.5", "--statistics", stats]
            for i in range(len(SMALL_COUPLING_STEPS))
        ]
    return runs


@contextlib.contextmanager
def _profile(name: str):
    previous = os.environ.get("BELLSPLIT_TOLERANCE_PROFILE")
    os.environ["BELLSPLIT_TOLERANCE_PROFILE"] = name
    try:
        yield
    finally:
        if previous is None:
            del os.environ["BELLSPLIT_TOLERANCE_PROFILE"]
        else:
            os.environ["BELLSPLIT_TOLERANCE_PROFILE"] = previous


def record(main, argv: list[str], profile: str) -> dict:
    """Run ``main(argv)`` in-process under ``profile``; its exit code and the text it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(), _profile(profile):
        warnings.simplefilter("default")  # as a fresh process shows them: once per place, every run
        try:
            code = main(argv)
        except Exception as exc:
            err.write("".join(traceback.format_exception_only(exc)))
            code = 1
    return {"profile": profile, "argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run(src: str, out: str) -> int:
    """Write the records of the whole set for the tree whose package sits in ``src``."""
    sys.path.insert(0, str(Path(src).resolve()))
    from bellsplit import cli

    target = Path(out).resolve()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, open(target, "w") as fh:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            for profile in PROFILES:
                for argv in comparison_set():
                    fh.write(json.dumps(record(cli.main, argv, profile)) + "\n")
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(run(sys.argv[1], sys.argv[2]))
