"""Command-line front end: analyze one configuration, scan the balanced slice, verify.

Exit codes are stable: 0 success, 1 invariant violation (verify), 2 usage or
configuration error, 3 empty postselected ensemble, 4 internal
numerical-consistency failure (independent routes disagree; always a bug,
never silent).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__, bell, decomp, regions, scattering, state, verify, wavepacket
from .decomp import DegenerateXi
from .smallmat import ConsistencyError, Tolerances, mat_from_json, mat_to_json
from .state import ZeroCoincidence

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_EMPTY_ENSEMBLE = 3
EXIT_INCONSISTENT = 4


class ConfigError(ValueError):
    """Invalid analysis configuration (bad flags, files, or field combinations)."""


def _tolerances_from_env() -> Tolerances:
    profile = os.environ.get("BELLSPLIT_TOLERANCE_PROFILE", "default")
    try:
        return Tolerances.from_profile(profile)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _number(value, field: str) -> float:
    """A config value as a finite float, or ConfigError naming ``field``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{field} must be a finite number, got {value!r}")
    return number


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{field} must be a JSON object, got {value!r}")
    return value


def _path(value, field: str) -> str:
    # open() and os.path.exists() also take a file descriptor or a bytes path.
    if not isinstance(value, str):
        raise ConfigError(f"{field} must be a file path string, got {value!r}")
    return value


def _parse_preset(text: str, theta: float | None = None) -> scattering.ScatteringMatrix:
    name = str(text).strip()
    if name.endswith(")") and "(" in name:
        base, arg = name[:-1].split("(", 1)
        try:
            theta = float(arg)
        except ValueError:
            raise ConfigError(f"bad preset argument in {text!r}") from None
        name = base
    try:
        return scattering.preset(name, theta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_scattering(cfg: dict) -> tuple[scattering.ScatteringMatrix, str]:
    if "preset" in cfg and "file" in cfg:
        raise ConfigError("scattering config must name a preset or a file, not both")
    if "preset" in cfg:
        theta = _number(cfg["theta"], "scattering 'theta'") if "theta" in cfg else None
        return _parse_preset(cfg["preset"], theta), f"preset:{cfg['preset']}"
    if "file" in cfg:
        path = _path(cfg["file"], "scattering 'file'")
        if not os.path.exists(path):
            raise ConfigError(f"scattering file not found: {path}")
        try:
            with open(path) as fh:
                payload = json.load(fh)
            matrix = mat_from_json(payload)
            return scattering.make_scattering(matrix), f"file:{path}"
        except (json.JSONDecodeError, ValueError, scattering.NotUnitary) as exc:
            raise ConfigError(f"bad scattering file {path}: {exc}") from None
    raise ConfigError("scattering config needs a 'preset' or 'file' entry")


def _load_packet(cfg: dict, field: str) -> wavepacket.Wavepacket:
    if "gaussian" in cfg:
        g = _object(cfg["gaussian"], f"{field} 'gaussian'")
        try:
            return wavepacket.GaussianPacket(
                center=float(g["center"]), width=float(g["width"]), delay=float(g.get("delay", 0.0))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad gaussian packet config: {exc}") from None
    if "csv" in cfg:
        path = _path(cfg["csv"], f"{field} 'csv'")
        if not os.path.exists(path):
            raise ConfigError(f"packet file not found: {path}")
        try:
            packet, _ = wavepacket.read_packet_csv(path)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return packet
    raise ConfigError("packet config needs a 'gaussian' or 'csv' entry")


def _resolve_alpha(cfg: dict) -> tuple[wavepacket.OverlapAlpha, str]:
    has_override = "alpha_sq" in cfg
    has_packets = "psi" in cfg or "phi" in cfg or "window" in cfg
    if has_override and has_packets:
        raise ConfigError("config must give exactly one alpha source: alpha_sq or wavepackets+window")
    if has_override:
        try:
            return wavepacket.OverlapAlpha.from_alpha_sq(_number(cfg["alpha_sq"], "'alpha_sq'")), "override"
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if not ("psi" in cfg and "phi" in cfg):
        raise ConfigError("wavepacket alpha source needs both 'psi' and 'phi' packets")
    psi = _load_packet(_object(cfg["psi"], "'psi'"), "'psi'")
    phi = _load_packet(_object(cfg["phi"], "'phi'"), "'phi'")
    window = cfg.get("window", "infinite")
    if window == "infinite":
        return wavepacket.alpha_infinite_window(psi, phi), "wavepackets"
    if not (isinstance(window, dict) and "t" in window and "tau" in window):
        raise ConfigError(f"window must be 'infinite' or an object with 't' and 'tau', got {window!r}")
    t, tau = _number(window["t"], "window 't'"), _number(window["tau"], "window 'tau'")
    try:
        return wavepacket.alpha_finite_window(psi, phi, t, tau), "wavepackets"
    except wavepacket.EmptyWindow as exc:
        raise ZeroCoincidence(str(exc)) from None
    except ValueError as exc:  # tau <= 0
        raise ConfigError(f"window 'tau': {exc}") from None


def _build_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    if args.preset:
        cfg["scattering"] = {"preset": args.preset}
    if args.alpha_sq is not None:
        cfg["alpha"] = {"alpha_sq": args.alpha_sq}
    if args.tau is not None:
        alpha_cfg = _object(cfg.get("alpha", {}), "'alpha'")
        if "alpha_sq" in alpha_cfg:
            raise ConfigError("--tau conflicts with a direct alpha_sq override")
        window = alpha_cfg.get("window")
        if not isinstance(window, dict):
            window = {"t": 0.0}
        window["tau"] = args.tau
        alpha_cfg["window"] = window
        cfg["alpha"] = alpha_cfg
    if args.statistics:
        cfg["statistics"] = args.statistics
    return cfg


def cmd_analyze(args) -> int:
    tolerances = _tolerances_from_env()
    cfg = _build_config(args)
    if "scattering" not in cfg:
        raise ConfigError("no scattering matrix configured (use --preset or a config file)")
    if "alpha" not in cfg:
        raise ConfigError("no alpha source configured (use --alpha-sq or config wavepackets)")
    statistics = cfg.get("statistics", "bosonic")
    try:
        scattering.check_statistics(statistics)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    sm, scattering_source = _load_scattering(_object(cfg["scattering"], "'scattering'"))
    alpha, alpha_source = _resolve_alpha(_object(cfg["alpha"], "'alpha'"))

    g = scattering.gammas(sm, statistics)
    x = scattering.hybrid(sm)
    a = alpha.alpha_sq

    report = state.concurrence_report(g, x, a)
    if abs(report.c_closed - report.c_wootters) > tolerances.oracle:
        raise ConsistencyError(
            f"concurrence routes disagree: closed {report.c_closed} vs generic {report.c_wootters}"
        )
    if abs(report.c_closed - report.c_gamma) > tolerances.identity:
        raise ConsistencyError(
            f"concurrence routes disagree: closed {report.c_closed} vs amplitude form {report.c_gamma}"
        )
    bell_report = bell.emax(x, a, gamma_pair=g, tol=tolerances.oracle)

    try:
        sp = decomp.semi_polar(g)
        semi = {
            "degenerate": False,
            "xi": [float(sp.xi[0]), float(sp.xi[1])],
            "c1": sp.c1,
            "c2": sp.c2,
            "c3": sp.c3,
        }
    except DegenerateXi as exc:
        semi = {"degenerate": True, "reason": str(exc)}

    payload = {
        "version": __version__,
        "tolerances": tolerances.as_dict(),
        "statistics": statistics,
        "scattering_source": scattering_source,
        "alpha": {
            "source": alpha_source,
            "alpha_re": alpha.alpha.real,
            "alpha_im": alpha.alpha.imag,
            "alpha_sq": a,
            "temporal_distinguishability": wavepacket.temporal_distinguishability(alpha),
        },
        "hybrid_gram": mat_to_json(x.gram),
        "concurrence": {
            "closed": report.c_closed,
            "gamma_form": report.c_gamma,
            "wootters": report.c_wootters,
        },
        "mandel": {
            "dip": report.mandel_dip,
            "coincidence_prob": report.coincidence_prob,
            "classical_prob": report.classical_prob,
        },
        "bell": bell_report.to_json(),
        "semi_polar": semi,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write_output(args.out, text)
    return EXIT_OK


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"grid must look like AxB, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"grid must look like AxB with integers, got {text!r}") from None
    if a < 2 or b < 2:
        raise ConfigError("grid needs at least 2 points per axis")
    return a, b


def cmd_scan(args) -> int:
    tolerances = _tolerances_from_env()
    n_alpha, n_hv = _parse_grid(args.grid)
    statistics = args.statistics or "bosonic"
    rows = regions.scan_grid(n_alpha, n_hv, statistics)
    _write_output(args.out, regions.scan_to_csv(rows))
    print(
        f"bellsplit {__version__} scan {n_alpha}x{n_hv} statistics={statistics} "
        f"tolerance_profile={os.environ.get('BELLSPLIT_TOLERANCE_PROFILE', 'default')} "
        f"oracle_tol={tolerances.oracle:g}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.count < 1:
        raise ConfigError(f"count must be at least 1, got {args.count}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    tolerances = _tolerances_from_env()
    results = verify.run_campaign(args.count, args.seed)
    header = (
        f"bellsplit {__version__} verify count={args.count} seed={args.seed} "
        f"tolerances construction={tolerances.construction:g} "
        f"identity={tolerances.identity:g} oracle={tolerances.oracle:g}\n"
    )
    _write_output(args.out, header + verify.format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_INVARIANT


def _write_output(out: str | None, text: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsplit",
        description="Polarization entanglement and CHSH violation of two-photon "
        "interference at a lossless beam splitter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a single configuration")
    p_analyze.add_argument("--config", help="JSON configuration file")
    p_analyze.add_argument("--preset", help="scattering preset, e.g. balanced_pc or balanced_mixing(0.5)")
    p_analyze.add_argument("--alpha-sq", type=float, dest="alpha_sq", help="direct |alpha|^2 override")
    p_analyze.add_argument("--tau", type=float, help="coincidence window width (with config wavepackets)")
    p_analyze.add_argument("--statistics", choices=scattering.STATISTICS)
    p_analyze.add_argument("--out", help="output path (default stdout)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_scan = sub.add_parser("scan", help="scan the balanced parameter plane to CSV")
    p_scan.add_argument("--grid", default="200x200", help="grid size AxB (alpha_sq x hv_sq points)")
    p_scan.add_argument("--statistics", choices=scattering.STATISTICS)
    p_scan.add_argument("--out", help="output path (default stdout)")
    p_scan.set_defaults(func=cmd_scan)

    p_verify = sub.add_parser("verify", help="run the random-matrix property campaign")
    p_verify.add_argument("--count", type=int, default=25, help="number of random instances")
    p_verify.add_argument("--seed", type=int, default=0, help="base seed of the ensemble")
    p_verify.add_argument("--out", help="output path (default stdout)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZeroCoincidence as exc:
        print(f"error: empty postselected ensemble: {exc}", file=sys.stderr)
        return EXIT_EMPTY_ENSEMBLE
    except ConsistencyError as exc:
        print(f"error: internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except wavepacket.QuadratureNotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
