import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import bellsplit
from bellsplit import bell, cli, regions, scattering, smallmat


def test_all_lists_only_reexported_public_names():
    names = set(bellsplit.__all__)
    assert len(names) == len(bellsplit.__all__)
    for name in names:
        assert not isinstance(getattr(bellsplit, name), types.ModuleType), name
    assert "annotations" not in names
    public = {
        name
        for name, value in vars(bellsplit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == public


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    if not README.exists():
        pytest.skip("README.md is not in this checkout")
    section = README.read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().split()
    numbers = [float(tok) for tok in printed if tok not in ("True", "False")]
    assert len(numbers) >= 2, printed
    assert all(math.isfinite(v) for v in numbers), printed


def _loaded_after_cli_import(prefix):
    """Sorted names of the modules starting with ``prefix`` that a fresh ``import bellsplit.cli`` loads."""
    src = str(Path(bellsplit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = f"import sys, bellsplit.cli; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout)


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # The Gauss-Legendre nodes come from a 24 x 24 eigh on first use; numpy.polynomial
    # (leggauss) would add ~6 ms to every start-up.
    assert _loaded_after_cli_import("numpy.polynomial") == []


TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODULES = ("bell", "cli", "decomp", "regions", "scattering", "smallmat", "state", "verify", "wavepacket")


def test_cli_import_loads_every_traced_module():
    # bench/tracing.py rebinds names only in the bellsplit modules loaded when it installs,
    # so a module that ``import bellsplit.cli`` left for later would escape the trace.
    loaded = _loaded_after_cli_import("bellsplit")
    assert loaded == ["bellsplit"] + [f"bellsplit.{name}" for name in MODULES]
    if not TRACING.exists():
        pytest.skip("bench/ is not in this checkout")
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.parse(TRACING.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]
    )
    assert {f"bellsplit.{name}" for name in traced} <= set(loaded)


def test_cli_commands_call_no_kron(monkeypatch):
    # The correlation tensor, the oracle's joint rotations and Wootters' spin flip come from
    # tables built at import or from broadcasting; a np.kron per trace made the tensor ~12x slower.
    calls = []
    kron = np.kron
    monkeypatch.setattr(np, "kron", lambda *args, **kwargs: calls.append(args) or kron(*args, **kwargs))
    for argv in (["verify", "--count", "2", "--seed", "0"], ["analyze", "--preset", "balanced_mixing(0.6)", "--alpha-sq", "0.37"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert calls == []


SRC = Path(bellsplit.__file__).resolve().parent

#: Definitions in src/bellsplit that no product path below reaches, and why each stays.
UNREACHED = {
    "smallmat.first_where": "names the failing cell when an array gate trips; error path only",
    "scattering.NotUnitary.__init__": "raised only for a matrix that is not unitary; error path only",
    "cli.entrypoint": "the console script; the paths below call cli.main",
    "state.PolarizationState.from_matrix": "tests build Bell, Werner and product states with it",
}


def _definitions() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every function and method in src/bellsplit.

    The first line is the one a code object reports: that of its first decorator, if any.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def _product_paths(tmp: Path) -> None:
    """The CLI commands on valid input and the library calls of the benchmark."""
    matrix = tmp / "s.json"
    matrix.write_text(json.dumps(smallmat.mat_to_json(smallmat.haar_unitary(4, 7))))
    omega = np.linspace(-6.0, 6.0, 201).tolist()
    packet = tmp / "phi.csv"
    packet.write_text("omega,re,im\n" + "".join(f"{w!r},{math.exp(-w * w / 2)!r},0.0\n" for w in omega))
    delayed = tmp / "phi_delayed.csv"  # the same grid, so the pair shares its kernels and amplitudes
    amp = [math.exp(-w * w / 2) * complex(math.cos(0.7 * w), -math.sin(0.7 * w)) for w in omega]
    delayed.write_text("omega,re,im\n" + "".join(f"{w!r},{a.real!r},{a.imag!r}\n" for w, a in zip(omega, amp)))
    gaussian = {"gaussian": {"center": 0.0, "width": 1.0, "delay": 0.3}}
    configs = [{"scattering": {"file": str(matrix)}, "alpha": {"alpha_sq": 0.4}, "statistics": "fermionic"}]
    csv, csv_delayed = {"csv": str(packet)}, {"csv": str(delayed)}
    for window in ("infinite", {"t": 0.1, "tau": 2.5}):
        for psi, phi in ((gaussian, csv), (csv, csv_delayed)):
            alpha = {"psi": psi, "phi": phi, "window": window}
            configs.append({"scattering": {"preset": "balanced_mixing", "theta": 0.6}, "alpha": alpha})
    runs = [["analyze", "--preset", p, "--alpha-sq", "0.37"] for p in ("identity", "balanced_pc", "balanced_mixing(0.3)")]
    for i, config in enumerate(configs):
        path = tmp / f"cfg{i}.json"
        path.write_text(json.dumps(config))
        runs.append(["analyze", "--config", str(path)])
    runs += [["scan", "--grid", "12x12", "--statistics", s] for s in scattering.STATISTICS]
    runs.append(["verify", "--count", "3"])
    for argv in runs:
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv + ["--out", str(tmp / "out")]) == 0, argv
    bell.emax(scattering.hybrid(scattering.preset("balanced_mixing", 0.6)), 0.5)
    regions.balanced_emax(regions.BalancedPoint(0.5, 0.1))


def test_every_definition_in_src_is_reached_by_a_product_path(tmp_path):
    # Code that only tests reach belongs in tests/, as a reference route or not at all.
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # A memoized function that an earlier test called would not be entered again.
    for module in [m for name, m in sys.modules.items() if name.startswith("bellsplit.")]:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _product_paths(tmp_path)
    finally:
        sys.setprofile(previous)
    reached = {(str(Path(f).resolve()), line) for f, line in reached}
    unreached = {name for key, name in _definitions().items() if key not in reached}
    assert sorted(unreached - UNREACHED.keys()) == [], "reached by no product path"
    assert sorted(UNREACHED.keys() - unreached) == [], "reached, so no longer an exception"
