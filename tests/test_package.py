import contextlib
import io
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bellsplit


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


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # The Gauss-Legendre nodes come from a 24 x 24 eigh on first use; numpy.polynomial
    # (leggauss) would add ~6 ms to every start-up.
    src = str(Path(bellsplit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, bellsplit.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
