import contextlib
import io
import math
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
