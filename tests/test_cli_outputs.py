"""tools/cli_outputs.py, the byte-identity recorder, kept runnable on one entry per command."""

import importlib.util
import json
import os
from pathlib import Path

from bellsplit import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_entry_per_command(tmp_path, monkeypatch):
    tool = _tool()
    tool.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    runs = tool.comparison_set()
    picks = [
        next(argv for argv in runs if argv[0] == "analyze" and argv[2] == "haar0_cfg.json"),
        next(argv for argv in runs if argv[0] == "scan"),
        next(argv for argv in runs if argv[0] == "verify"),
    ]
    records = [json.loads(json.dumps(tool.record(cli.main, argv, "default"))) for argv in picks]
    assert [(r["profile"], r["argv"], r["exit"]) for r in records] == [("default", argv, 0) for argv in picks]
    analyze, scan, verify = records
    assert json.loads(analyze["stdout"])["scattering_source"] == "file:haar0.json"
    assert analyze["stderr"] == ""
    assert scan["stdout"].count("\n") == 1 + 60 * 60
    assert "overall: PASS" in verify["stdout"]


def test_strict_record_names_its_profile(tmp_path, monkeypatch):
    tool = _tool()
    tool.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BELLSPLIT_TOLERANCE_PROFILE", raising=False)
    assert tool.PROFILES == ("default", "strict")
    argv = next(argv for argv in tool.comparison_set() if argv[0] == "analyze" and argv[2] == "haar0_cfg.json")
    strict = json.loads(json.dumps(tool.record(cli.main, argv, "strict")))
    assert (strict["profile"], strict["argv"], strict["exit"], strict["stderr"]) == ("strict", argv, 0, "")
    assert json.loads(strict["stdout"])["tolerances"] == {"construction": 1e-12, "identity": 1e-11, "oracle": 1e-9}
    assert "BELLSPLIT_TOLERANCE_PROFILE" not in os.environ  # the record restores the environment


def test_near_degenerate_family_is_recorded(tmp_path, monkeypatch):
    tool = _tool()
    tool.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    runs = [argv for argv in tool.comparison_set() if argv[2].startswith("neardeg")]
    assert len(runs) == 2 * len(tool.NEAR_DEGENERATE_STEPS) == 26
    record = tool.record(cli.main, runs[-1], "default")
    assert (record["argv"][-1], record["exit"], record["stderr"]) == ("fermionic", 0, "")
    assert json.loads(record["stdout"])["semi_polar"]["degenerate"] is False
