"""Load a workload's generated input files through bellsplit's own loaders.

Imported by the benchmark, and also run as a fresh child process to time
set-up: ``python3 bench/loader.py <workdir>`` imports bellsplit from the
checkout's ``src/``, loads every matrix JSON and packet CSV in ``workdir``,
prints ``ready <files>`` and exits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_inputs(workdir: Path) -> dict[str, object]:
    """Every ``*.matrix.json`` as an array and every ``*.csv`` as a TabulatedPacket, by file name."""
    from bellsplit import smallmat, wavepacket

    loaded: dict[str, object] = {}
    for path in sorted(workdir.glob("*.matrix.json")):
        with open(path) as fh:
            loaded[path.name] = smallmat.mat_from_json(json.load(fh))
    for path in sorted(workdir.glob("*.csv")):
        loaded[path.name] = wavepacket.read_packet_csv(path)[0]
    return loaded


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    print(f"ready {len(load_inputs(Path(sys.argv[1])))}", flush=True)
