"""Committed references (``perfbench/reference/*.json``).

Each workload class computes its reference with the scalar engine
(``reference_table()``); this module stores it under the workload's
name and the seed.  A run at a seed with no committed entry computes
the scalar reference itself, after the timed region.  Add or refresh
the entry of one seed with::

    python3 perfbench/run.py --workload repro-sweep --seed 7 --write-references
"""

from __future__ import annotations

import json

from . import common

DIR = common.ROOT / "perfbench" / "reference"


def load(filename: str, workload: str, seed: int) -> dict | None:
    """The committed table of ``workload`` at ``seed``, or None."""
    path = DIR / filename
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def write(workload) -> int:
    path = DIR / workload.reference_file
    table = json.loads(path.read_text()) if path.exists() else {}
    workload.setup()
    try:
        entry = workload.reference_table()
    finally:
        workload.close()
    table.setdefault(workload.name, {})[str(workload.seed)] = entry
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workload.name} seed {workload.seed} references to "
          f"{path.relative_to(common.ROOT)}")
    return 0
