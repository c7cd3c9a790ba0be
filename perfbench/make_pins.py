"""Regenerate ``perfbench/pins.json`` from single-process clean runs.

    python3 perfbench/make_pins.py

Pins every cell any workload can run (the full seed tables and the small
test instances): rounds, messages, words, spanner size and edge-set
digest, each from the clean single-process engine.  Every cell must also
pass its verification, and every cell that ``BENCH_simulator.json`` has a
row for must match that row's counts; otherwise nothing is written.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.cells import (  # noqa: E402
    Cell,
    build_hosts,
    counts_of,
    run_cell,
    verify_cell,
)
from perfbench.common import PINS_PATH, log  # noqa: E402
from perfbench.workloads import PROTOCOL_WORKLOADS  # noqa: E402


def pinned_cells() -> List[Cell]:
    cells: Dict[str, Cell] = {}
    for cls in PROTOCOL_WORKLOADS.values():
        for small in (False, True):
            for cells_of_pass in cls(1, small=small).passes():
                for cell in cells_of_pass:
                    cells[cell.cell_id] = cell
    warm = Cell("baswana_sen", "er", "smoke", 1)
    cells[warm.cell_id] = warm
    return sorted(cells.values(), key=lambda c: c.cell_id)


def committed_rows() -> Dict[str, Dict[str, Any]]:
    with open(os.path.join(ROOT, "BENCH_simulator.json"), encoding="utf-8") as f:
        return {row["cell_id"]: row for row in json.load(f)["cells"]}


def main() -> int:
    cells = pinned_cells()
    committed = committed_rows()
    pins: Dict[str, Dict[str, Any]] = {}
    problems: List[str] = []
    hosts = build_hosts(cells)
    for index, cell in enumerate(cells):
        graph = hosts[cell.host_key]
        spanner, stats = run_cell(cell, graph)
        counts = counts_of(spanner, stats)
        pins[cell.cell_id] = counts
        if cell.scale != "e2":
            problems += [f"{cell.cell_id}: {p}" for p in verify_cell(cell, graph, spanner)]
        row = committed.get(cell.cell_id)
        if row is not None:
            for key in ("rounds", "messages", "words"):
                if row[key] != counts[key]:
                    problems.append(
                        f"{cell.cell_id}: {key} {counts[key]} != committed "
                        f"{row[key]}"
                    )
        log(f"[{index + 1}/{len(cells)}] {cell.cell_id} {counts}")
    if problems:
        for problem in problems:
            log(f"PROBLEM {problem}")
        return 1
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump({"cells": pins}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    log(f"wrote {len(pins)} pins to {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
