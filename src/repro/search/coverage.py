"""Discretized parameter-cell coverage: where the search has been.

Each dimension of a family's space is split into ``bins`` equal-width
intervals (boolean dimensions into their two values); a parameter vector
falls into exactly one *cell* (the tuple of its per-dimension bin
indices).  The map records, per visited cell, how many evaluations
landed there and the worst (minimum) robustness seen — so "which regions
of the space falsify the stack" is a lookup, not a re-run.

The serialized form (:meth:`CoverageMap.to_payload`) contains no wall
times and is written with sorted keys: a ``--jobs 4`` search produces a
byte-identical ``coverage.json`` to the serial run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from ..jsonutil import dumps as strict_dumps
from .space import SearchSpace

#: Version stamp of the coverage JSON layout.
COVERAGE_SCHEMA_VERSION = 1

#: File name the driver writes inside its output directory.
COVERAGE_FILE_NAME = "coverage.json"


class CoverageMap:
    """Occupancy + outcome per discretized parameter cell."""

    def __init__(
        self,
        space: Optional[SearchSpace] = None,
        bins: int = 4,
        *,
        description: Optional[Dict[str, Any]] = None,
    ) -> None:
        if bins < 2:
            raise ValueError(f"bins must be >= 2, got {bins}")
        if space is not None:
            description = space.describe()
        if description is None:
            raise ValueError("need a SearchSpace or a space description")
        self.bins = bins
        self.space_description = description
        self._dims: List[Dict[str, Any]] = list(description["dimensions"])
        self.evaluations = 0
        #: cell key ("i,j,k,...") -> stats dict.
        self.cells: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    def _bin_index(self, dim: Mapping[str, Any], value: float) -> int:
        if dim["kind"] == "bool":
            return 1 if value >= 0.5 else 0
        lo, hi = float(dim["lo"]), float(dim["hi"])
        if value <= lo:
            return 0
        if value >= hi:
            return self.bins - 1
        return min(self.bins - 1, int((value - lo) / (hi - lo) * self.bins))

    def cell_key(self, params: Mapping[str, float]) -> str:
        return ",".join(
            str(self._bin_index(dim, float(params[dim["name"]])))
            for dim in self._dims
        )

    def add(
        self, params: Mapping[str, float], robustness: float, collision: bool
    ) -> str:
        """Record one evaluation; returns the cell it landed in."""
        key = self.cell_key(params)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = {
                "count": 0,
                "min_robustness": float(robustness),
                "counterexamples": 0,
                "collisions": 0,
            }
        cell["count"] += 1
        cell["min_robustness"] = min(cell["min_robustness"], float(robustness))
        if robustness < 0.0:
            cell["counterexamples"] += 1
        if collision:
            cell["collisions"] += 1
        self.evaluations += 1
        return key

    # ------------------------------------------------------------------
    @property
    def total_cells(self) -> int:
        total = 1
        for dim in self._dims:
            total *= 2 if dim["kind"] == "bool" else self.bins
        return total

    @property
    def occupied(self) -> int:
        return len(self.cells)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": "coverage_map",
            "schema": COVERAGE_SCHEMA_VERSION,
            "bins": self.bins,
            "space": self.space_description,
            "evaluations": self.evaluations,
            "occupied": self.occupied,
            "total_cells": self.total_cells,
            "cells": {key: self.cells[key] for key in sorted(self.cells)},
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "CoverageMap":
        cover = cls(
            bins=int(payload["bins"]), description=dict(payload["space"])
        )
        cover.evaluations = int(payload.get("evaluations", 0))
        cover.cells = {
            str(key): dict(cell)
            for key, cell in (payload.get("cells") or {}).items()
        }
        return cover

    def save(self, path: "str | Path") -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            strict_dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"
        )
        return path

    # ------------------------------------------------------------------
    def marginals(self) -> Dict[str, List[int]]:
        """Per-dimension occupancy histograms (counts per bin), derived
        from the cell keys — the 1-D shadows of the full map."""
        out: Dict[str, List[int]] = {
            dim["name"]: [0] * (2 if dim["kind"] == "bool" else self.bins)
            for dim in self._dims
        }
        for key, cell in self.cells.items():
            indices = [int(part) for part in key.split(",")]
            for dim, index in zip(self._dims, indices):
                out[dim["name"]][index] += cell["count"]
        return out

    def render_lines(self, top_n: int = 5) -> List[str]:
        family = self.space_description.get("family", "?")
        lines = [
            f"coverage map: family={family} bins={self.bins}",
            f"evaluations : {self.evaluations}",
            f"cells       : {self.occupied}/{self.total_cells} occupied "
            f"({self.occupied / self.total_cells:.2%})",
        ]
        negatives = sum(
            1 for cell in self.cells.values() if cell["min_robustness"] < 0.0
        )
        lines.append(f"falsifying  : {negatives} cell(s) with min robustness < 0")
        worst = sorted(
            self.cells.items(), key=lambda kv: (kv[1]["min_robustness"], kv[0])
        )[:top_n]
        if worst:
            lines.append(f"worst {len(worst)} cell(s):")
            for key, cell in worst:
                lines.append(
                    f"  [{key}] count={cell['count']} "
                    f"rho_min={cell['min_robustness']:+.3f} "
                    f"cex={cell['counterexamples']} "
                    f"collisions={cell['collisions']}"
                )
        lines.append("per-dimension occupancy (evaluations per bin):")
        for name, histogram in self.marginals().items():
            cells = " ".join(f"{count:>4}" for count in histogram)
            lines.append(f"  {name:<18} {cells}")
        return lines


def load_coverage(path: "str | Path") -> CoverageMap:
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != "coverage_map":
        raise ValueError(f"{path} is not a coverage map")
    return CoverageMap.from_payload(payload)
