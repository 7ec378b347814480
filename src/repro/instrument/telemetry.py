"""Bounded per-iteration convergence telemetry for the SS-HOPM solvers.

Kolda & Mayo characterize SS-HOPM by its per-iteration ``lambda_k``
trajectories (monotone for a sufficient shift) and the paper's MRI results
hinge on how fast those trajectories flatten.  ``lambda_history`` already
stores the raw sequence; this module records the richer per-iteration
tuple — ``(k, lambda, residual, shift, step_norm, active)`` — in a
**bounded** stream safe to leave attached to results and traces no matter
how long a run gets.

Boundedness is by stride decimation: the stream records every iteration
until ``maxlen`` records are held, then drops every other record and
doubles its stride, so memory stays O(maxlen) while coverage always spans
the whole run (early iterations at fine resolution lost last).  The final
iterate can be force-appended so the end state is always present.

Streams serialize to plain dicts (schema ``repro-telemetry/1``); a
:class:`~repro.instrument.recorder.Recorder` carries them inside the
``repro-trace/1`` JSON (optional ``telemetry`` key), which is how
``repro report`` renders convergence curves from a saved trace.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = ["ConvergenceTelemetry", "telemetry_enabled"]

TELEMETRY_SCHEMA = "repro-telemetry/1"

#: columns of one record, in serialization order
COLUMNS = ("k", "lam", "residual", "shift", "step_norm", "active")


class ConvergenceTelemetry:
    """One solver run's bounded per-iteration stream.

    Parameters
    ----------
    name : stream label (``"sshopm"``, ``"adaptive_sshopm"``,
        ``"fleet_solve"``); namespaced on absorb like span trees.
    maxlen : record cap; reaching it halves resolution (stride doubles).
    meta : free-form context (tensor shape, start counts, ...).
    """

    __slots__ = ("name", "maxlen", "meta", "stride", "_rows")

    def __init__(self, name: str, maxlen: int = 512,
                 meta: dict[str, Any] | None = None):
        if maxlen < 8:
            raise ValueError(f"maxlen must be >= 8, got {maxlen}")
        self.name = name
        self.maxlen = int(maxlen)
        self.meta = dict(meta or {})
        self.stride = 1
        self._rows: list[tuple[float, ...]] = []

    def __len__(self) -> int:
        return len(self._rows)

    def append(
        self,
        k: int,
        lam: float,
        residual: float = math.nan,
        shift: float = math.nan,
        step_norm: float = math.nan,
        active: int = 1,
        force: bool = False,
    ) -> None:
        """Record iteration ``k`` (skipped when off-stride unless
        ``force`` — use ``force=True`` for the final iterate)."""
        if not force and k % self.stride != 0:
            return
        if len(self._rows) >= self.maxlen:
            self._decimate()
            if not force and k % self.stride != 0:
                return
        self._rows.append(
            (int(k), float(lam), float(residual), float(shift),
             float(step_norm), int(active))
        )

    def _decimate(self) -> None:
        """Halve resolution: keep records on the doubled stride (forced
        off-stride records — final iterates — are kept too)."""
        self.stride *= 2
        self._rows = [
            row for i, row in enumerate(self._rows)
            if row[0] % self.stride == 0 or i == len(self._rows) - 1
        ]

    # -- access ----------------------------------------------------------

    def column(self, name: str) -> list[float]:
        """One column across all records, e.g. ``column("lam")``."""
        idx = COLUMNS.index(name)
        return [row[idx] for row in self._rows]

    def arrays(self) -> dict[str, Any]:
        """All columns as float64 numpy arrays keyed by column name."""
        import numpy as np

        return {
            name: np.asarray(self.column(name), dtype=np.float64)
            for name in COLUMNS
        }

    @property
    def records(self) -> list[dict[str, float]]:
        return [dict(zip(COLUMNS, row)) for row in self._rows]

    def renamed(self, name: str) -> "ConvergenceTelemetry":
        """A copy under a new stream name (used when a recorder absorbs a
        worker's streams under a namespace)."""
        clone = ConvergenceTelemetry(name, maxlen=self.maxlen, meta=self.meta)
        clone.stride = self.stride
        clone._rows = list(self._rows)
        return clone

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": TELEMETRY_SCHEMA,
            "name": self.name,
            "maxlen": self.maxlen,
            "stride": self.stride,
            "meta": dict(self.meta),
            "columns": list(COLUMNS),
            "rows": [list(row) for row in self._rows],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConvergenceTelemetry":
        if data.get("schema", TELEMETRY_SCHEMA) != TELEMETRY_SCHEMA:
            raise ValueError(
                f"unsupported telemetry schema {data.get('schema')!r}"
            )
        if list(data.get("columns", COLUMNS)) != list(COLUMNS):
            raise ValueError(
                f"unsupported telemetry columns {data.get('columns')!r}"
            )
        stream = cls(data["name"], maxlen=int(data.get("maxlen", 512)),
                     meta=data.get("meta"))
        stream.stride = int(data.get("stride", 1))
        stream._rows = [
            (int(r[0]), float(r[1]), float(r[2]), float(r[3]), float(r[4]),
             int(r[5]))
            for r in data.get("rows", [])
        ]
        return stream

    def __repr__(self) -> str:
        return (
            f"ConvergenceTelemetry({self.name!r}, records={len(self._rows)}, "
            f"stride={self.stride})"
        )


def telemetry_enabled(telemetry: bool | None, recorder) -> bool:
    """Shared gating rule of the solvers: an explicit ``telemetry=`` wins;
    ``None`` means "on exactly when a recorder is active" — keeping the
    disabled path free of per-iteration work."""
    if telemetry is None:
        return recorder is not None
    return bool(telemetry)
