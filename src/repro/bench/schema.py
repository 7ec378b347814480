"""The ``repro-bench/1`` result-document schema and its validator.

A bench file is a plain JSON object::

    {
      "schema": "repro-bench/1",
      "stamp": "20260805_120000",          # UTC %Y%m%d_%H%M%S
      "meta": {                            # free-form environment info
        "python": "3.11.8", "numpy": "1.26.4", "platform": "...",
        "reps": 5
      },
      "benchmarks": [
        {
          "name": "fleet_vectorized",  # unique within the file
          "source": "bench_table3_performance.py",  # suite file mirrored
          "reps": 5,
          "seconds": [0.012, 0.011, ...],   # raw per-rep wall times
          "median": 0.0115,                 # medians are what the gate
          "min": 0.011,                     #   compares by default
          "extra": {"tensors": 16, ...}     # optional workload params
        },
        ...
      ]
    }

``validate_bench`` checks structure, not values: it raises ``ValueError``
with a pointed message on the first violation so ``repro bench-compare``
can reject malformed or future-schema files before comparing.
"""

from __future__ import annotations

BENCH_SCHEMA = "repro-bench/1"

_REQUIRED_ENTRY_KEYS = ("name", "source", "reps", "seconds", "median", "min")

__all__ = ["BENCH_SCHEMA", "validate_bench"]


def validate_bench(doc) -> dict:
    """Validate a loaded bench document against ``repro-bench/1``.

    Returns ``doc`` unchanged on success; raises :class:`ValueError`
    describing the first problem otherwise.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"bench document must be a JSON object, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(f"unsupported bench schema {schema!r} (expected {BENCH_SCHEMA!r})")
    if not isinstance(doc.get("stamp"), str) or not doc["stamp"]:
        raise ValueError("bench document missing string 'stamp'")
    if not isinstance(doc.get("meta"), dict):
        raise ValueError("bench document missing object 'meta'")
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        raise ValueError("bench document must have a non-empty 'benchmarks' list")
    seen: set[str] = set()
    for i, entry in enumerate(benches):
        if not isinstance(entry, dict):
            raise ValueError(f"benchmarks[{i}] must be an object")
        for key in _REQUIRED_ENTRY_KEYS:
            if key not in entry:
                raise ValueError(f"benchmarks[{i}] missing required key {key!r}")
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise ValueError(f"benchmarks[{i}].name must be a non-empty string")
        if name in seen:
            raise ValueError(f"duplicate benchmark name {name!r}")
        seen.add(name)
        secs = entry["seconds"]
        if not isinstance(secs, list) or not secs:
            raise ValueError(f"benchmarks[{i}].seconds must be a non-empty list")
        for s in secs:
            if not isinstance(s, (int, float)) or s < 0:
                raise ValueError(f"benchmarks[{i}].seconds contains non-timing value {s!r}")
        for key in ("median", "min"):
            if not isinstance(entry[key], (int, float)) or entry[key] < 0:
                raise ValueError(f"benchmarks[{i}].{key} must be a nonnegative number")
        if not isinstance(entry["reps"], int) or entry["reps"] < 1:
            raise ValueError(f"benchmarks[{i}].reps must be a positive integer")
    return doc
