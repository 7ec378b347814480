"""Schema-versioned, atomically written sweep checkpoints.

A long multistart sweep (the paper's V=128 starting vectors, scaled up)
should survive interruption: :func:`run_chunks` solves it in chunks and
records each chunk in a ``repro-ckpt/1`` JSON document, next to the
sweep's RNG root, and a resumed run (``repro solve --resume <ckpt>``, a
restarted serve job) skips the recorded keys.
Because per-start randomness is derived from ``SeedSequence`` spawn keys
(:func:`repro.util.rng.spawn_rng`), a resumed sweep is bit-for-bit
identical to an uninterrupted one regardless of where it was cut.

Writes are atomic (temp file in the same directory + ``os.replace``) so
a crash mid-write leaves the previous checkpoint intact, never a
truncated file.  Reads validate size, JSON shape, schema version, and
required keys with specific error messages.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "CKPT_SCHEMA",
    "MAX_CHECKPOINT_BYTES",
    "atomic_write_json",
    "new_checkpoint",
    "read_checkpoint",
    "run_chunks",
    "tensor_fingerprint",
    "write_checkpoint",
]

CKPT_SCHEMA = "repro-ckpt/1"

# A checkpoint is eigenpairs + bookkeeping, a few KB per start; anything
# beyond this is corrupt or hostile, not a sweep state.
MAX_CHECKPOINT_BYTES = 64 * 1024 * 1024


def tensor_fingerprint(tensor) -> str:
    """Stable identity of a tensor's exact contents: sha256 over shape
    and the raw float64 unique-value bytes."""
    values = np.ascontiguousarray(np.asarray(tensor.values, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(f"m={tensor.m};n={tensor.n};".encode())
    digest.update(values.tobytes())
    return digest.hexdigest()


def atomic_write_json(path, doc: dict) -> Path:
    """Write ``doc`` as one line of JSON via temp-file-then-rename in
    ``path``'s directory, so readers never observe a partial file.

    One ``json.dumps`` call without ``indent`` is the form CPython
    serialises with its C encoder; ``json.dump`` and ``indent`` take the
    pure-Python encoder, which holds the interpreter lock far longer."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent or "."
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(doc) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def new_checkpoint(
    *,
    fingerprint: str,
    num_starts: int,
    seed: int,
    alpha: float,
    tol: float,
    max_iters: int,
    source: dict | None = None,
) -> dict:
    """A fresh checkpoint document for a sweep with no completed starts.

    ``source`` is free-form caller metadata describing how to rebuild the
    tensor (the CLI stores ``{"kind": "random", "m": ..., ...}`` or a
    file path) so ``--resume`` needs no other arguments.

    The ``run`` section also carries provenance (``run_id``, ``host``,
    ``version``) correlating the checkpoint with the event stream and
    trace of the run that wrote it; :func:`check_resumable` compares only
    the named solver parameters, so resuming on another host still works.
    """
    from repro.instrument.events import current_spool, new_run_id, provenance

    spool = current_spool()
    return {
        "schema": CKPT_SCHEMA,
        "run": {
            "fingerprint": fingerprint,
            "num_starts": int(num_starts),
            "seed": int(seed),
            "alpha": float(alpha),
            "tol": float(tol),
            "max_iters": int(max_iters),
            "rng": {"scheme": "seedseq-spawn-key", "entropy": int(seed)},
            "source": source or {},
            "run_id": spool.run_id if spool is not None else new_run_id(),
            **provenance(),
        },
        "starts": {},  # str(start index) -> completed-start record
    }


def write_checkpoint(path, state: dict) -> Path:
    """Atomically persist a checkpoint document (validates schema first)."""
    if state.get("schema") != CKPT_SCHEMA:
        raise ValueError(
            f"refusing to write checkpoint with schema {state.get('schema')!r}; "
            f"expected {CKPT_SCHEMA!r}"
        )
    return atomic_write_json(path, state)


def read_checkpoint(path, max_bytes: int = MAX_CHECKPOINT_BYTES) -> dict:
    """Load and validate a checkpoint document.

    Raises :class:`ValueError` with a specific message for oversized
    files, truncated/corrupt JSON, unknown schema versions, and missing
    required keys — never a bare decode traceback.
    """
    path = Path(path)
    size = path.stat().st_size
    if size > max_bytes:
        raise ValueError(
            f"{path} is {size} bytes, beyond the {max_bytes}-byte checkpoint "
            f"limit; refusing to load (corrupt or not a checkpoint)"
        )
    text = path.read_text()
    try:
        state = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path} is not valid checkpoint JSON (truncated or corrupted "
            f"write?): {exc}"
        ) from exc
    if not isinstance(state, dict):
        raise ValueError(f"{path}: checkpoint root must be an object")
    schema = state.get("schema")
    if schema != CKPT_SCHEMA:
        raise ValueError(
            f"{path}: unknown checkpoint schema {schema!r} "
            f"(this build reads {CKPT_SCHEMA!r})"
        )
    for key in ("run", "starts"):
        if key not in state:
            raise ValueError(f"{path}: checkpoint missing required key {key!r}")
    run = state["run"]
    for key in ("fingerprint", "num_starts", "seed", "alpha", "tol", "max_iters"):
        if key not in run:
            raise ValueError(f"{path}: checkpoint run section missing {key!r}")
    if not isinstance(state["starts"], dict):
        raise ValueError(f"{path}: checkpoint 'starts' must be an object")
    return state


def check_resumable(state: dict, *, fingerprint: str, num_starts: int,
                    seed: int, alpha: float, tol: float, max_iters: int) -> None:
    """Verify a loaded checkpoint belongs to *this* sweep; mismatch in
    tensor contents or solve parameters, or a checkpoint older than 2.0,
    raises :class:`ValueError` (a resumed sweep must be bit-identical to
    the uninterrupted one)."""
    run = state["run"]
    if run["fingerprint"] != fingerprint:
        raise ValueError(
            "checkpoint was written for a different tensor "
            f"(fingerprint {run['fingerprint'][:12]}… != {fingerprint[:12]}…)"
        )
    want = {"num_starts": num_starts, "seed": seed, "alpha": alpha,
            "tol": tol, "max_iters": max_iters}
    for key, value in want.items():
        if run[key] != value:
            raise ValueError(
                f"checkpoint {key}={run[key]!r} does not match this run's "
                f"{key}={value!r}; resuming would change results"
            )
    version = str(run.get("version") or "0")
    major = version.split(".")[0]
    if not major.isdigit() or int(major) < 2:
        # a 1.x per-start runner's starts: resuming would mix engines
        raise ValueError(
            f"checkpoint was written by repro {version}, whose per-start "
            f"runner predates the 2.0 fleet runner; rerun without resume")


def run_chunks(state: dict, keys, size: int, solve, *, save=None,
               stop=None) -> bool:
    """Solve the ``keys`` missing from ``state["starts"]`` in chunks of
    ``size``: poll ``stop()`` before each chunk, record the ``{str(key):
    record}`` that ``solve(chunk)`` returns (``None`` drops a cancelled
    chunk), then ``save()``.  False when ``stop`` or a cancel ended it."""
    pending = [key for key in keys if str(key) not in state["starts"]]
    for lo in range(0, len(pending), size):
        if stop is not None and stop():
            return False
        records = solve(pending[lo:lo + size])
        if records is None:
            return False
        state["starts"].update(records)
        if save is not None:
            save()
    return True
