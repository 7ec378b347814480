"""Persistence for tensor batches, phantoms, and solver results.

Everything is stored as compressed ``.npz`` with a format tag, so data
sets (e.g. a generated phantom standing in for the paper's SCI Institute
set) can be produced once and shared between the CLI, examples, and
benchmarks.

Robustness contract (see ``docs/resilience.md``):

* every ``save_*`` is **atomic** — the payload is written to a temp file
  in the destination directory, fsynced, then renamed over the target,
  so a crash mid-save leaves either the old file or the new one, never a
  truncated hybrid;
* every ``load_*`` raises :class:`ValueError` with the offending path on
  a truncated/corrupted archive, a wrong format/kind tag, a payload
  whose unique-entry count disagrees with ``C(m+n-1, m)``, or (for
  tensor inputs, not solver results) non-finite entries.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import zipfile

import numpy as np

from repro.core.results import FleetResult
from repro.mri.phantom import Phantom
from repro.symtensor.storage import SymmetricTensor, SymmetricTensorBatch

__all__ = [
    "save_tensor",
    "load_tensor",
    "save_batch",
    "load_batch",
    "save_phantom",
    "load_phantom",
    "save_results",
    "load_results",
]

_FORMAT = "repro-v1"


def _atomic_savez(path, **arrays) -> None:
    """``np.savez_compressed`` through a same-directory temp file + rename,
    so readers never observe a partially written archive."""
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        # np.savez appends .npz to names without it; pre-empt that so the
        # rename target and the written file agree
        path = path.with_name(path.name + ".npz")
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _open_npz(path):
    """``np.load`` with truncation/corruption mapped to ``ValueError``."""
    try:
        return np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
        # np.load reports non-archive bytes as a pickle-related ValueError;
        # fold that into the same corrupted-file diagnosis
        if isinstance(exc, FileNotFoundError):
            raise
        raise ValueError(
            f"{path} is not a readable .npz archive (truncated or "
            f"corrupted?): {exc}"
        ) from exc


def _check_format(data, kind: str, path) -> None:
    try:
        tag = str(data["format"]) if "format" in data else ""
        stored_kind = str(data["kind"]) if "kind" in data else ""
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(
            f"{path} is truncated or corrupted: {exc}"
        ) from exc
    if tag != _FORMAT or stored_kind != kind:
        raise ValueError(
            f"{path} is not a {_FORMAT}/{kind} file "
            f"(found format={tag!r}, kind={stored_kind!r})"
        )


def _read(data, key, path):
    """One array out of the archive, with truncated-member errors and a
    missing key both reported as a clear ValueError."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{path} is missing the {key!r} array") from None
    except (zipfile.BadZipFile, EOFError, OSError) as exc:
        raise ValueError(
            f"{path}: the {key!r} array is truncated or corrupted: {exc}"
        ) from exc


def _build_tensor(cls, values, m, n, path):
    """Construct, turning shape/count mismatches into path-tagged errors
    and rejecting non-finite entries (a corrupted or garbage input)."""
    try:
        tensor = cls(values, m, n)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not np.all(np.isfinite(tensor.values)):
        bad = int(np.count_nonzero(~np.isfinite(np.asarray(tensor.values))))
        raise ValueError(
            f"{path}: tensor payload contains {bad} non-finite "
            f"(NaN/Inf) entries"
        )
    return tensor


def save_tensor(path, tensor: SymmetricTensor) -> None:
    """Write one compressed symmetric tensor (atomically)."""
    _atomic_savez(
        path,
        format=_FORMAT,
        kind="tensor",
        values=tensor.values,
        m=tensor.m,
        n=tensor.n,
    )


def load_tensor(path) -> SymmetricTensor:
    with _open_npz(path) as data:
        _check_format(data, "tensor", path)
        return _build_tensor(
            SymmetricTensor,
            _read(data, "values", path),
            int(_read(data, "m", path)),
            int(_read(data, "n", path)),
            path,
        )


def save_batch(path, batch: SymmetricTensorBatch) -> None:
    """Write a tensor batch (the paper's ``T x U`` device layout)."""
    _atomic_savez(
        path,
        format=_FORMAT,
        kind="batch",
        values=batch.values,
        m=batch.m,
        n=batch.n,
    )


def load_batch(path) -> SymmetricTensorBatch:
    with _open_npz(path) as data:
        _check_format(data, "batch", path)
        return _build_tensor(
            SymmetricTensorBatch,
            _read(data, "values", path),
            int(_read(data, "m", path)),
            int(_read(data, "n", path)),
            path,
        )


def save_phantom(path, phantom: Phantom) -> None:
    """Write a phantom: tensors, acquisition, ground truth, and metadata.

    The ragged per-voxel direction lists are stored as one concatenated
    array plus offsets.
    """
    dirs = phantom.true_directions
    concat = np.concatenate(dirs, axis=0) if dirs else np.zeros((0, 3))
    offsets = np.cumsum([0] + [d.shape[0] for d in dirs])
    _atomic_savez(
        path,
        format=_FORMAT,
        kind="phantom",
        values=phantom.tensors.values,
        m=phantom.tensors.m,
        n=phantom.tensors.n,
        gradients=phantom.gradients,
        adc=phantom.adc,
        rows=phantom.rows,
        cols=phantom.cols,
        dirs_concat=concat,
        dirs_offsets=offsets,
        meta=json.dumps(phantom.meta),
    )


def load_phantom(path) -> Phantom:
    with _open_npz(path) as data:
        _check_format(data, "phantom", path)
        tensors = _build_tensor(
            SymmetricTensorBatch,
            _read(data, "values", path),
            int(_read(data, "m", path)),
            int(_read(data, "n", path)),
            path,
        )
        offsets = _read(data, "dirs_offsets", path)
        concat = _read(data, "dirs_concat", path)
        dirs = [
            concat[offsets[i] : offsets[i + 1]].copy()
            for i in range(len(offsets) - 1)
        ]
        return Phantom(
            tensors=tensors,
            true_directions=dirs,
            gradients=_read(data, "gradients", path),
            adc=_read(data, "adc", path),
            rows=int(_read(data, "rows", path)),
            cols=int(_read(data, "cols", path)),
            meta=json.loads(str(_read(data, "meta", path))),
        )


def save_results(path, result: FleetResult) -> None:
    """Write a multistart solve result (eigenvalues/vectors per lane).

    The on-disk keys predate :class:`~repro.core.results.FleetResult`
    (``total_sweeps`` holds ``sweeps``), so older files still load.  Files
    written before the ``failed`` lane mask existed load back with an
    all-``False`` mask.
    """
    arrays = dict(
        format=_FORMAT,
        kind="results",
        eigenvalues=result.eigenvalues,
        eigenvectors=result.eigenvectors,
        converged=result.converged,
        iterations=result.iterations,
        total_sweeps=result.sweeps,
        failed=result.failed,
    )
    _atomic_savez(path, **arrays)


def load_results(path) -> FleetResult:
    # NaN eigenvalues are legitimate here (failed lanes are part of the
    # record), so results skip the non-finite rejection tensors get
    with _open_npz(path) as data:
        _check_format(data, "results", path)
        converged = _read(data, "converged", path)
        return FleetResult(
            eigenvalues=_read(data, "eigenvalues", path),
            eigenvectors=_read(data, "eigenvectors", path),
            converged=converged,
            iterations=_read(data, "iterations", path),
            sweeps=int(_read(data, "total_sweeps", path)),
            failed=(data["failed"] if "failed" in data
                    else np.zeros_like(converged, dtype=bool)),
        )
