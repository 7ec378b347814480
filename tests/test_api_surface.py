"""Lock the public API against an explicit, checked-in snapshot.

``tests/api_surface.json`` records ``repro.__all__``, the signatures of
the facade and solver entry points, and the field lists of the public
result/request dataclasses.  Any drift — a renamed keyword, a dropped
export, a reordered positional parameter — fails here *by name*, so API
changes are always deliberate and reviewed next to the snapshot diff.
It also pins the cold import set: a fresh ``import repro`` loads no scipy.

To bless an intentional change, regenerate the snapshot:

    REPRO_UPDATE_API_SNAPSHOT=1 PYTHONPATH=src pytest tests/test_api_surface.py
"""

import dataclasses
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

SNAPSHOT_PATH = pathlib.Path(__file__).parent / "api_surface.json"

# (dotted name, attribute) pairs whose signatures form the public surface
SIGNATURES = [
    "repro.solve",
    "repro.core.sshopm",
    "repro.core.adaptive_sshopm",
    "repro.core.suggested_shift",
    "repro.solvers.geap",
    "repro.solvers.qrst",
    "repro.solvers.qrst_batch",
    "repro.solvers.projected_shift",
    "repro.solvers.available_methods",
    "repro.solvers.choose_method",
    "repro.engine.fleet_solve",
    "repro.engine.suggested_shifts",
    "repro.parallel.parallel_fleet_solve",
    "repro.kernels.get_kernels",
    "repro.kernels.plan.get_plan",
    "repro.kernels.codegen.emit",
    "repro.kernels.codegen.get_emitter",
    "repro.kernels.codegen.register_emitter",
    "repro.kernels.codegen.available_backends",
    "repro.instrument.emit",
    "repro.instrument.read_events",
    "repro.instrument.validate_event",
    "repro.instrument.configure_logging",
    "repro.instrument.get_logger",
    "repro.serve.run_job",
    "repro.serve.CircuitBreaker",
    "repro.serve.AdmissionQueue",
    "repro.resilience.prune_checkpoints",
    "repro.resilience.list_checkpoints",
    "repro.resilience.resilient_multistart",
]

DATACLASSES = [
    "repro.SolveRequest",
    "repro.SolveReport",
    "repro.core.FleetResult",
    "repro.core.SolveConfig",
    "repro.solvers.QRSTResult",
    "repro.kernels.codegen.EmittedKernel",
    "repro.kernels.plan.KernelPlan",
    "repro.parallel.FleetRunReport",
    "repro.serve.JobSpec",
    "repro.serve.ServeConfig",
]


def _resolve(dotted: str):
    import importlib

    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, p in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, p)
        except AttributeError:
            # lazily-loaded subpackage (e.g. repro.serve): import it
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def build_surface() -> dict:
    import repro

    surface = {
        "all": sorted(repro.__all__),
        "signatures": {
            name: str(inspect.signature(_resolve(name))) for name in SIGNATURES
        },
        "dataclasses": {
            name: [f.name for f in dataclasses.fields(_resolve(name))]
            for name in DATACLASSES
        },
        "result_protocol": sorted(
            n for n in ("eigenpairs", "converged", "telemetry")
        ),
    }
    return surface


def test_public_api_matches_snapshot():
    surface = build_surface()
    if os.environ.get("REPRO_UPDATE_API_SNAPSHOT"):
        SNAPSHOT_PATH.write_text(json.dumps(surface, indent=2) + "\n")
        pytest.skip(f"snapshot regenerated at {SNAPSHOT_PATH}")
    assert SNAPSHOT_PATH.exists(), (
        "missing tests/api_surface.json — regenerate with "
        "REPRO_UPDATE_API_SNAPSHOT=1"
    )
    snapshot = json.loads(SNAPSHOT_PATH.read_text())

    assert surface["all"] == snapshot["all"], "repro.__all__ drifted"
    for name in SIGNATURES:
        assert surface["signatures"][name] == snapshot["signatures"][name], (
            f"signature of {name} drifted"
        )
    for name in DATACLASSES:
        assert surface["dataclasses"][name] == snapshot["dataclasses"][name], (
            f"fields of {name} drifted"
        )
    # nothing extra, nothing missing at the top level either
    assert set(surface["signatures"]) == set(snapshot["signatures"])
    assert set(surface["dataclasses"]) == set(snapshot["dataclasses"])


def test_result_protocol_members_exist():
    """Every result class advertises the shared protocol members."""
    from repro.core import FleetResult
    from repro.solvers.sshopm import SSHOPMResult

    for cls in (SSHOPMResult, FleetResult):
        assert callable(getattr(cls, "eigenpairs"))
        fields = {f.name for f in dataclasses.fields(cls)}
        assert "converged" in fields
        assert "telemetry" in fields


def test_cold_import_loads_no_scipy():
    """A fresh ``import repro`` (and the serve, io and CLI entry points)
    loads numpy and the solve path only: scipy serves the MRI application
    alone and loads on its first SH-basis or fiber-matching call."""
    script = ("import sys, repro, repro.serve, repro.io, repro.cli; "
              "print(sorted(m for m in sys.modules "
              "if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(SNAPSHOT_PATH.parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout
