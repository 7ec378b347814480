"""End-to-end benchmark of the tensor eigensolver, with a per-layer traced run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end metrics
named in ``BENCHMARK.json``; ``--trace 1`` runs the traced variant of the
same workload and prints the per-layer metrics.  A meta line (host
provenance, sample counts) precedes the result; the last line of standard
output is the result object.  The exit code is 0 only when every check
passed.  See ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: fresh-interpreter set-ups per run; ``setup_s`` is their median
SETUP_REPS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper_batch", "method_mix", "serve_loaded"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up the workload, print its set-up seconds, exit")
    return ap.parse_args(argv)


def prepare_environment(work: Path) -> None:
    """Keep every file the run writes inside the checkout, switch off the
    persistent plan cache (so the plan build is cold), and pin BLAS and
    OpenMP pools to one thread unless the caller chose otherwise."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_PLAN_CACHE"] = "0"
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is a git work tree, else ``None``
    (``source_digest`` identifies the code either way)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_calibration() -> float:
    """Median seconds of a fixed numpy kernel (sorting 2**20 doubles): it
    moves with the host, never with the code under test."""
    import numpy as np

    data = np.random.default_rng(0).random(1 << 20)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.sort(data, kind="quicksort")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fresh_setup_seconds(args, reference) -> list:
    """Set the workload up in fresh interpreters; each reports the seconds
    from interpreter start-up to a ready workload, scaled to the nominal
    host speed by ``reference`` measurements around it."""
    out = []
    before = reference.measure()
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "0",
             "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr[-2000:]}")
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        after = reference.measure()
        out.append(reference.scale(seconds, before, after))
        before = after
    return out


def stop_resource_tracker() -> None:
    """Stop and reap the helper process multiprocessing starts for the
    process tier's shared memory, so no process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()  # private, but the only way to wait for it


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    prepare_environment(work)
    try:
        return measure(args, spec, work)
    finally:
        stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def measure(args, spec: dict, work: Path) -> int:
    """Set the workload up, measure it, print meta and result lines;
    returns the exit code."""
    try:
        import numpy as np
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from reference import HostReference
    from workloads import WORKLOADS, peak_rss_mb

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, work)
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0
    calib = host_calibration()
    problems: list = []
    reference = None
    try:
        if args.trace:
            measured = workload.trace(args.seconds, problems)
        else:
            reference = HostReference(workload.reference)
            measured = workload.run(args.seconds, problems, reference)
            measured.setdefault("peak_rss_mb", peak_rss_mb())
            measured["setup_s"] = statistics.median(
                fresh_setup_seconds(args, reference))
    finally:
        workload.close()
        if reference is not None:
            reference.close()
    if args.trace:
        names = spec["per_layer"]
        measured["host.calib_s"] = calib
        measured["kernels.plan_build_s"] = workload.plan.build_seconds
        for m in names:  # 0 marks a layer this workload does not use
            measured.setdefault(m["name"], 0.0)
    else:
        names = spec["end_to_end"]
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "host.calib_s": calib, "problems": problems,
        "reference_s": reference and [round(t, 6) for t in reference.samples],
        **{k[1:]: v for k, v in measured.items() if k.startswith("_")},
    }
    print(json.dumps({"meta": meta}))
    missing = [m["name"] for m in names if m["name"] not in measured]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    attempted = int(measured.get("_attempted", 1))
    failed = int(measured.get("_failed", 0))
    result = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in names},
    }
    for problem in problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
