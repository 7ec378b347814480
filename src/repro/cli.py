"""Command-line interface.

Subcommands mirror the workflows in the paper and this repo's benchmarks::

    repro spectrum  --m 4 --n 3 --seed 42          # eigenpairs of a tensor
    repro fleet-solve --tensors 64 --starts 32     # whole-batch fleet engine
    repro phantom   --rows 32 --cols 32 -o p.npz   # synthesize a test set
    repro detect    p.npz                          # fiber detection + score
    repro gpu-model --tensors 1024                 # Table III-style output
    repro kernels   --m 4 --n 6                    # kernel variant timing

Also runnable as ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

__all__ = ["main", "build_parser"]


def _cmd_spectrum(args) -> int:
    from repro.core import adaptive_sshopm, find_eigenpairs, suggested_shift
    from repro.symtensor import kolda_mayo_example_3x3x3, random_symmetric_tensor

    if args.example:
        tensor = kolda_mayo_example_3x3x3()
    else:
        tensor = random_symmetric_tensor(args.m, args.n, rng=args.seed)
    alpha = args.alpha if args.alpha is not None else suggested_shift(tensor)
    print(f"{tensor}  alpha={alpha:.4f}  starts={args.starts}")
    pairs = find_eigenpairs(
        tensor, num_starts=args.starts, alpha=alpha, rng=args.seed + 1,
        tol=args.tol, max_iters=args.max_iter,
    )
    print(f"{'lambda':>12s}  {'stability':<12s}{'basin':>7s}  {'residual':>9s}  x")
    for p in pairs:
        vec = np.array2string(p.eigenvector, precision=4, suppress_small=True)
        print(f"{p.eigenvalue:+12.6f}  {p.stability:<12s}{p.occurrences:>7d}"
              f"  {p.residual:9.2e}  {vec}")
    if args.adaptive:
        res = adaptive_sshopm(tensor, rng=args.seed + 2, tol=args.tol)
        print(f"adaptive run: lambda={res.eigenvalue:+.6f} in {res.iterations} iters")
    return 0


def _cmd_phantom(args) -> int:
    from repro.io import save_phantom
    from repro.mri import make_phantom

    try:
        phantom = make_phantom(
            rows=args.rows, cols=args.cols, order=args.order,
            num_gradients=args.gradients,
            crossing_angle_deg=args.crossing_angle,
            noise_sigma=args.noise, rng=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        save_phantom(args.output, phantom)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    counts = phantom.num_fibers()
    print(f"wrote {args.output}: {phantom.num_voxels} voxels "
          f"({int((counts == 2).sum())} crossing), order {args.order}, "
          f"{args.gradients} gradients, noise {args.noise}")
    return 0


def _cmd_detect(args) -> int:
    from repro.io import load_phantom
    from repro.mri import evaluate_detection, extract_fibers_batch

    try:
        phantom = load_phantom(args.phantom)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load phantom {args.phantom}: {exc}",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    fibers = extract_fibers_batch(
        phantom.tensors, num_starts=args.starts, alpha=args.alpha, rng=args.seed,
    )
    dt = time.perf_counter() - t0
    rep = evaluate_detection([f.directions for f in fibers], phantom.true_directions)
    print(f"solved {phantom.num_voxels} voxels x {args.starts} starts "
          f"in {dt:.2f}s")
    print(f"correct fiber count: {rep.correct_count_fraction:.1%}")
    print(f"mean angular error : {rep.mean_angular_error_deg:.2f} deg")
    print(f"matched/fp/missed  : {rep.matched}/{rep.false_positives}/{rep.misses}")
    return 0 if rep.correct_count_fraction > 0.5 else 1


def _cmd_gpu_model(args) -> int:
    from repro.gpu import KNOWN_DEVICES, TESLA_C2050, predict_sshopm
    from repro.parallel import predict_cpu_sshopm

    device = KNOWN_DEVICES.get(args.device, TESLA_C2050)
    print(f"device: {device.name} (peak {device.peak_gflops:.0f} GFLOPS)")
    print(f"{'config':<16s}{'GFLOPS':>10s}{'ms':>10s}{'frac peak':>11s}")
    from repro.gpu.kernelspec import sshopm_launch

    launch = sshopm_launch(args.m, args.n, num_starts=args.starts, variant="unrolled")
    flops = args.tensors * args.starts * args.iterations * launch.flops_per_thread_iter
    for variant in ("general", "unrolled"):
        for cores in (1, 8):
            p = predict_cpu_sshopm(flops, variant=variant, cores=cores)
            print(f"CPU-{cores} {variant:<9s}{p.gflops:>10.2f}"
                  f"{p.seconds * 1e3:>10.1f}{p.fraction_of_peak:>11.1%}")
        g = predict_sshopm(m=args.m, n=args.n, num_tensors=args.tensors,
                           num_starts=args.starts, iterations=args.iterations,
                           variant=variant, device=device)
        print(f"GPU   {variant:<9s}{g.gflops:>10.2f}"
              f"{g.seconds * 1e3:>10.1f}{g.fraction_of_peak:>11.1%}")
    return 0


def _cmd_kernels(args) -> int:
    from repro.kernels import available_variants, get_kernels
    from repro.symtensor import random_symmetric_tensor

    tensor = random_symmetric_tensor(args.m, args.n, rng=args.seed)
    x = np.random.default_rng(args.seed + 1).normal(size=args.n)
    print(f"kernel timing, m={args.m} n={args.n} "
          f"({tensor.num_unique} unique values), {args.reps} reps")
    baseline = None
    for name in available_variants():
        if name == "reference" and tensor.num_dense > 500_000:
            print(f"{name:<14s} skipped (dense too large)")
            continue
        try:
            pair = get_kernels(name, args.m, args.n)
        except ValueError as exc:
            print(f"{name:<14s} unavailable: {exc}")
            continue
        pair.ax_m(tensor, x)  # warm caches
        t0 = time.perf_counter()
        for _ in range(args.reps):
            pair.ax_m(tensor, x)
            pair.ax_m1(tensor, x)
        dt = (time.perf_counter() - t0) / args.reps
        if baseline is None:
            baseline = dt
        print(f"{name:<14s}{dt * 1e6:>12.1f} us {baseline / dt:>8.2f}x")
    return 0


def _cmd_basins(args) -> int:
    from repro.core import basin_map, render_basin_map, starts_needed_estimate, suggested_shift
    from repro.symtensor import kolda_mayo_example_3x3x3, random_symmetric_tensor

    if args.example:
        tensor = kolda_mayo_example_3x3x3()
    else:
        tensor = random_symmetric_tensor(args.m, 3, rng=args.seed)
    alpha = args.alpha if args.alpha is not None else suggested_shift(tensor)
    bmap = basin_map(tensor, alpha=alpha, resolution=args.resolution,
                     tol=1e-12, max_iter=args.max_iter)
    print(render_basin_map(bmap, width=args.width, height=args.height))
    print(f"\nconverged: {bmap.coverage:.1%}; basins: "
          + ", ".join(f"{p.eigenvalue:+.4f} ({f:.0%})"
                      for p, f in zip(bmap.pairs, bmap.fractions)))
    if (bmap.fractions > 0).any():
        print(f"random starts for 99% full coverage: "
              f"{starts_needed_estimate(bmap.fractions, 0.99)}")
    return 0


def _cmd_report(args) -> int:
    from repro.instrument import load_trace
    from repro.util.asciiplot import ascii_plot

    try:
        rec = load_trace(args.trace_file)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load trace {args.trace_file}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json as _json

        print(_json.dumps(rec.to_dict()))
        return 0
    if rec.meta:
        print("meta: " + ", ".join(f"{k}={v}" for k, v in sorted(rec.meta.items())))
    print(rec.report())
    if not rec.telemetry:
        print("\n(no convergence telemetry in this trace)")
        return 0
    for tel in rec.telemetry:
        k = np.asarray(tel.column("k"), dtype=float)
        lam = np.asarray(tel.column("lam"), dtype=float)
        resid = np.asarray(tel.column("residual"), dtype=float)
        print(f"\n== {tel.name} ({len(tel)} records"
              + (f", stride {tel.stride}" if tel.stride > 1 else "") + ") ==")
        good = np.isfinite(lam)
        if good.sum() >= 2:
            print(ascii_plot({"lambda": (k[good], lam[good])},
                             width=args.width, xlabel="iteration", ylabel="lambda"))
        pos = np.isfinite(resid) & (resid > 0)
        if pos.sum() >= 2:
            print(ascii_plot({"residual": (k[pos], resid[pos])},
                             width=args.width, logy=True,
                             xlabel="iteration", ylabel="residual"))
        elif good.sum() < 2:
            print("(stream too short to plot)")
    return 0


def _cmd_trace_convert(args) -> int:
    from repro.instrument import load_trace
    from repro.instrument.export import convert_trace

    try:
        rec = load_trace(args.input)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load trace {args.input}: {exc}", file=sys.stderr)
        return 2
    text = convert_trace(rec, args.to)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.output} ({args.to})")
    else:
        print(text, end="")
    return 0


def _cmd_solve(args) -> int:
    from repro.resilience import RetryPolicy, resilient_multistart
    from repro.symtensor import random_symmetric_tensor

    if args.tensor:
        from repro.io import load_tensor

        try:
            tensor = load_tensor(args.tensor)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        source = {"tensor": args.tensor}
    else:
        tensor = random_symmetric_tensor(args.m, args.n, rng=args.seed)
        source = {"m": args.m, "n": args.n, "tensor_seed": args.seed}
    if args.method != "sshopm":
        return _solve_with_method(args, tensor)
    retry = RetryPolicy(max_attempts=max(1, args.retries + 1))
    try:
        result = resilient_multistart(
            tensor,
            num_starts=args.starts,
            alpha=args.alpha,
            tol=args.tol,
            max_iters=args.max_iters,
            seed=args.seed,
            retry=retry,
            checkpoint=args.resume or args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume is not None,
            checkpoint_source=source,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{tensor}  alpha={args.alpha:g}  seed={args.seed}")
    print(result.summary())
    pairs = result.eigenpairs()
    if pairs:
        print(f"{'lambda':>12s}  {'stability':<12s}{'basin':>7s}  {'residual':>9s}  x")
        for p in pairs:
            vec = np.array2string(p.eigenvector, precision=4, suppress_small=True)
            print(f"{p.eigenvalue:+12.6f}  {p.stability:<12s}{p.occurrences:>7d}"
                  f"  {p.residual:9.2e}  {vec}")
    else:
        print("no converged eigenpairs (try a larger --alpha or more --starts)")
    if result.checkpoint_path:
        print(f"checkpoint: {result.checkpoint_path}")
    return 0 if not result.failed_starts or pairs else 1


def _solve_with_method(args, tensor) -> int:
    """``repro solve --method geap/qrst/auto``: route through the facade's
    registry instead of the SS-HOPM-specific resilient sweep runner."""
    import repro
    from repro.core import SolveConfig
    from repro.resilience import RetryPolicy

    if args.resume or args.checkpoint:
        print("error: --checkpoint/--resume are only supported with "
              "--method sshopm (the checkpointing sweep runner)",
              file=sys.stderr)
        return 2
    retry = RetryPolicy(max_attempts=max(1, args.retries + 1))
    try:
        report = repro.solve(
            tensor,
            starts=args.starts,
            alpha=args.alpha,
            tol=args.tol,
            max_iters=args.max_iters,
            rng=args.seed,
            method=args.method,
            config=SolveConfig(retry=retry),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report.result
    print(f"{tensor}  method={report.request.method}  "
          f"solver={report.solver}  seed={args.seed}")
    pairs = result.eigenpairs(classify=True)
    if pairs and isinstance(pairs[0], list):
        pairs = pairs[0]  # (T=1, V) fleet result: take the one tensor
    converged = np.asarray(result.converged)
    print(f"converged {int(converged.sum())}/{converged.size} "
          f"in {report.seconds:.2f}s")
    if pairs:
        print(f"{'lambda':>12s}  {'stability':<12s}{'basin':>7s}  "
              f"{'residual':>9s}  x")
        for p in pairs:
            vec = np.array2string(p.eigenvector, precision=4,
                                  suppress_small=True)
            print(f"{p.eigenvalue:+12.6f}  {p.stability:<12s}"
                  f"{p.occurrences:>7d}  {p.residual:9.2e}  {vec}")
    else:
        print("no converged eigenpairs (try more --starts)")
    return 0 if pairs else 1


def _cmd_fleet_solve(args) -> int:
    import repro
    from repro.symtensor import random_symmetric_batch

    if args.batch:
        from repro.io import load_batch

        try:
            batch = load_batch(args.batch)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not args.json:
            print(f"loaded {args.batch}: {batch!r}")
    else:
        batch = random_symmetric_batch(args.tensors, args.m, args.n,
                                       rng=args.seed)
        if not args.json:
            print(f"random batch: {batch!r} (seed {args.seed})")
    try:
        options = {}
        if args.executor is not None:
            options["executor"] = args.executor
        report = repro.solve(
            batch,
            starts=args.starts,
            alpha=args.alpha,
            tol=args.tol,
            max_iters=args.max_iters,
            rng=args.seed + 1,
            adaptive=args.adaptive,
            method=args.method,
            workers=args.workers,
            variant=args.variant,
            backend=args.backend,
            compact_every=args.compact_every,
            **options,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report.result
    if args.json:
        import json as _json

        doc = {
            "solver": report.solver,
            "seconds": report.seconds,
            "tensors": int(result.num_tensors),
            "starts": int(result.num_starts),
            "sweeps": int(result.sweeps),
            "converged": int(result.converged.sum()),
            "failed": int(result.failed.sum()),
            "stopped": bool(result.stopped),
            "variant": result.variant,
            "compactions": int(result.compactions),
            "eigenvalues": result.eigenvalues.tolist(),
            "converged_mask": result.converged.tolist(),
        }
        if report.extra is not None:
            doc["shards"] = {
                "sizes": list(report.extra.shard_sizes),
                "workers": report.extra.workers,
                "executor": report.extra.executor,
                "requeues": report.extra.requeues,
                "failed_shards": list(report.extra.failed_shards),
            }
        print(_json.dumps(doc))
    else:
        print(f"solver: {report.solver} ({report.seconds:.2f}s)")
        print(result.summary())
        if report.extra is not None:
            sizes = "/".join(str(s) for s in report.extra.shard_sizes)
            print(f"shards: {sizes} tensors over {report.extra.workers} "
                  f"{report.extra.executor} workers "
                  f"(imbalance {report.extra.imbalance():.2f})")
        if args.spectra:
            for t, pairs in enumerate(result.eigenpairs()):
                lams = ", ".join(f"{p.eigenvalue:+.5f}x{p.occurrences}"
                                 for p in pairs) or "(none converged)"
                print(f"tensor {t}: {lams}")
    if args.output:
        from repro.io import save_results

        try:
            save_results(args.output, result)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
        if not args.json:
            print(f"wrote {args.output}")
    return 0 if result.converged.any() else 1


def _cmd_top(args) -> int:
    from repro.instrument.top import follow

    return follow(args.events_file, interval=args.interval, once=args.once,
                  color=False if args.no_color else None)


def _cmd_bench_smoke(args) -> int:
    from repro.bench import BenchTimeout, run_smoke, write_bench_file

    try:
        doc = run_smoke(reps=args.reps, timeout=args.timeout,
                        backend=args.backend)
    except BenchTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = write_bench_file(doc, args.output)
    for entry in doc["benchmarks"]:
        print(f"{entry['name']:28s} median {entry['median'] * 1e3:9.3f} ms"
              f"  min {entry['min'] * 1e3:9.3f} ms  ({entry['source']})")
    print(f"wrote {path}")
    return 0


def _cmd_bench_compare(args) -> int:
    from repro.bench import (
        IncomparableBenchError,
        compare_bench,
        has_regression,
        render_comparison,
    )

    try:
        rows = compare_bench(args.old, args.new, threshold=args.threshold,
                             metric=args.metric)
    except IncomparableBenchError as exc:
        # not a regression: the two files timed different configurations
        print(f"incomparable: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_comparison(rows, threshold=args.threshold, metric=args.metric))
    return 1 if has_regression(rows) else 0


def _cmd_plan_cache(args) -> int:
    from repro.kernels import diskcache

    if args.cache_command == "info":
        info = diskcache.cache_info()
        if not info["enabled"]:
            print("plan cache: disabled (REPRO_PLAN_CACHE=0)")
            return 0
        print(f"plan cache: {info['dir']}")
        print(f"schema: {info['schema']} (codegen v{info['codegen_version']})")
        if not info["entries"]:
            print("entries: none")
        else:
            print(f"entries: {len(info['entries'])}")
            for e in info["entries"]:
                state = "ok" if e["valid"] else "stale"
                eff = e.get("effective_backend") or e.get("backend") or "?"
                print(f"  {e['key']:40s} {e['bytes']:8d} B  "
                      f"[{state}] runs as {eff}")
        print(f"total: {info['bytes']} bytes")
        return 0

    if args.cache_command == "clear":
        removed = diskcache.clear_cache()
        print(f"removed {removed} file(s)")
        return 0

    # warm: build the requested plans so later processes load them from disk
    from repro.kernels.plan import get_plan

    variants = args.variant or ["vectorized"]
    backends = args.backend or ["numpy"]
    if diskcache.cache_dir() is None:
        print("warning: plan cache is disabled; warming only this process",
              file=sys.stderr)
    status = 0
    for variant in variants:
        for backend in backends:
            try:
                plan = get_plan(args.m, args.n, variant, backend)
            except (ValueError, KeyError) as exc:
                print(f"error: m={args.m} n={args.n} {variant}/{backend}: "
                      f"{exc}", file=sys.stderr)
                status = 2
                continue
            origin = "disk" if plan.meta.get("from_disk") else "built"
            print(f"m={args.m} n={args.n} {variant:12s} {backend:6s} "
                  f"-> {plan.effective_backend} ({origin})")
    return status


def _cmd_cudagen(args) -> int:
    from repro.kernels.cudagen import generate_cuda_module

    try:
        src = generate_cuda_module(args.m, args.n, args.starts)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(src)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.output} ({len(src.splitlines())} lines)")
    else:
        print(src)
    return 0


def _cmd_serve(args) -> int:
    import json as _json

    from repro.serve import AdmissionError, EigenServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        runners=args.runners,
        checkpoint_dir=args.checkpoint_dir,
        keep=args.keep,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        default_deadline=args.deadline,
        default_method=args.method,
        resume_dir=args.resume_dir,
    )
    try:
        server = EigenServer(config)
        # machine-readable readiness line: supervisors (and the soak test)
        # parse the bound port from it, which makes --port 0 usable
        status = server.serve_forever(on_ready=lambda host, port: print(
            _json.dumps({"event": "ready", "host": host, "port": port,
                         "checkpoint_dir": str(server.ckpt_dir)}), flush=True))
    except (OSError, ValueError, AdmissionError) as exc:
        print(f"error: server failed: {exc}", file=sys.stderr)
        return 2
    print(_json.dumps({"event": "drained", "status": status}), flush=True)
    return status


def _cmd_ckpt(args) -> int:
    import json as _json

    from repro.resilience.retention import list_checkpoints, prune_checkpoints

    if args.ckpt_command == "gc":
        try:
            pruned = prune_checkpoints(args.directory, keep=args.keep,
                                       dry_run=args.dry_run)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        kept = list_checkpoints(args.directory)
        if args.json:
            print(_json.dumps({
                "pruned": [str(p) for p in pruned],
                "kept": [str(p) for p in kept],
                "dry_run": args.dry_run,
            }))
        else:
            verb = "would prune" if args.dry_run else "pruned"
            print(f"{verb} {len(pruned)} checkpoint(s), keeping {len(kept)}")
            for p in pruned:
                print(f"  - {p}")
        return 0
    # list
    found = list_checkpoints(args.directory)
    if args.json:
        print(_json.dumps({"checkpoints": [str(p) for p in found]}))
    else:
        if not found:
            print("no checkpoints found")
        for p in found:
            print(p)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tensor eigenvalues via SS-HOPM (Ballard/Kolda/Plantenga "
        "IPDPS-W 2011 reproduction)",
    )
    # options shared by every subcommand (accepted before or after the
    # subcommand name)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="record an instrumentation trace of the run (JSON; see "
        "repro.instrument) and print the span summary",
    )
    common.add_argument(
        "--events", metavar="OUT.jsonl", default=None,
        help="spool typed fleet events to a per-run JSONL file "
        "(repro.instrument.events); watch it live with `repro top`",
    )
    common.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=("debug", "info", "warning", "error"),
        help="enable structured logging at this level (stderr)",
    )
    common.add_argument(
        "--log-json", action="store_true", default=False,
        help="emit logs as JSON lines (one object per record) instead of "
        "text; implies --log-level info unless set",
    )
    # also accepted before the subcommand name; separate dests because the
    # subparser's own defaults would clobber these
    parser.add_argument("--trace", dest="trace_global", metavar="OUT.json",
                        default=None, help=argparse.SUPPRESS)
    parser.add_argument("--events", dest="events_global",
                        metavar="OUT.jsonl", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--log-level", dest="log_level_global", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--log-json", dest="log_json_global",
                        action="store_true", default=False,
                        help=argparse.SUPPRESS)
    from repro import __version__

    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        kw.setdefault("parents", [common])
        return sub.add_parser(name, **kw)

    p = add_parser("spectrum", help="eigenpairs of one symmetric tensor")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=128)
    p.add_argument("--alpha", type=float, default=None,
                   help="shift (default: conservative provable shift)")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=3000)
    p.add_argument("--example", action="store_true",
                   help="use the fixed 3x3x3 example tensor")
    p.add_argument("--adaptive", action="store_true",
                   help="also run one adaptive-shift iteration")
    p.set_defaults(func=_cmd_spectrum)

    p = add_parser("solve", help="fault-tolerant multistart sweep with "
                   "retry, checkpointing, and resume")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0,
                   help="root seed for starts (and the random tensor when "
                   "no --tensor file is given)")
    p.add_argument("--tensor", metavar="FILE.npz", default=None,
                   help="solve this saved tensor instead of a random one")
    p.add_argument("--starts", type=int, default=64)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--method", choices=("sshopm", "geap", "qrst", "auto"),
                   default="sshopm",
                   help="solver method (repro.solvers registry); anything "
                   "but sshopm routes through repro.solve and does not "
                   "support --checkpoint/--resume")
    p.add_argument("--retries", type=int, default=2,
                   help="retries per failed start, with shift escalation "
                   "(default 2)")
    p.add_argument("--checkpoint", metavar="CKPT.json", default=None,
                   help="write periodic checkpoints of completed starts")
    p.add_argument("--checkpoint-every", type=int, default=8, metavar="N",
                   help="solve starts in fleet chunks of N and checkpoint "
                   "after each chunk")
    p.add_argument("--resume", metavar="CKPT.json", default=None,
                   help="resume an interrupted sweep from its checkpoint "
                   "(parameters must match; results are bit-for-bit "
                   "identical to an uninterrupted run)")
    p.set_defaults(func=_cmd_solve)

    p = add_parser("fleet-solve", help="solve a whole tensor batch with the "
                   "fleet engine (lane retirement + plan-cached kernels)")
    p.add_argument("--batch", metavar="FILE.npz", default=None,
                   help="solve this saved batch (see repro.io.save_batch) "
                   "instead of a random one")
    p.add_argument("--tensors", type=int, default=64,
                   help="random-batch size when no --batch file is given")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=32)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--variant", default="vectorized",
                   help="kernel-plan variant (vectorized, unrolled, "
                   "unrolled_cse, blocked, or auto)")
    p.add_argument("--backend", default=None,
                   help="codegen backend for the kernel plan (numpy, numba, "
                   "or auto for the shape's race winner; default numpy)")
    p.add_argument("--workers", type=int, default=1,
                   help="shard the tensor axis over this many workers")
    p.add_argument("--executor", choices=("thread", "process", "auto"),
                   default=None,
                   help="worker tier for --workers > 1: thread (default), "
                   "process (zero-copy shared-memory worker processes), "
                   "or auto (communication cost model picks)")
    p.add_argument("--adaptive", action="store_true",
                   help="per-lane shift escalation on oscillation")
    p.add_argument("--method", choices=("sshopm", "geap", "qrst", "auto"),
                   default="sshopm",
                   help="solver method: geap runs the fleet with "
                   "per-lane projected-Hessian shifts, qrst runs the "
                   "dense QR solver per tensor, auto picks by shape")
    p.add_argument("--compact-every", type=int, default=8, metavar="K",
                   help="sweeps between active-set compactions")
    p.add_argument("--spectra", action="store_true",
                   help="print the deduplicated spectrum per tensor")
    p.add_argument("-o", "--output", metavar="RESULTS.npz", default=None,
                   help="save the (T, V) result bundle (repro.io format)")
    p.add_argument("--json", action="store_true",
                   help="emit one machine-readable JSON document instead "
                   "of the human summary")
    p.set_defaults(func=_cmd_fleet_solve)

    p = add_parser("phantom", help="synthesize a DW-MRI phantom")
    p.add_argument("--rows", type=int, default=32)
    p.add_argument("--cols", type=int, default=32)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--gradients", type=int, default=32)
    p.add_argument("--crossing-angle", type=float, default=75.0)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_phantom)

    p = add_parser("detect", help="fiber detection on a saved phantom")
    p.add_argument("phantom")
    p.add_argument("--starts", type=int, default=128)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_detect)

    p = add_parser("gpu-model", help="Table III-style device predictions")
    p.add_argument("--device", default="Tesla C2050 (Fermi)")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--tensors", type=int, default=1024)
    p.add_argument("--starts", type=int, default=128)
    p.add_argument("--iterations", type=float, default=40.0)
    p.set_defaults(func=_cmd_gpu_model)

    p = add_parser("basins", help="ASCII basin-of-attraction map (n=3)")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--resolution", type=int, default=400)
    p.add_argument("--max-iter", type=int, default=3000)
    p.add_argument("--width", type=int, default=72)
    p.add_argument("--height", type=int, default=22)
    p.add_argument("--example", action="store_true")
    p.set_defaults(func=_cmd_basins)

    p = add_parser("plan-cache", help="inspect, clear, or warm the "
                   "persistent on-disk kernel-plan cache")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    pc = cache_sub.add_parser("info", parents=[common],
                              help="list cached plan entries and sizes")
    pc.set_defaults(func=_cmd_plan_cache)
    pc = cache_sub.add_parser("clear", parents=[common],
                              help="delete every cached plan entry")
    pc.set_defaults(func=_cmd_plan_cache)
    pc = cache_sub.add_parser("warm", parents=[common],
                              help="build plans now so later processes "
                              "start from the disk cache")
    pc.add_argument("--m", type=int, default=4)
    pc.add_argument("--n", type=int, default=6)
    pc.add_argument("--variant", action="append", default=None,
                    metavar="NAME",
                    help="plan variant to warm (repeatable; default "
                    "vectorized)")
    pc.add_argument("--backend", action="append", default=None,
                    metavar="NAME",
                    help="codegen backend to warm (repeatable; default "
                    "numpy)")
    pc.set_defaults(func=_cmd_plan_cache)

    p = add_parser("cudagen", help="emit the CUDA kernel source (.cu)")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--starts", type=int, default=128)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_cudagen)

    p = add_parser("kernels", help="time the kernel variants")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=200)
    p.set_defaults(func=_cmd_kernels)

    p = add_parser("report", help="summarize a saved trace (spans, gauges, "
                   "convergence curves)")
    p.add_argument("trace_file", metavar="TRACE.json")
    p.add_argument("--width", type=int, default=64,
                   help="plot width in characters")
    p.add_argument("--json", action="store_true",
                   help="emit the trace document as JSON instead of the "
                   "human report")
    p.set_defaults(func=_cmd_report)

    p = add_parser("trace", help="operate on saved trace files")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    pc = trace_sub.add_parser("convert", parents=[common],
                              help="convert a trace to another format")
    pc.add_argument("input", metavar="TRACE.json")
    pc.add_argument("--to", required=True,
                    choices=("chrome", "prometheus", "jsonl"),
                    help="chrome trace-event JSON (chrome://tracing / "
                    "Perfetto), Prometheus text exposition, or JSONL events")
    pc.add_argument("-o", "--output", default=None,
                    help="output path (default: stdout)")
    pc.set_defaults(func=_cmd_trace_convert)

    p = add_parser("top", help="live dashboard over a fleet event spool "
                   "(lane occupancy, per-worker throughput, queue depth, "
                   "steals, ETA)")
    p.add_argument("events_file", metavar="EVENTS.jsonl",
                   help="event spool written via --events / events= "
                   "(live or completed; completed runs render their final "
                   "state and exit)")
    p.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                   help="refresh interval (default 1s)")
    p.add_argument("--once", action="store_true",
                   help="render one frame and exit (CI/snapshot mode)")
    p.add_argument("--no-color", action="store_true",
                   help="disable ANSI colors even on a tty")
    p.set_defaults(func=_cmd_top)

    p = add_parser("serve", help="run the crash-tolerant eigensolver "
                   "service (bounded admission, deadlines, circuit "
                   "breaker, checkpointing SIGTERM drain; docs/serve.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8634,
                   help="listen port (0 = pick a free port; the bound "
                   "port is printed on the ready line)")
    p.add_argument("--queue-limit", type=int, default=32, metavar="N",
                   help="admission queue capacity; requests beyond it get "
                   "a structured 429 with Retry-After (default 32)")
    p.add_argument("--runners", type=int, default=2, metavar="N",
                   help="concurrent job runner threads, so also the most "
                   "jobs whose ready chunks merge into one fleet solve "
                   "(default 2)")
    p.add_argument("--checkpoint-dir", default="serve-ckpt", metavar="DIR",
                   help="directory for per-job chunk checkpoints and the "
                   "drain manifest (default serve-ckpt/)")
    p.add_argument("--keep", type=int, default=0, metavar="N",
                   help="retain only the N newest job checkpoints, pruning "
                   "after each completed job (0 = keep all)")
    p.add_argument("--breaker-threshold", type=int, default=3, metavar="N",
                   help="consecutive process-tier failures that trip the "
                   "circuit breaker open (default 3)")
    p.add_argument("--breaker-reset", type=float, default=30.0,
                   metavar="SECONDS",
                   help="open-state cooldown before a half-open probe "
                   "(default 30s)")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="default per-request deadline applied when a "
                   "request doesn't set deadline_seconds")
    p.add_argument("--method", choices=("sshopm", "geap", "qrst"),
                   default="sshopm",
                   help="default solver method applied when a request "
                   "doesn't set one (jobs may not use 'auto': specs must "
                   "be reproducible)")
    p.add_argument("--resume-dir", default=None, metavar="DIR",
                   help="finish the jobs recorded in DIR's drain manifest "
                   "(written by a previous SIGTERM drain) before opening "
                   "intake; completed work resumes bit-for-bit from the "
                   "chunk checkpoints")
    p.set_defaults(func=_cmd_serve)

    p = add_parser("ckpt", help="inspect and garbage-collect checkpoint "
                   "directories")
    ckpt_sub = p.add_subparsers(dest="ckpt_command", required=True)
    pc = ckpt_sub.add_parser("gc", parents=[common],
                             help="prune old checkpoints, newest-first")
    pc.add_argument("directory", metavar="DIR")
    pc.add_argument("--keep", type=int, required=True, metavar="N",
                    help="checkpoints to retain (newest by mtime)")
    pc.add_argument("--dry-run", action="store_true",
                    help="report what would be pruned without deleting")
    pc.add_argument("--json", action="store_true",
                    help="machine-readable output")
    pc.set_defaults(func=_cmd_ckpt)
    pc = ckpt_sub.add_parser("list", parents=[common],
                             help="list checkpoint files, newest first")
    pc.add_argument("directory", metavar="DIR")
    pc.add_argument("--json", action="store_true",
                    help="machine-readable output")
    pc.set_defaults(func=_cmd_ckpt)

    p = add_parser("bench-smoke", help="run the smoke benchmark subset, "
                   "write BENCH_<stamp>.json")
    p.add_argument("-o", "--output", default=None,
                   help="output path (default BENCH_<stamp>.json in cwd)")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-workload wall-clock budget; exceeding it "
                   "aborts with exit code 2 (hung-workload guard)")
    p.add_argument("--backend", default=None,
                   help="codegen backend tag recorded in meta.backend; "
                   "bench-compare refuses to gate across backends")
    p.set_defaults(func=_cmd_bench_smoke)

    p = add_parser("bench-compare", help="regression gate between two "
                   "BENCH_*.json files (exit 1 on regression)")
    p.add_argument("old", metavar="OLD.json")
    p.add_argument("new", metavar="NEW.json")
    p.add_argument("--threshold", type=float, default=0.2,
                   help="allowed slowdown fraction (default 0.2 = +20%%)")
    p.add_argument("--metric", choices=("median", "min"), default="median")
    p.set_defaults(func=_cmd_bench_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    log_level = (getattr(args, "log_level", None)
                 or getattr(args, "log_level_global", None))
    log_json = (getattr(args, "log_json", False)
                or getattr(args, "log_json_global", False))
    if log_level or log_json:
        from repro.instrument.log import configure_logging

        configure_logging(log_level or "info", json_lines=log_json)
    trace = getattr(args, "trace", None) or getattr(args, "trace_global", None)
    events = (getattr(args, "events", None)
              or getattr(args, "events_global", None))
    if not trace and not events:
        return args.func(args)

    import contextlib

    from repro.instrument import recording
    from repro.instrument.events import (
        EventSpool,
        new_run_id,
        provenance,
        use_spool,
    )

    for label, path in (("trace", trace), ("events", events)):
        if not path:
            continue
        try:  # fail on an unwritable path now, not after the (long) run
            with open(path, "a"):
                pass
        except OSError as exc:
            print(f"error: cannot write {label} file {path}: {exc}",
                  file=sys.stderr)
            return 2

    # one run id joins the trace, the event spool, and the logs
    run_id = new_run_id()
    rec = None
    with contextlib.ExitStack() as stack:
        from repro.instrument.log import log_context

        stack.enter_context(log_context(run=run_id))
        if events:
            spool = stack.enter_context(
                EventSpool.open(events, run_id=run_id))
            stack.enter_context(use_spool(spool))
        if trace:
            meta = {"command": args.command,
                    "argv": list(argv or sys.argv[1:]),
                    "run_id": run_id, **provenance()}
            rec = stack.enter_context(recording(meta=meta))
            with rec.span(f"repro {args.command}"):
                status = args.func(args)
        else:
            status = args.func(args)
    if rec is not None:
        rec.save_trace(trace)
        print(f"\ntrace written to {trace}")
        print(rec.report())
    if events:
        print(f"events written to {events} (view: repro top {events} --once)")
    return status


if __name__ == "__main__":
    sys.exit(main())
