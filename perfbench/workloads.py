"""The benchmark's three workloads.

Each workload generates its inputs from the seed in :meth:`setup` (also
the cold plan build and, for ``serve_loaded``, the server start), then
either measures with tracing off (:meth:`run`, end-to-end metrics) or
runs the traced variant (:meth:`trace`, per-layer metrics).  Every result
the workload counts is checked by :mod:`checks`; violations are appended
to ``problems``, which makes the run fail.

:meth:`run` measures the workload's :class:`~reference.HostReference`
before its first operation and after each one (each slice of the closed
loop, for ``serve_loaded``) and reports timings at the nominal host speed.

An *operation* is one timed unit of work: a full-batch solve for
``paper_batch``, one round of the three methods on one batch for
``method_mix``, and one HTTP request for ``serve_loaded``.
"""

from __future__ import annotations

import copy
import http.client
import json
import resource
import statistics
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

import numpy as np

import checks
from layers import LayerTracer, parallel_metrics
from reference import ReferenceShape

#: Section V of the paper: 1024 order-4, dim-3 tensors x 128 shared starts
PAPER = dict(T=1024, m=4, n=3, V=128, alpha=2.0, tol=1e-8, max_iters=300,
             workers=2)
#: the three solver methods on small order-4, dim-6 batches; every round
#: solves a fresh batch from a pre-generated pool, and the quality metrics
#: cover the first ``quality`` rounds (a fixed set, so they repeat per seed)
MIX = dict(T=8, m=4, n=6, V=8, tol=1e-8, max_iters=200,
           methods=("sshopm", "geap", "qrst"), pool=64, quality=6)
#: closed-loop /solve traffic: each job writes count/chunk = 4 checkpoints
#: (the closed loop runs in slices of ``slice_s`` seconds, with a host
#: reference measurement between slices)
SERVE = dict(count=32, m=4, n=4, num_starts=16, chunk=8, tol=1e-8,
             max_iters=200, clients=2, min_requests=100, quality=64,
             direct=8, slice_s=4.0)


def unit_starts(rng, V: int, n: int) -> np.ndarray:
    starts = rng.normal(size=(V, n))
    return starts / np.linalg.norm(starts, axis=1, keepdims=True)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child
    (the process-tier workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def percentile_ms(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, float), q)) * 1e3


def tail_percentile(count: int) -> float:
    """The highest percentile up to 90 that leaves at least ten samples
    beyond it, never below the median: a percentile with fewer samples
    past it is set by one or two of them."""
    if count <= 20:
        return 50.0
    return min(90.0, 100.0 * (1 - 10 / count))


def model_flops_per_byte(tracer, m: int, n: int, T: int, V: int) -> float:
    """Arithmetic intensity :func:`repro.gpu.roofline.analyze_traffic`
    predicts for one fleet call of shape ``(T, V)`` at the traced mean
    sweep count, in float64 bytes."""
    from repro.gpu.roofline import analyze_traffic

    calls = tracer.n["fleet_calls"]
    if not calls:
        return 0.0
    sweeps = max(tracer.n["sweeps"] / calls, 1.0)
    return analyze_traffic(m, n, T, V, iterations=sweeps,
                           dtype_bytes=8).arithmetic_intensity


def cold_plan(m: int, n: int):
    """Build the ``(m, n)`` kernel plan from scratch (the persistent disk
    cache is switched off by the benchmark's environment)."""
    from repro.kernels.plan import clear_plan_cache, get_plan

    clear_plan_cache()
    return get_plan(m, n)


@dataclass
class Tally:
    """Lane outcomes over a set of checked results."""

    lanes: int = 0
    tensors: int = 0
    verified: int = 0
    false_converged: int = 0
    failed: int = 0
    distinct: int = 0

    def add(self, values, m, n, tol, lam, vec, converged, failed,
            shifts) -> int:
        """Check one ``(T, V)`` result; returns its verified lane count."""
        lam = np.asarray(lam, np.float64)
        c = checks.verify_lanes(values, m, n, tol, lam, vec, converged,
                                failed, shifts)
        self.lanes += lam.size
        self.tensors += lam.shape[0]
        self.verified += int(c["verified"].sum())
        self.false_converged += int(c["false_converged"].sum())
        self.failed += int(c["failed"].sum())
        self.distinct += checks.distinct_eigenvalues(lam, c["verified"])
        return int(c["verified"].sum())

    def add_fleet(self, result, tol) -> int:
        # QRST results carry no shifts; it iterates unshifted
        shifts = (result.shifts if result.shifts is not None
                  else np.zeros(result.eigenvalues.shape))
        b = result.tensors
        return self.add(b.values, b.m, b.n, tol, result.eigenvalues,
                        result.eigenvectors, result.converged, result.failed,
                        shifts)

    def check(self, problems: list, label: str, *others: "Tally") -> None:
        """Fail the run on any failed lane, or when more of the lanes of
        this tally and ``others`` break the residual bound than the
        workload's ceiling allows."""
        lanes = self.lanes + sum(t.lanes for t in others)
        failed = self.failed + sum(t.failed for t in others)
        false = self.false_converged + sum(t.false_converged for t in others)
        if failed:
            problems.append(f"{label}: {failed} failed lanes")
        if false > checks.FALSE_CONVERGED_CEILING[label] * lanes:
            problems.append(
                f"{label}: {false} of {lanes} lanes flagged converged "
                f"break the residual bound")

    def quality(self) -> dict:
        return {"converged_frac": self.verified / self.lanes,
                "eigs_per_tensor": self.distinct / self.tensors}


def e2e(op_s, raw_s, solve_s, busy_s, done, pairs, tally, attempted,
        failed) -> dict:
    """The end-to-end metric set shared by every workload.

    ``op_s`` holds every operation's latency at the nominal host speed (a
    failed one counts as its whole slice; see :mod:`reference`), ``raw_s``
    the same latencies as measured, ``solve_s`` the median seconds of one
    operation's solve calls and ``busy_s`` the seconds the operations
    kept the workload busy, both scaled; ``done`` is how many operations
    completed and ``pairs`` their verified eigenpairs.
    """
    tail = tail_percentile(len(op_s))
    return {
        "solve_s": solve_s,
        "pairs_per_s": pairs / busy_s,
        **tally.quality(),
        "ok_frac": 1.0 - failed / attempted,
        "req_per_s": done / busy_s,
        "latency_p50_ms": percentile_ms(op_s, 50),
        "latency_p90_ms": percentile_ms(op_s, tail),
        "_latency_tail_percentile": tail,
        "_attempted": attempted,
        "_failed": failed,
        "_samples": len(op_s),
        "_op_seconds": [round(float(t), 6) for t in raw_s],
        "_false_converged": tally.false_converged,
    }


def timed_ops(reference, seconds: float, min_ops: int, op):
    """Call ``op(k)`` for ``k = 0, 1, ...`` until ``seconds`` have passed
    and at least ``min_ops`` calls were made, measuring ``reference``
    before the first call and after each one; returns the raw and the
    scaled seconds of every call."""
    raw, scaled = [], []
    before = reference.measure()
    t_start = time.perf_counter()
    while len(raw) < min_ops or time.perf_counter() - t_start < seconds:
        t0 = time.perf_counter()
        op(len(raw))
        raw.append(time.perf_counter() - t0)
        after = reference.measure()
        scaled.append(reference.scale(raw[-1], before, after))
        before = after
    return raw, scaled


# ---------------------------------------------------------------------------


class PaperBatch:
    name = "paper_batch"
    #: one process shard's fleet on each core, its 300 sweeps thinned out
    #: but keeping the share of lanes still active (100% falling to 10%)
    reference = ReferenceShape(
        m=4, n=3, tensors=512, starts=128, procs=2, nominal_s=0.5,
        schedule=((1.0, 3), (0.6, 3), (0.35, 3), (0.22, 6), (0.14, 15),
                  (0.1, 60)))

    def setup(self, seed: int, work) -> None:
        from repro.symtensor.random import random_symmetric_batch

        p = PAPER
        rng = np.random.default_rng(seed)
        self.batch = random_symmetric_batch(p["T"], p["m"], p["n"], rng=rng)
        self.starts = unit_starts(rng, p["V"], p["n"])
        self.plan = cold_plan(p["m"], p["n"])
        self.seed = seed

    def close(self) -> None:
        pass

    def _solve(self, **kwargs):
        import repro

        p = PAPER
        return repro.solve(self.batch, starts=self.starts, alpha=p["alpha"],
                           tol=p["tol"], max_iters=p["max_iters"], **kwargs)

    def _process_solve(self):
        return self._solve(workers=PAPER["workers"], executor="process")

    def run(self, seconds: float, problems: list, reference) -> dict:
        first = self._process_solve().result  # warm-up; the rest must match
        tally = Tally()
        verified = tally.add_fleet(first, PAPER["tol"])
        tally.check(problems, self.name)

        def op(_):
            res = self._process_solve().result
            if not checks.same_fleet_result(res, first):
                problems.append(f"{self.name}: process-tier solves disagree")

        raw, scaled = timed_ops(reference, seconds, 3, op)
        calls = len(raw)
        return e2e(scaled, raw, statistics.median(scaled), sum(scaled), calls,
                   verified * calls, tally, first.eigenvalues.size * calls,
                   tally.failed * calls)

    def trace(self, seconds: float, problems: list) -> dict:
        from repro.util.flopcount import FlopCounter

        p = PAPER
        tracer = LayerTracer()
        untraced, traced, reports = [], [], []
        counter = FlopCounter()
        t_start = time.perf_counter()
        while not traced or time.perf_counter() - t_start < seconds:
            t0 = time.perf_counter()
            inline = self._solve(workers=1).result
            untraced.append(time.perf_counter() - t0)
            with tracer:
                plan = tracer.plan_for(self.plan)
                t0 = time.perf_counter()
                traced_res = self._solve(workers=1, plan=plan,
                                         counter=counter).result
                traced.append(time.perf_counter() - t0)
            report = self._process_solve().extra
            reports.append(report)
            if not checks.same_fleet_result(traced_res, inline):
                problems.append(f"{self.name}: traced inline solve differs")
            if not checks.same_fleet_result(report.result, inline):
                problems.append(
                    f"{self.name}: process tier differs from the inline run")
        if not tracer.reconciles():
            problems.append(f"{self.name}: layer times do not reconcile")
        if counter.flops < tracer.n["flops"]:
            problems.append(f"{self.name}: kernel flops missing from counter=")
        tally = Tally()
        tally.add_fleet(inline, p["tol"])
        tally.check(problems, self.name)
        layers = tracer.layer_metrics(len(traced))
        # this workload never reaches the solver layer: one traced
        # method_mix round on inputs from the same seed measures it
        mix = MethodMix()
        mix.pool = mix_pool(self.seed)
        solvers = {k: v for k, v in mix.trace(0.0, problems).items()
                   if k.startswith("solvers.")}
        return layers | parallel_metrics(reports, layers["engine.fleet_s"],
                                         len(reports)) | solvers | {
            "kernels.model_flops_per_byte": model_flops_per_byte(
                tracer, p["m"], p["n"], p["T"], p["V"]),
            "engine.false_converged": tally.false_converged,
            "_attempted": tally.lanes, "_failed": tally.failed,
            "bench.trace_overhead_frac": (statistics.median(traced)
                                          / statistics.median(untraced) - 1),
        }


# ---------------------------------------------------------------------------


def mix_pool(seed: int) -> list:
    """``(batch, starts, seed)`` for every ``method_mix`` round.  QRST
    draws a random rotation when a sweep stalls; the per-batch seed keeps
    every method deterministic."""
    from repro.symtensor.random import random_symmetric_batch

    p = MIX
    rng = np.random.default_rng(seed)
    return [(random_symmetric_batch(p["T"], p["m"], p["n"], rng=rng),
             unit_starts(rng, p["V"], p["n"]), int(rng.integers(2**31 - 1)))
            for _ in range(p["pool"])]


class MethodMix:
    name = "method_mix"
    #: the kernel's small-batch shape on one core: per-call overhead rules
    reference = ReferenceShape(m=4, n=6, tensors=8, starts=8,
                               schedule=((1.0, 400),), procs=1, nominal_s=0.2)

    def setup(self, seed: int, work) -> None:
        self.pool = mix_pool(seed)
        self.plan = cold_plan(MIX["m"], MIX["n"])

    def close(self) -> None:
        pass

    def _solve(self, k: int, method: str):
        import repro

        batch, starts, seed = self.pool[k % len(self.pool)]
        return repro.solve(batch, starts=starts, method=method, tol=MIX["tol"],
                           max_iters=MIX["max_iters"], rng=seed).result

    def _warm_up(self) -> None:
        """One untimed single-tensor solve per method, so lazy imports and
        first-call costs stay out of the samples."""
        import repro

        batch, starts, seed = self.pool[0]
        for method in MIX["methods"]:
            repro.solve(batch.subset(1), starts=starts, method=method,
                        tol=MIX["tol"], max_iters=MIX["max_iters"], rng=seed)

    def run(self, seconds: float, problems: list, reference) -> dict:
        p = MIX
        self._warm_up()
        rounds = []

        def op(k):
            rounds.append([self._solve(k, m) for m in p["methods"]])

        raw, scaled = timed_ops(reference, seconds, p["quality"], op)
        quality, rest = Tally(), Tally()
        verified = 0
        for k, results in enumerate(rounds):
            tally = quality if k < p["quality"] else rest
            for res in results:
                verified += tally.add_fleet(res, p["tol"])
        quality.check(problems, self.name, rest)
        if len(rounds) > p["pool"]:
            problems.append(f"{self.name}: ran past the input pool")
        return e2e(scaled, raw, statistics.median(scaled), sum(scaled),
                   len(rounds), verified, quality, quality.lanes + rest.lanes,
                   quality.failed + rest.failed)

    def trace(self, seconds: float, problems: list) -> dict:
        p = MIX
        tracer = LayerTracer()
        tally = Tally()
        untraced = {m: [] for m in p["methods"]}
        traced_total = untraced_total = 0.0
        verified = {m: 0 for m in p["methods"]}
        self._warm_up()
        t_start = time.perf_counter()
        k = 0
        while k < 1 or time.perf_counter() - t_start < seconds:
            for method in p["methods"]:
                t0 = time.perf_counter()
                res = self._solve(k, method)
                dt = time.perf_counter() - t0
                untraced[method].append(dt)
                untraced_total += dt
                with tracer:
                    t0 = time.perf_counter()
                    traced_res = self._solve(k, method)
                    traced_total += time.perf_counter() - t0
                if not checks.same_fleet_result(res, traced_res):
                    problems.append(f"{self.name}: traced {method} differs")
                verified[method] += tally.add_fleet(res, p["tol"])
            k += 1
        tally.check(problems, self.name)
        if not tracer.reconciles():
            problems.append(f"{self.name}: layer times do not reconcile")
        layers = tracer.layer_metrics(k)

        def rate(method):
            return verified[method] / sum(untraced[method])

        return layers | {
            "kernels.model_flops_per_byte": model_flops_per_byte(
                tracer, p["m"], p["n"], p["T"], p["V"]),
            **{f"solvers.{m}_s": statistics.median(untraced[m])
               for m in p["methods"]},
            "solvers.geap_vs_sshopm": (rate("geap") / rate("sshopm")
                                       if rate("sshopm") else 0.0),
            "engine.false_converged": tally.false_converged,
            "_attempted": tally.lanes, "_failed": tally.failed,
            "bench.trace_overhead_frac": traced_total / untraced_total - 1,
        }


# ---------------------------------------------------------------------------


def _done(record) -> bool:
    """A closed-loop record whose request ended ``done``."""
    _, _, status, doc = record
    return status == 200 and doc is not None and doc.get("status") == "done"


#: the reply fields the residual check reads
RESULT_KEYS = ("eigenvalues", "eigenvectors", "converged", "failed", "shifts")


def _compact(doc: dict) -> dict:
    """``doc`` with its result lists as arrays, a quarter of the memory."""
    result = doc.get("result")
    if result is not None:
        doc["result"] = {k: np.asarray(result[k], np.float64)
                         for k in RESULT_KEYS}
    return doc


class ServeLoaded:
    name = "serve_loaded"
    #: a job chunk's shape on two threads of one process, like the two job
    #: runners: per-call overhead and the interpreter lock rule, as in the
    #: server's 8-tensor fleets
    reference = ReferenceShape(m=4, n=4, tensors=8, starts=16,
                               schedule=((1.0, 1000),), procs=1, threads=2,
                               nominal_s=0.3)

    def setup(self, seed: int, work) -> None:
        from repro.serve import EigenServer, ServeConfig

        s = SERVE
        rng = np.random.default_rng(seed)
        # far more recipes than one closed-loop run can send
        seeds = rng.integers(0, 2**31 - 1, size=(4096, 2))
        self.recipes = [{
            "tensors": {"kind": "random", "count": s["count"], "m": s["m"],
                        "n": s["n"], "seed": int(a)},
            "num_starts": s["num_starts"], "seed": int(b), "chunk": s["chunk"],
            "method": "sshopm", "workers": 1, "executor": "thread",
            "tol": s["tol"], "max_iters": s["max_iters"],
        } for a, b in seeds]
        self.work = work
        (work / "direct").mkdir(parents=True, exist_ok=True)
        self.plan = cold_plan(s["m"], s["n"])
        self.server = EigenServer(ServeConfig(checkpoint_dir=work / "ckpt"))
        host, port = self.server.start()
        self.url = f"http://{host}:{port}/solve?wait=1"
        self.next = 0

    def close(self) -> None:
        self.server.drain()

    def _post(self, i: int):
        """POST recipe ``i``; returns ``(status, doc)``.  Replies to the
        first ``direct`` recipes, which are compared with direct runs,
        keep their JSON form; the rest are compacted."""
        body = json.dumps(self.recipes[i]).encode()
        req = urllib.request.Request(
            self.url, data=body, method="POST",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=120) as resp:
                doc = json.loads(resp.read())
                return resp.status, (doc if i < SERVE["direct"]
                                     else _compact(doc))
        except urllib.error.HTTPError as exc:
            return exc.code, None
        except (OSError, ValueError, http.client.HTTPException):
            return None, None

    def closed_loop(self, seconds: float, min_requests: int):
        """Two clients, each sending its next request when the reply to
        its previous one arrives; returns ``(records, wall)`` where a
        record is ``(index, latency_s, status, doc)``."""
        lock = threading.Lock()
        records = []
        t_start = time.perf_counter()
        first = self.next

        def client():
            while True:
                with lock:
                    done = self.next - first
                    if ((time.perf_counter() - t_start >= seconds
                         and done >= min_requests)
                            or self.next >= len(self.recipes)):
                        return
                    i = self.next
                    self.next += 1
                t0 = time.perf_counter()
                status, doc = self._post(i)
                latency = time.perf_counter() - t0
                with lock:
                    records.append((i, latency, status, doc))

        threads = [threading.Thread(target=client)
                   for _ in range(SERVE["clients"])]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records.sort(key=lambda r: r[0])
        return records, time.perf_counter() - t_start

    def _check(self, records, tally: Tally, quality_upto: int,
               problems: list):
        """Verify every reply; quality counts only requests below
        ``quality_upto`` (a fixed prefix, so it repeats per seed).
        Returns ``(verified lanes, failed requests)``."""
        from repro.serve.jobs import JobSpec

        verified = bad = 0
        scratch = Tally()
        for i, _, status, doc in records:
            if not _done((i, None, status, doc)):
                bad += 1
                continue
            spec = JobSpec.from_doc(copy.deepcopy(self.recipes[i]))
            b = spec.build_batch()
            r = doc["result"]
            target = tally if i < quality_upto else scratch
            verified += target.add(
                b.values, b.m, b.n, spec.tol, r["eigenvalues"],
                r["eigenvectors"], r["converged"], r["failed"], r["shifts"])
        tally.check(problems, self.name, scratch)
        if bad:
            problems.append(f"{self.name}: {bad} requests did not end done")
        return verified, bad

    def _direct(self, index: int):
        """``run_job`` on recipe ``index`` in this thread; returns
        ``(job, seconds)``."""
        from repro.serve.jobs import Job, JobSpec, run_job

        spec = JobSpec.from_doc(copy.deepcopy(self.recipes[index]))
        job = Job(f"direct-{index}", spec)
        t0 = time.perf_counter()
        run_job(job, ckpt_dir=self.work / "direct")
        return job, time.perf_counter() - t0

    def _same_as_direct(self, record, problems: list) -> float:
        i, _, _, doc = record
        job, seconds = self._direct(i)
        if job.status != "done" or doc is None or not checks.same_json(
                job.result, doc.get("result")):
            problems.append(f"{self.name}: request {i} differs from a direct "
                            f"run_job of its spec")
        return seconds

    def run(self, seconds: float, problems: list, reference) -> dict:
        s = SERVE
        records, raw, scaled, job_s = [], [], [], []
        busy, rss = 0.0, None
        before = reference.measure()
        t_start = time.perf_counter()
        while (len(records) < s["min_requests"]
               or time.perf_counter() - t_start < seconds):
            part, wall = self.closed_loop(s["slice_s"], 0)
            after = reference.measure()
            scale = reference.scale(1.0, before, after)
            before = after
            for r in part:
                # a failed or refused request misses every latency limit
                raw.append(r[1] if _done(r) else wall)
                scaled.append(raw[-1] * scale)
                if _done(r):
                    job_s.append(r[3]["seconds"] * scale)
            records += part
            busy += wall * scale
            if rss is None and len(records) >= s["min_requests"]:
                # the server keeps every finished job's result, so memory
                # grows with the jobs a run finishes: compare at a fixed
                # count
                rss = peak_rss_mb()
        tally = Tally()
        verified, bad = self._check(records, tally, s["quality"], problems)
        self._same_as_direct(records[0], problems)
        return e2e(scaled, raw, statistics.median(job_s) if job_s else busy,
                   busy, len(job_s), verified, tally, len(records), bad) | {
            "peak_rss_mb": rss}

    def trace(self, seconds: float, problems: list) -> dict:
        s = SERVE
        half = seconds / 2
        plain, _ = self.closed_loop(half, 40)
        tracer = LayerTracer()
        with tracer:
            traced, _ = self.closed_loop(half, 40)
        tally = Tally()
        _, bad = self._check(plain + traced, tally, s["quality"], problems)
        direct = [self._same_as_direct(r, problems)
                  for r in plain[:s["direct"]]]
        done = [r for r in plain if _done(r)]
        job_s = statistics.median(r[3]["seconds"] for r in done)
        http_s = statistics.median(r[1] - r[3]["seconds"] for r in done)
        direct_s = statistics.median(direct)
        rejected = sum(r[2] == 429 for r in plain + traced)
        ops = sum(_done(r) for r in traced)
        layers = tracer.layer_metrics(ops)
        p50 = statistics.median(r[1] for r in plain)
        return layers | parallel_metrics(tracer.reports,
                                         layers["engine.fleet_s"], ops) | {
            "kernels.model_flops_per_byte": model_flops_per_byte(
                tracer, s["m"], s["n"], s["chunk"], s["num_starts"]),
            "serve.job_ms": job_s * 1e3,
            "serve.http_ms": http_s * 1e3,
            "serve.direct_job_ms": direct_s * 1e3,
            "serve.concurrency_penalty": job_s / direct_s,
            "serve.rejected": rejected,
            "engine.false_converged": tally.false_converged,
            "_attempted": len(plain) + len(traced), "_failed": bad,
            "bench.trace_overhead_frac": (statistics.median(r[1] for r in traced)
                                          / p50 - 1),
        }


WORKLOADS = {w.name: w for w in (PaperBatch, MethodMix, ServeLoaded)}
