"""The ``repro serve`` daemon: HTTP front door over the fleet engine.

Stdlib only (:mod:`http.server` threading server + JSON), per the
no-new-runtime-deps rule.  The moving parts:

* :class:`ServeConfig` — every tuning knob, CLI-settable.
* :class:`EigenServer` — owns the admission queue, the circuit breaker,
  the job table, ``runners`` worker threads executing jobs through
  :func:`repro.serve.jobs.run_job`, the chunk batcher that merges their
  ready chunks into one fleet solve (:mod:`repro.serve.batcher`), and
  the HTTP server on a background thread.  ``serve_forever`` installs
  SIGTERM/SIGINT handlers whose only action is setting an event; the
  main thread then performs the drain — signal handlers never touch
  locks.
* :class:`_Handler` — the endpoint surface: ``POST /solve`` (async 202,
  or ``?wait=1`` to block until terminal), ``GET /jobs/<id>``,
  ``GET /healthz`` (live/ready split), ``GET /metrics`` (Prometheus
  text).

Drain lifecycle (see ``docs/serve.md``): signal → intake closes (new
``/solve`` gets 503, ``ready`` goes false, ``?wait=1`` clients of queued
jobs get their 503) → in-flight jobs' stop events
fire, cancelling their current chunk through the engine's
lane-retirement path → runner threads park → a ``repro-drain/1``
manifest records the queued + interrupted jobs → exit 0.  A restart with
``--resume-dir`` re-enqueues the manifest's jobs (same ids/run ids/specs)
before opening intake, finishing them bit-for-bit from their chunk
checkpoints.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.instrument.events import emit as _emit, new_run_id
from repro.instrument.log import get_logger
from repro.instrument.metrics import (
    default_registry,
    observe_serve_request,
)
from repro.serve.admission import AdmissionError, AdmissionQueue
from repro.serve.batcher import ChunkBatcher
from repro.serve.breaker import CircuitBreaker
from repro.serve.drain import (
    clear_drain_manifest,
    read_drain_manifest,
    write_drain_manifest,
)
from repro.serve.jobs import BadSpec, Job, JobSpec, run_job

__all__ = ["EigenServer", "ServeConfig"]

_log = get_logger("serve.server")

#: Cap on request body size — a solve spec is small; anything larger is
#: hostile or a client bug, rejected before parsing.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Seconds between the HTTP listener's checks for ``shutdown()``: a drain
#: waits up to one poll for the listener to stop, so this bounds an idle
#: drain (``serve_forever``'s default is 0.5 s).
POLL_INTERVAL = 0.05


@dataclass
class ServeConfig:
    """Tuning knobs of one server instance (see ``docs/serve.md``).

    ``runners`` is the number of job runner threads, so it caps the jobs
    in flight and with them how many jobs' chunks one merged fleet solve
    can hold.
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_limit: int = 32
    runners: int = 2
    checkpoint_dir: str | Path = "serve-ckpt"
    keep: int = 0
    breaker_threshold: int = 3
    breaker_reset: float = 30.0
    default_deadline: float | None = None
    default_method: str = "sshopm"
    resume_dir: str | Path | None = None
    extra: dict = field(default_factory=dict)


class EigenServer:
    """One daemon instance; create, then either :meth:`serve_forever`
    (installs signal handlers, starts, blocks, drains) or :meth:`start`
    and drive :meth:`submit`/:meth:`drain` directly (tests do)."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.ckpt_dir = Path(config.checkpoint_dir)
        self.ckpt_dir.mkdir(parents=True, exist_ok=True)
        self.queue = AdmissionQueue(config.queue_limit)
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            reset_after=config.breaker_reset)
        self.batcher = ChunkBatcher()
        self.jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._running: set[str] = set()
        self.draining = False
        self._shutdown = threading.Event()
        self._runner_threads: list[threading.Thread] = []
        self._httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self.started_at = time.time()

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> tuple[str, int]:
        """Bind the HTTP listener, load any drain manifest, start runners
        and serve; returns the bound ``(host, port)`` (real port when 0
        was asked).  The bind comes first, so a busy port fails before
        the manifest is taken."""
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.app = self
        resume_dir = self.config.resume_dir
        if resume_dir is not None:
            self._load_resume(Path(resume_dir))
        for i in range(self.config.runners):
            t = threading.Thread(target=self._runner_loop,
                                 name=f"repro-serve-runner-{i}", daemon=True)
            t.start()
            self._runner_threads.append(t)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": POLL_INTERVAL},
            name="repro-serve-http", daemon=True)
        self._http_thread.start()
        host, port = self._httpd.server_address[:2]
        _log.info("serving", fields={"host": host, "port": port,
                                     "queue_limit": self.config.queue_limit,
                                     "runners": self.config.runners})
        return host, port

    def serve_forever(self, on_ready=None) -> int:
        """Install SIGTERM/SIGINT handlers, :meth:`start`, block until a
        signal, then drain; returns the exit code.

        The handlers only set an event — the drain itself (locks, file
        writes, thread joins) runs here on the main thread, where it is
        signal-safe.  They go in before :meth:`start` takes a resume
        manifest's jobs and deletes it, so from then on a signal drains
        those jobs instead of killing them.  ``on_ready(host, port)`` runs
        once the server is up.
        """
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(
                signum, lambda *_: self._shutdown.set())
        try:
            host, port = self.start()
            if on_ready is not None:
                on_ready(host, port)
            # timed: a signal the kernel hands to a non-main thread only
            # flags the main thread, which an untimed wait never rechecks
            while not self._shutdown.wait(0.5):
                pass
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        self.drain()
        return 0

    def shutdown(self) -> None:
        """Ask ``serve_forever`` to drain (test hook, signal-equivalent)."""
        self._shutdown.set()

    def drain(self) -> dict:
        """Stop intake, cancel in-flight jobs, write the drain manifest.

        Returns ``{"queued": n, "interrupted": n, "manifest": path}`` —
        idempotent: a second call finds nothing to do.
        """
        t0 = time.time()
        if self.draining:
            return {"queued": 0, "interrupted": 0, "manifest": None}
        self.draining = True
        queued_jobs = self.queue.close()
        for job in queued_jobs:
            job.reply_event.set()  # answer ?wait=1 clients: still queued
        # close() and take(register=...) serialize on the queue lock, so
        # every job popped before close is already in _running here —
        # between the tail above and this snapshot, no job can fall
        # through the crack and be silently lost by the drain
        with self._jobs_lock:
            running = [self.jobs[j] for j in self._running if j in self.jobs]
        _emit("drain_start", inflight=len(running), queued=len(queued_jobs))
        for job in running:
            job.stop_event.set()
        for job in running:
            # the stop fires within one engine sweep; generous ceiling so
            # a wedged fleet cannot hold the drain hostage forever
            job.done_event.wait(timeout=60.0)
        for t in self._runner_threads:
            t.join(timeout=5.0)

        entries = []
        for job in queued_jobs:
            entries.append({"job": job.id, "run_id": job.run_id,
                            "state": "queued", "spec": job.spec.to_doc(),
                            "checkpoint": None})
        for job in running:
            if job.status == "interrupted":
                entries.append({"job": job.id, "run_id": job.run_id,
                                "state": "interrupted",
                                "spec": job.spec.to_doc(),
                                "checkpoint": job.checkpoint})
        manifest = None
        if entries:
            manifest = str(write_drain_manifest(self.ckpt_dir, entries))
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        seconds = time.time() - t0
        _emit("drain_finish", seconds=seconds, jobs=len(entries))
        _log.info("drained", fields={
            "seconds": round(seconds, 3), "queued": len(queued_jobs),
            "interrupted": sum(1 for e in entries
                               if e["state"] == "interrupted")})
        return {"queued": len(queued_jobs),
                "interrupted": sum(1 for e in entries
                                   if e["state"] == "interrupted"),
                "manifest": manifest}

    def _load_resume(self, resume_dir: Path) -> None:
        """Re-enqueue a previous life's drained jobs, then clear the
        manifest so a restart loop cannot double-run them."""
        entries = read_drain_manifest(resume_dir)
        if not entries:
            return
        for entry in entries:
            spec = JobSpec.from_doc(entry["spec"])
            job = Job(entry["job"], spec, run_id=entry["run_id"])
            with self._jobs_lock:
                self.jobs[job.id] = job
            # force: a drain taken under load writes up to queue_limit
            # queued entries plus the interrupted in-flight ones, so the
            # manifest can legitimately exceed the queue limit — resumed
            # jobs were already admitted in a previous life and must
            # never be bounced by the capacity check (/healthz simply
            # reads not-ready until the backlog drains below the limit)
            self.queue.submit(job, force=True)
            _emit("job_submit", job=job.id, resumed=True)
        clear_drain_manifest(resume_dir)
        _log.info("resumed drained jobs", fields={"count": len(entries)})

    # ------------------------------------------------------------------
    # request plane

    def submit(self, doc: dict) -> Job:
        """Validate + admit one solve request (raises :class:`BadSpec` or
        :class:`AdmissionError`)."""
        # a non-object body falls through to from_doc's BadSpec
        if isinstance(doc, dict) and "method" not in doc:
            doc = {**doc, "method": self.config.default_method}
        spec = JobSpec.from_doc(doc)
        if spec.deadline_seconds is None:
            spec.deadline_seconds = self.config.default_deadline
        job = Job(new_run_id(), spec)
        with self._jobs_lock:
            self.jobs[job.id] = job
        try:
            self.queue.submit(job)
        except AdmissionError:
            with self._jobs_lock:
                del self.jobs[job.id]
            raise
        _emit("job_submit", job=job.id)
        return job

    def get_job(self, job_id: str) -> Job | None:
        with self._jobs_lock:
            return self.jobs.get(job_id)

    def health(self) -> tuple[bool, dict]:
        """The live/ready split: live is "the process responds"; ready is
        "send me traffic" — false while draining, while the queue is at
        capacity, and while the breaker is open (the degraded tier still
        answers, but a balancer should prefer healthy peers)."""
        depth = len(self.queue)
        breaker = self.breaker.snapshot()
        ready = (not self.draining
                 and depth < self.config.queue_limit
                 and breaker["state"] != "open")
        return ready, {
            "live": True,
            "ready": ready,
            "draining": self.draining,
            "queue_depth": depth,
            "queue_limit": self.config.queue_limit,
            "breaker": breaker,
            "uptime_seconds": time.time() - self.started_at,
        }

    # ------------------------------------------------------------------
    # runners

    def _register_running(self, job: Job) -> None:
        """Mark ``job`` in-flight; runs under the queue lock via
        ``take(register=...)`` so pop + register is atomic with respect
        to ``queue.close()`` — after close returns, every popped job is
        visible in ``_running`` and the drain can never miss one in the
        window between pop and registration."""
        with self._jobs_lock:
            self._running.add(job.id)

    def _live_checkpoints(self) -> list[str]:
        """Checkpoint paths of every in-flight job — the prune-protect
        set, so one job's retention pass cannot delete a checkpoint a
        concurrently running job still needs at the next drain."""
        with self._jobs_lock:
            return [self.jobs[j].checkpoint for j in self._running
                    if j in self.jobs and self.jobs[j].checkpoint]

    def _runner_loop(self) -> None:
        while not self.draining:
            job = self.queue.take(timeout=0.2,
                                  register=self._register_running)
            if job is None:
                continue
            t0 = time.time()
            try:
                run_job(job, breaker=self.breaker, ckpt_dir=self.ckpt_dir,
                        keep=self.config.keep,
                        protect=self._live_checkpoints,
                        batcher=self.batcher)
            except Exception as exc:  # pragma: no cover - defensive
                _log.error("runner crashed on job",
                           fields={"job": job.id, "error": str(exc)})
                if not job.done_event.is_set():
                    job.finish("failed", error=f"internal error: {exc}")
            finally:
                self.queue.record_service_time(time.time() - t0)
                with self._jobs_lock:
                    self._running.discard(job.id)


class _Handler(BaseHTTPRequestHandler):
    """Endpoint surface; ``self.server.app`` is the :class:`EigenServer`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def _send_json(self, code: int, doc: dict, headers: dict | None = None):
        body = (json.dumps(doc) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):  # route through structured logging
        _log.debug("http", fields={"line": fmt % args})

    @property
    def app(self) -> EigenServer:
        return self.server.app

    # ------------------------------------------------------------------
    def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler contract
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            observe_serve_request("/healthz")
            ready, doc = self.app.health()
            self._send_json(200 if ready else 503, doc)
        elif path == "/metrics":
            observe_serve_request("/metrics")
            from repro.instrument.export import prometheus_text

            body = prometheus_text(metrics=default_registry()).encode()
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif path.startswith("/jobs/"):
            observe_serve_request("/jobs")
            job = self.app.get_job(path[len("/jobs/"):])
            if job is None:
                self._send_json(404, {"error": "unknown job"})
            else:
                self._send_json(200, job.to_doc())
        else:
            self._send_json(404, {"error": f"no such endpoint {path}"})

    def do_POST(self):  # noqa: N802
        path, _, query = self.path.partition("?")
        if path != "/solve":
            self._send_json(404, {"error": f"no such endpoint {path}"})
            return
        observe_serve_request("/solve")
        app = self.app
        if app.draining:
            self._send_json(503, {"error": "draining",
                                  "detail": "server is shutting down"},
                            headers={"Retry-After": "5"})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length <= 0 or length > MAX_BODY_BYTES:
            # the body stays unread, so the connection cannot carry
            # another request
            self._send_json(400, {"error": "bad_request",
                                  "detail": "missing, malformed or "
                                            "oversized body"},
                            headers={"Connection": "close"})
            return
        try:
            doc = json.loads(self.rfile.read(length))
        except ValueError as exc:  # JSONDecodeError or bad UTF-8
            self._send_json(400, {"error": "bad_request",
                                  "detail": f"invalid JSON: {exc}"})
            return
        try:
            job = app.submit(doc)
        except BadSpec as exc:
            self._send_json(400, {"error": "bad_request",
                                  "detail": str(exc)})
            return
        except AdmissionError as exc:
            _emit("job_reject", reason=exc.reason)
            retry = max(1, int(round(exc.retry_after)))
            self._send_json(429, {
                "error": exc.reason,
                "detail": "admission queue is full — back off and retry",
                "retry_after": retry,
                "queue_limit": app.config.queue_limit,
            }, headers={"Retry-After": str(retry)})
            return
        wait = "wait=1" in query or "wait=true" in query
        if wait:
            job.reply_event.wait()
            if job.done_event.is_set():
                self._send_json(200, job.to_doc())
            else:
                # a drain closed the queue with the job still in it; the
                # drain manifest keeps it for the next life
                self._send_json(503, {
                    "error": "draining", "job": job.id,
                    "status": job.status,
                    "detail": "server is shutting down; the job stays "
                              "queued in the drain manifest"},
                    headers={"Retry-After": "5"})
        else:
            self._send_json(202, {"job": job.id, "run_id": job.run_id,
                                  "status": job.status},
                            headers={"Location": f"/jobs/{job.id}"})
