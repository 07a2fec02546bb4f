"""The benchmark's three closed-loop workloads.

Each workload makes one layer of the program do most of the work and
bypasses another (see ``README.md`` for why each exists):

* ``cold_pipeline`` — one client; every op is a full three-stage
  :func:`~repro.pipeline.run_workflow` into an empty store, on a new
  acquisition.  Every stage computes and publishes.
* ``atlas_sweep`` — one client; stages 1-2 are computed once in set-up
  and every op changes only the ``connectome`` section, so sampling and
  tracking are store reads and the connectome computes.
* ``served`` — a :class:`~repro.service.TractographyService` with one
  slot and two closed-loop client threads sending new tracking variants
  and ~30% resubmissions (result-cache hits, the only ``hit`` ops), each
  after a random think time of up to one scheduler poll.

Every op is checked (:mod:`e2ebench.checks`); a failed check or an
exception marks the op failed and the run goes on.  Store directories
and garbage collection are handled between ops, outside the timed
region.  A run also pauses its ops at fixed points of its window to
take its set-up samples (:meth:`Workload.pause_for`).
"""

from __future__ import annotations

import gc
import itertools
import json
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from e2ebench.checks import (
    STAGES,
    CheckFailed,
    check_connectome,
    check_hits,
    check_same_manifest,
    check_store_entries,
    require,
)
from e2ebench.spans import UNATTRIBUTED, Tracer, patched
from repro.config import RunSpec
from repro.data import dataset1
from repro.errors import JobQueueFullError, ReproError
from repro.pipeline import run_workflow
from repro.service import ServiceConfig, TractographyService
from repro.service.worker import build_phantom
from repro.store import ArtifactStore
from repro.telemetry import MetricsRegistry, build_manifest, use_registry

#: Longest a run keeps issuing ops to reach ``Size.min_ops``.
MAX_WINDOW_S = 120.0

#: Timeout for one served job.
JOB_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Size:
    """How big one op is and how many a run must complete."""

    #: ``dataset1`` scale (0.08 is the smallest 8 x 8 x 8 grid).
    scale: float
    #: The ``sampling`` section of every spec (the MCMC schedule).
    sampling: dict
    #: The ``tracking`` section of the direct workloads' spec.
    tracking: dict
    #: Compute ops a run completes even when ``--seconds`` ends first
    #: (at least 10 beyond a p75, 4 beyond a p90).
    min_ops: int
    #: Cold set-ups per run, each in a fresh process; ``setup_s`` is
    #: their median.
    setup_reps: int


#: The reference size: 208 fitted voxels, one posterior sample, burn-in
#: 20.  ``max_steps`` 10 keeps streamlines short, and the connectome,
#: which re-tracks with the tracking criteria, shrinks with them: MCMC
#: becomes a visible share of a cold op (after the paper's MCMC-heavy
#: stage ratio) while the connectome stays its largest layer and a cold
#: op stays well under 1 s.
REFERENCE = Size(
    scale=0.08,
    sampling={"n_burnin": 20, "n_samples": 1, "sample_interval": 1, "adapt_every": 10},
    tracking={"max_steps": 10},
    min_ops=40,
    setup_reps=5,
)

#: A few-second size for the benchmark's own tests.
TINY = Size(
    scale=0.08,
    sampling={"n_burnin": 4, "n_samples": 1, "sample_interval": 1, "adapt_every": 2},
    tracking={"max_steps": 6},
    min_ops=0,
    setup_reps=1,
)

#: The atlas sweep's grid: atlas x connectome.min_steps x normalize.
SWEEP_ATLASES = ("octant",) + tuple(f"slabs{k}" for k in range(2, 9)) + tuple(
    f"grid{k}" for k in range(2, 9)
)
SWEEP_MIN_STEPS = tuple(range(8))
SWEEP_NORMALIZE = ("count", "fraction")
#: The set-up's warm-up connectome (outside the grid, so no op repeats it).
SWEEP_WARMUP = ("octant", len(SWEEP_MIN_STEPS), "count")

#: The served tracking variants: max_steps x step_length x min_dot.
SERVED_MAX_STEPS = tuple(range(40, 80))
SERVED_STEP_LENGTHS = (0.18, 0.2, 0.22, 0.25)
SERVED_MIN_DOTS = (0.75, 0.8, 0.85)
#: Tracking sections run in set-up: the sampling warm-up and the warm-up op.
SERVED_WARMUPS = ({"max_steps": 30}, {"max_steps": 31})
SERVED_CLIENTS = 2
SERVED_SLOTS = 1
SERVED_HIT_SHARE = 0.3


def noise_seed(seed: int, i: int) -> int:
    """The acquisition noise seed of op ``i`` (``-1``: set-up) of a run."""
    return int(np.random.SeedSequence([seed, i + 1]).generate_state(1)[0])


@dataclass
class Op:
    """One timed request and its check outcome."""

    kind: str  # "compute" or "hit"
    seconds: float
    traced: bool
    error: str | None = None


class Workload:
    """Shared state and accounting of one workload run."""

    name = ""
    #: Whether the workload has ``hit`` ops (and so a ``hit_p50_s``).
    HITS = False
    #: The compute-op percentile reported as ``op_tail_s``.  Fixed per
    #: workload, so it never flips between runs.
    TAIL_PERCENTILE: int

    def __init__(self, seed: int, size: Size, workdir: Path, tracer: Tracer | None = None):
        self.seed = seed
        self.size = size
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tracer = tracer
        self.window_s = 0.0
        #: Window times (s) still to pause at, and the pauses' total time.
        self.pauses: list[float] = []
        self.paused_s = 0.0
        self._on_pause = None
        self._op_ids = itertools.count()
        self._spec_base = {"sampling": dict(size.sampling)}

    # -- interface -------------------------------------------------------

    def setup(self) -> None:
        """The fixed set-up work, including one warm-up op."""
        raise NotImplementedError

    def run(self, seconds: float, max_ops: int | None = None) -> list[Op]:
        """Issue ops for ``seconds`` (and at least ``size.min_ops``)."""
        raise NotImplementedError

    def pause_for(self, on_pause, at) -> None:
        """Call ``on_pause()`` between ops once the window reaches each
        time (s) in ``at``.

        Paused time is left out of the window.  Pauses the window ends
        before run after it, so a run always makes ``len(at)`` calls.
        """
        self._on_pause = on_pause
        self.pauses = sorted(at)

    def finish(self) -> list[str]:
        """End-of-run checks; returns the reasons of any that failed."""
        return []

    def counters(self) -> dict[str, int]:
        """Event counts over every op of the run (service layer)."""
        return {"service.cache_hits": 0, "service.coalesced": 0, "service.rejected": 0}

    def describe(self) -> dict:
        """Run metadata: the workload's inputs."""
        return {
            "scale": self.size.scale,
            "voxels": int(self._acquisition(0).mask.sum()),
            "sampling": dict(self.size.sampling),
            "tracking": dict(self.size.tracking),
        }

    def close(self) -> None:
        """Release what the workload holds (processes, directories)."""
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- helpers ---------------------------------------------------------

    def _keep_going(self, start: float, seconds: float, n_compute: int,
                    max_ops: int | None) -> bool:
        if max_ops is not None:
            return n_compute < max_ops
        elapsed = self._elapsed(start)
        if elapsed >= MAX_WINDOW_S:
            return False
        return elapsed < seconds or n_compute < self.size.min_ops

    def _elapsed(self, start: float) -> float:
        """Window time since ``start``, pauses left out."""
        return time.perf_counter() - start - self.paused_s

    def _pause_due(self, start: float) -> bool:
        return bool(self.pauses) and self._elapsed(start) >= self.pauses[0]

    def _pause(self) -> None:
        t0 = time.perf_counter()
        self.pauses.pop(0)
        self._on_pause()
        self.paused_s += time.perf_counter() - t0

    def _end_window(self, start: float) -> None:
        """Close the op window, then take the pauses it did not reach."""
        self.window_s = self._elapsed(start)
        while self.pauses:
            self._pause()

    def _span(self, traced: bool, name: str, layer: str, **attrs):
        if not traced:
            return nullcontext()
        return self.tracer.span(name, layer, **attrs)

    def _root(self, traced: bool, **attrs):
        """The span of one traced op (a no-op context when untraced)."""
        if not traced:
            return nullcontext()
        return self.tracer.span("op", UNATTRIBUTED, op=next(self._op_ids), **attrs)

    def _acquisition(self, i: int):
        return dataset1(scale=self.size.scale, snr=40.0, seed=noise_seed(self.seed, i))


class DirectWorkload(Workload):
    """A single client calling :func:`run_workflow` in this process."""

    #: Stage -> whether a compute op's stage must be a store hit.
    EXPECTED_HITS: dict[str, bool] = {}
    #: A direct op is pure CPU work, so its time follows the host's fast
    #: and slow speed phases, and the share of each moves between runs.
    #: The p90 reads the slow phase whenever a tenth of a run's ops fall
    #: in it, which nearly every run has; the p75 flipped with the share.
    TAIL_PERCENTILE = 90

    def prepare(self, i: int):
        """Untimed: ``(phantom, spec, store)`` of op ``i``."""
        raise NotImplementedError

    def cleanup(self, store) -> None:
        """Untimed, after op ``i``."""

    def n_distinct(self) -> int | None:
        """How many distinct ops a run can issue (``None``: unbounded)."""
        return None

    def check(self, result) -> None:
        """The op's output checks."""
        check_hits(result.cache, self.EXPECTED_HITS)
        check_connectome(result.connectome)

    def run(self, seconds: float, max_ops: int | None = None) -> list[Op]:
        ops: list[Op] = []
        start = time.perf_counter()
        limit = self.n_distinct()
        i = 0
        while (limit is None or i < limit) and self._keep_going(start, seconds, i, max_ops):
            if self._pause_due(start):
                self._pause()
            phantom, spec, store = self.prepare(i)
            traced = self.tracer is not None and i % 2 == 1
            ops.append(self._timed(traced, phantom, spec, store))
            self.cleanup(store)
            i += 1
        self._end_window(start)
        return ops

    def _timed(self, traced, phantom, spec, store) -> Op:
        """Run, time and check one request."""
        gc.collect()
        result, error = None, None
        ctx = patched(self.tracer) if traced else nullcontext()
        with use_registry(MetricsRegistry()), ctx:
            t0 = time.perf_counter()
            try:
                with self._root(traced, kind="compute") as root:
                    with self._span(traced, "pipeline.run_workflow", "pipeline"):
                        result = run_workflow(phantom, spec=spec, store=store)
            except Exception as exc:  # the op failed; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        if root is not None:
            seconds = root.seconds
            root.attrs["counts"] = _direct_counts(self.tracer, root)
        if error is None:
            try:
                self.check(result)
            except CheckFailed as exc:
                error = str(exc)
        return Op("compute", seconds, traced, error)


#: Per-op work counts (and store call times) a traced compute op records.
OP_COUNTS = (
    "mcmc.voxels", "tracking.steps", "connectome.streamlines", "store.hits",
    "store.lookups", "store.bytes_written", "store.lookup_s", "store.publish_s",
)


def _direct_counts(tracer: Tracer, root) -> dict:
    """Work counts of one traced direct op, from its spans' attributes."""
    counts = dict.fromkeys(OP_COUNTS, 0)
    for s in tracer.spans[root.index:]:
        if s.op != root.op:
            continue
        counts["mcmc.voxels"] += s.attrs.get("voxels", 0)
        counts["tracking.steps"] += s.attrs.get("steps", 0)
        counts["connectome.streamlines"] += s.attrs.get("streamlines", 0)
        if s.name == "store.lookup":
            counts["store.lookups"] += 1
            counts["store.hits"] += int(s.attrs["hit"])
            counts["store.lookup_s"] += s.seconds
        elif s.name == "store.publish":
            counts["store.bytes_written"] += s.attrs["bytes"]
            counts["store.publish_s"] += s.seconds
    return counts


class ColdPipeline(DirectWorkload):
    """A user's first analysis: every stage computes and publishes."""

    name = "cold_pipeline"
    EXPECTED_HITS = {stage: False for stage in STAGES}

    def setup(self) -> None:
        self.spec = RunSpec.from_dict(
            {**self._spec_base, "tracking": dict(self.size.tracking),
             "connectome": {"atlas": "octant"}}
        )
        # The warm-up op: its imports and lazy initialisation are set-up.
        phantom, spec, store = self.prepare(-1)
        with use_registry(MetricsRegistry()):
            self.check(run_workflow(phantom, spec=spec, store=store))
        self.cleanup(store)

    def prepare(self, i: int):
        return self._acquisition(i), self.spec, self._store(i)

    def _store(self, i: int) -> ArtifactStore:
        """An empty store for op ``i``."""
        return ArtifactStore(self.workdir / f"op{i}")

    def cleanup(self, store) -> None:
        shutil.rmtree(store.root, ignore_errors=True)

    def describe(self) -> dict:
        return {**super().describe(), "atlas": "octant"}


class AtlasSweep(DirectWorkload):
    """Connectome variants over one tracked acquisition."""

    name = "atlas_sweep"
    EXPECTED_HITS = {"sampling": True, "tracking": True, "connectome": False}

    def setup(self) -> None:
        self.phantom = self._acquisition(0)
        self.store = ArtifactStore(self.workdir / "store")
        with use_registry(MetricsRegistry()):
            upstream = run_workflow(
                self.phantom, spec=self._spec(("none", 0, "count")), store=self.store
            )
            check_hits(upstream.cache, {"sampling": False, "tracking": False})
            # The warm-up op, on a combination the sweep never issues.
            self.check(
                run_workflow(self.phantom, spec=self._spec(SWEEP_WARMUP), store=self.store)
            )
        combos = list(itertools.product(SWEEP_ATLASES, SWEEP_MIN_STEPS, SWEEP_NORMALIZE))
        order = np.random.default_rng(self.seed).permutation(len(combos))
        self.combos = [combos[j] for j in order]

    def _spec(self, combo) -> RunSpec:
        atlas, min_steps, normalize = combo
        return RunSpec.from_dict(
            {**self._spec_base, "tracking": dict(self.size.tracking),
             "connectome": {"atlas": atlas, "min_steps": min_steps,
                            "normalize": normalize}}
        )

    def n_distinct(self) -> int:
        return len(self.combos)

    def prepare(self, i: int):
        return self.phantom, self._spec(self.combos[i]), self.store

    def finish(self) -> list[str]:
        try:
            check_store_entries(self.store, {"sampling": 1, "tracking": 1})
        except CheckFailed as exc:
            return [str(exc)]
        return []


class Served(Workload):
    """Tracking variants and resubmissions through the job service."""

    name = "served"
    HITS = True
    #: A served job's time is mostly the fork, the file hand-off and the
    #: scheduler poll, which follow the host's speed phases less; its p75
    #: repeated best, and the percentiles above it catch the rare jobs
    #: queued behind the other client's.
    TAIL_PERCENTILE = 75

    def setup(self) -> None:
        self.dataset = {
            "name": "dataset1",
            "scale": self.size.scale,
            "snr": 40.0,
            "seed": noise_seed(self.seed, 0),
        }
        self.service = TractographyService(
            ServiceConfig(
                store_root=str(self.workdir / "service"),
                dataset=self.dataset,
                slots=SERVED_SLOTS,
                worker_budget=1,
                queue_limit=2 * SERVED_CLIENTS,
            )
        )
        self.service.start()
        self._lock = threading.Lock()
        self.first: dict[str, dict] = {}
        self._first_job: tuple[str, dict] | None = None
        self._events = {"service.cache_hits": 0, "service.coalesced": 0,
                        "service.rejected": 0}
        self._n_compute = 0
        # Warm the sampling entry, then one warm-up op and its resubmission.
        warm, warmup_op = (self._request(t) for t in SERVED_WARMUPS)
        for request, sampling_hit in ((warm, False), (warmup_op, True), (warmup_op, True)):
            op = self._op(request, traced=False, sampling_hit=sampling_hit)
            if op.error is not None:
                raise CheckFailed(f"served set-up: {op.error}")
        self._events = dict.fromkeys(self._events, 0)
        self._first_job = None
        variants = list(
            itertools.product(SERVED_MAX_STEPS, SERVED_STEP_LENGTHS, SERVED_MIN_DOTS)
        )
        order = np.random.default_rng(self.seed).permutation(len(variants))
        pool = [
            self._request({"max_steps": int(m), "step_length": s, "min_dot": d})
            for m, s, d in (variants[j] for j in order)
        ]
        self.pools = [pool[c::SERVED_CLIENTS] for c in range(SERVED_CLIENTS)]

    def _request(self, tracking: dict) -> dict:
        return {"spec": {**self._spec_base, "tracking": tracking}}

    def run(self, seconds: float, max_ops: int | None = None) -> list[Op]:
        self._n_compute = 0
        per_client: list[list[Op]] = [[] for _ in range(SERVED_CLIENTS)]
        errors: list[BaseException] = []
        # Closed while a pause waits for the in-flight ops and runs.
        self._gate = threading.Condition()
        self._paused = False
        self._inflight = 0
        start = time.perf_counter()

        def client(c: int) -> None:
            try:
                self._client(c, start, seconds, max_ops, per_client[c])
            except BaseException as exc:  # reported after join
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(c,), name=f"e2ebench-client-{c}")
            for c in range(SERVED_CLIENTS)
        ]
        for t in threads:
            t.start()
        while any(t.is_alive() for t in threads):
            if self._pause_due(start):
                with self._gate:
                    self._paused = True
                    self._gate.wait_for(lambda: self._inflight == 0)
                try:
                    self._pause()
                except BaseException as exc:  # reported after join
                    errors.append(exc)
                    self.pauses.clear()
                finally:
                    with self._gate:
                        self._paused = False
                        self._gate.notify_all()
            else:
                threads[0].join(0.01)
        self._end_window(start)
        if errors:
            raise errors[0]
        return [op for ops in per_client for op in ops]

    def _client(self, c, start, seconds, max_ops, ops: list[Op]) -> None:
        """One closed-loop client: its own variants and resubmissions."""
        rng = np.random.default_rng([self.seed, c])
        pool = iter(self.pools[c])
        completed: list[dict] = []
        k = 0
        while True:
            with self._lock:
                if not self._keep_going(start, seconds, self._n_compute, max_ops):
                    return
            if completed and rng.random() < SERVED_HIT_SHARE:
                request = completed[int(rng.integers(len(completed)))]
            else:
                request = next(pool, None)
                if request is None:
                    return
            # Think time: requests reach the service at random phases of
            # its scheduler poll instead of in lockstep with it.
            time.sleep(rng.uniform(0.0, self.service.config.poll_interval_s))
            traced = self.tracer is not None and k % 2 == 1
            with self._gate:
                self._gate.wait_for(lambda: not self._paused)
                self._inflight += 1
            try:
                op = self._op(request, traced)
            finally:
                with self._gate:
                    self._inflight -= 1
                    self._gate.notify_all()
            ops.append(op)
            if op.kind == "compute":
                with self._lock:
                    self._n_compute += 1
                if op.error is None:
                    completed.append(request)
            k += 1

    def _op(self, request: dict, traced: bool, sampling_hit: bool = True) -> Op:
        """Submit one request and read its manifest; check both."""
        svc = self.service
        view = final = manifest = wait = None
        kind, error = "compute", None
        t0 = time.perf_counter()
        try:
            with self._root(traced) as root:
                with self._span(traced, "service.submit", "service"):
                    view = svc.submit(request)
                if not view["cache_hit"]:
                    with self._span(traced, "service.wait", "service") as wait:
                        final = svc.wait(view["job_id"], timeout=JOB_TIMEOUT_S)
                else:
                    kind = "hit"
                with self._span(traced, "service.result", "service"):
                    manifest = svc.result(view["job_id"])
        except JobQueueFullError as exc:
            self._bump("service.rejected")
            error = f"rejected: {exc}"
        except Exception as exc:  # the op failed; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if root is not None:
            seconds = root.seconds
            root.attrs["kind"] = kind
        if error is None:
            try:
                self._check(request, view, final, manifest, sampling_hit)
            except CheckFailed as exc:
                error = str(exc)
        if error is None and root is not None and final is not None:
            self._trace_job(root, wait, final, manifest)
        return Op(kind, seconds, traced, error)

    def _bump(self, name: str) -> None:
        with self._lock:
            self._events[name] += 1

    def _check(self, request, view, final, manifest, sampling_hit) -> None:
        job_id = view["job_id"]
        if view["cache_hit"]:
            self._bump("service.cache_hits")
            with self._lock:
                first = self.first.get(job_id)
            require(first is not None, f"cache hit on {job_id} before it was computed")
            check_same_manifest(first, manifest, f"cache hit on {job_id}")
            return
        if view["coalesced"]:
            self._bump("service.coalesced")
        require(final["state"] == "done", f"job {job_id} ended {final['state']}: "
                f"{final.get('error')}")
        check_hits(manifest["cache"], {"sampling": sampling_hit, "tracking": False})
        with self._lock:
            self.first.setdefault(job_id, manifest)
            if self._first_job is None:
                self._first_job = (job_id, request)

    def _trace_job(self, root, wait, final, manifest) -> None:
        """Spans of the service's job timestamps and the child's stage walls."""
        off = self.tracer.wall_offset
        created, started, finished = (
            final[k] - off for k in ("created_s", "started_s", "finished_s")
        )
        self.tracer.add("service.queue", "service", created, started, wait)
        run = self.tracer.add("service.run", "service", started, finished, wait)
        # The child's stage walls, laid end to end, ending when the job did.
        walls = {
            stage: manifest["timers"][f"workflow.{stage}"]["total_s"]
            for stage in STAGES
            if f"workflow.{stage}" in manifest["timers"]
        }
        end = run.end
        for stage in reversed([s for s in STAGES if s in walls]):
            layer = "store" if manifest["cache"][f"{stage}_hit"] else (
                "mcmc" if stage == "sampling" else stage
            )
            span = self.tracer.add(f"job.{stage}", layer, end - walls[stage], end, run)
            end = span.start
        cache = manifest["cache"]
        steps = json.loads(
            (self.service.jobstore.job_dir(final["job_id"]) / "result.json").read_text()
        )["total_steps"]
        root.attrs["queue_wait"] = started - created
        root.attrs["handoff"] = (finished - started) - sum(walls.values())
        # The child's store calls are inside its stage walls: their
        # times stay 0 here, only the counts are known.
        root.attrs["counts"] = {
            **dict.fromkeys(OP_COUNTS, 0),
            "tracking.steps": int(steps),
            "store.hits": int(cache["hits"]),
            "store.lookups": int(cache["hits"]) + int(cache["misses"]),
            "store.bytes_written": int(cache["bytes_written"]),
        }

    def finish(self) -> list[str]:
        """One served job must match a direct run of the same request."""
        if self._first_job is None:
            return ["no served job completed"]
        job_id, request = self._first_job
        registry = MetricsRegistry()
        try:
            with use_registry(registry):
                run_workflow(
                    build_phantom(self.dataset),
                    spec=RunSpec.from_dict(request["spec"]),
                    store=ArtifactStore(self.workdir / "direct"),
                )
            check_same_manifest(
                self.first[job_id], build_manifest(registry),
                f"served job {job_id} vs direct run_workflow",
            )
        except (CheckFailed, ReproError) as exc:
            return [str(exc)]
        return []

    def counters(self) -> dict[str, int]:
        return dict(self._events)

    def describe(self) -> dict:
        return {
            **super().describe(),
            "tracking": "variants of max_steps x step_length x min_dot",
            "dataset": dict(self.dataset),
            "slots": SERVED_SLOTS,
            "clients": SERVED_CLIENTS,
            "hit_share": SERVED_HIT_SHARE,
        }

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.stop()
        super().close()


WORKLOADS = {cls.name: cls for cls in (ColdPipeline, AtlasSweep, Served)}
