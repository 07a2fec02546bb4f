"""Bit-identity of the fused multi-sample engine.

The contract of ``tracking.engine = "fused"``: stacking every
shard-local sample into one lockstep batch changes *scheduling only* —
lengths, stop reasons, end voxels, connectivity visit maps, and the
deterministic telemetry counters are **bit-identical** to the per-sample
engine, for
any worker count, thread order, interpolation mode, bidirectional
setting, compact threshold, and array backend.  Each row's arithmetic
depends only on its own state and its own sample's field bytes, so the
stacked gather (``sample * n_vox + flat``) fetches exactly what the
per-sample gather would; these tests pin that argument down
empirically.
"""

import json

import numpy as np
import pytest

from repro.data import dataset1
from repro.models.fields import FiberField
from repro.telemetry import (
    MetricsRegistry,
    build_manifest,
    deterministic_sections,
    use_registry,
)
from repro.tracking import (
    ProbtrackConfig,
    TerminationCriteria,
    probabilistic_streamlining,
)
from repro.utils.geometry import normalize

N_SAMPLES = 5


@pytest.fixture(scope="module")
def fields():
    """Small pseudo-posterior sample volumes (perturbed ground truth)."""
    phantom = dataset1(scale=0.15, snr=40.0)
    truth = phantom.truth
    rng = np.random.default_rng(7)
    out = []
    for _ in range(N_SAMPLES):
        has_fiber = truth.f > 0
        noise = rng.normal(scale=0.15, size=truth.directions.shape)
        dirs = normalize(truth.directions + noise * has_fiber[..., None])
        out.append(
            FiberField(
                f=truth.f.copy(),
                directions=dirs * has_fiber[..., None],
                mask=truth.mask.copy(),
            )
        )
    return out


def run(fields, engine, n_workers=1, **kw):
    """One tracking run under a fresh registry -> (result, manifest)."""
    cfg = ProbtrackConfig(
        criteria=TerminationCriteria(max_steps=64, min_dot=0.8, step_length=0.2),
        engine=engine,
        n_workers=n_workers,
        **kw,
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        result = probabilistic_streamlining(fields, config=cfg)
    return result, build_manifest(registry, meta={})


def assert_identical(a, b, *, counters=True):
    """Functional outputs and (optionally) deterministic counters match."""
    ra, ma = a
    rb, mb = b
    assert np.array_equal(ra.run.lengths, rb.run.lengths)
    assert np.array_equal(ra.run.reasons, rb.run.reasons)
    assert np.array_equal(ra.run.ends, rb.run.ends)
    diff = ra.connectivity.probability() != rb.connectivity.probability()
    assert diff.nnz == 0
    if counters:
        da = deterministic_sections(ma)
        db = deterministic_sections(mb)
        # The fused engine's one *new* deterministic counter counts the
        # samples it fused; everything shared must match exactly.
        for d in (da, db):
            d["counters"].pop("tracking.fused_samples", None)
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


@pytest.mark.parametrize(
    "order,bidirectional",
    [
        ("natural", False),
        ("sorted", False),
        ("natural", True),
        ("sorted", True),
    ],
)
def test_fused_matches_per_sample_for_any_worker_count(
    fields, order, bidirectional
):
    ref = run(fields, "per-sample", 1, order=order, bidirectional=bidirectional)
    for n_workers in (1, 2, 4):
        fused = run(
            fields, "fused", n_workers, order=order, bidirectional=bidirectional
        )
        assert_identical(ref, fused)


@pytest.mark.parametrize(
    "interpolation", ["trilinear", "nearest", "trilinear-reference"]
)
def test_fused_parity_across_interpolation_modes(fields, interpolation):
    ref = run(fields, "per-sample", 1, interpolation=interpolation)
    for n_workers in (1, 2):
        fused = run(fields, "fused", n_workers, interpolation=interpolation)
        assert_identical(ref, fused)


@pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
def test_compact_threshold_never_changes_results(fields, threshold):
    """Adaptive in-segment compaction is pure scheduling: every
    threshold reproduces the per-sample engine bit for bit, and the
    adaptive relaunch count stays out of the deterministic section."""
    ref = run(fields, "per-sample", 1)
    fused = run(fields, "fused", 1, compact_threshold=threshold)
    assert_identical(ref, fused)
    det = deterministic_sections(fused[1])
    assert "tracking.compactions_adaptive" not in det["counters"]


def test_array_api_backend_is_bitwise_identical(fields):
    for engine in ("per-sample", "fused"):
        ref = run(fields, engine, 1, array_backend="numpy")
        alt = run(fields, engine, 1, array_backend="array-api")
        assert_identical(ref, alt)


def test_fused_counts_its_samples(fields):
    _, manifest = run(fields, "fused", 1)
    assert manifest["counters"]["tracking.fused_samples"] == N_SAMPLES
    _, manifest = run(fields, "fused", 1, bidirectional=True)
    # Bidirectional doubles threads, not samples.
    assert manifest["counters"]["tracking.fused_samples"] == N_SAMPLES
    _, manifest = run(fields, "per-sample", 1)
    assert "tracking.fused_samples" not in manifest["counters"]


def test_fused_deterministic_sections_worker_invariant(fields):
    """The fused engine keeps the telemetry worker-invariance contract
    on its own: sharding fuses different sample subsets, yet the
    deterministic section stays bit-identical."""
    base = None
    for n_workers in (1, 2, 4):
        _, manifest = run(fields, "fused", n_workers)
        det = json.dumps(deterministic_sections(manifest), sort_keys=True)
        if base is None:
            base = det
        else:
            assert det == base, f"n_workers={n_workers} drifted"


def test_single_sample_fused_degrades_cleanly(fields):
    ref = run(fields[:1], "per-sample", 1)
    fused = run(fields[:1], "fused", 1)
    assert_identical(ref, fused)
