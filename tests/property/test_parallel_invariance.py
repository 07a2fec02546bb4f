"""Worker-count invariance of the process execution backend.

The determinism contract of :mod:`repro.runtime`: for any ``n_workers``,
the merged output is bit-identical to the serial path — ``lengths``,
``reasons``, connectivity ``probability()``, and per-kind timeline
totals.  Exercised over the order/overlap/bidirectional option grid,
including the ``"sorted"`` policy whose permutation depends on the
globally-first sample (the case the two-phase shard scheme exists for).
"""

import numpy as np
import pytest

from repro.data import dataset1
from repro.models.fields import FiberField
from repro.tracking import (
    ProbtrackConfig,
    TerminationCriteria,
    probabilistic_streamlining,
)
from repro.utils.geometry import normalize

N_SAMPLES = 4


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


def run(fields, n_workers, order="natural", overlap=False, bidirectional=False):
    cfg = ProbtrackConfig(
        criteria=TerminationCriteria(max_steps=200, min_dot=0.8, step_length=0.2),
        order=order,
        overlap=overlap,
        bidirectional=bidirectional,
        n_workers=n_workers,
    )
    return probabilistic_streamlining(fields, config=cfg)


@pytest.mark.parametrize(
    "order,overlap,bidirectional",
    [
        ("natural", False, False),
        ("sorted", False, False),
        ("sorted", True, False),
        ("natural", False, True),
        ("sorted", False, True),
    ],
)
def test_worker_count_invariance(fields, order, overlap, bidirectional):
    serial = run(fields, 1, order, overlap, bidirectional)
    base_totals = serial.run.timeline.totals()
    for n_workers in (2, 4):
        parallel = run(fields, n_workers, order, overlap, bidirectional)
        assert np.array_equal(serial.run.lengths, parallel.run.lengths)
        assert np.array_equal(serial.run.reasons, parallel.run.reasons)
        assert np.array_equal(serial.run.ends, parallel.run.ends)
        diff = serial.connectivity.probability() != parallel.connectivity.probability()
        assert diff.nnz == 0
        totals = parallel.run.timeline.totals()
        for kind in ("kernel", "transfer", "reduction"):
            assert totals[kind] == base_totals[kind], kind
        # Same modeled work, merged bookkeeping intact.
        assert len(serial.run.launches) == len(parallel.run.launches)
        assert serial.run.cpu_seconds == parallel.run.cpu_seconds
        assert parallel.run.worker_walls, "process backend records shard walls"


def test_single_sample_degrades_to_serial(fields):
    serial = run(fields[:1], 1)
    parallel = run(fields[:1], 4)
    assert np.array_equal(serial.run.lengths, parallel.run.lengths)
    diff = serial.connectivity.probability() != parallel.connectivity.probability()
    assert diff.nnz == 0


def test_workers_exceeding_samples_clamped_and_logged(fields, caplog):
    """Regression: n_workers > n_samples must clamp, log once, and stay
    bit-identical — never spawn idle workers or fail."""
    import logging

    serial = run(fields[:3], 1)
    with caplog.at_level(logging.INFO, logger="repro.runtime.stage"):
        parallel = run(fields[:3], 8)
    clamp_logs = [m for m in caplog.messages if "clamping n_workers" in m]
    assert len(clamp_logs) == 1
    assert np.array_equal(serial.run.lengths, parallel.run.lengths)
    assert np.array_equal(serial.run.reasons, parallel.run.reasons)
    diff = serial.connectivity.probability() != parallel.connectivity.probability()
    assert diff.nnz == 0
