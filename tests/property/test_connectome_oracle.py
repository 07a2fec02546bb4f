"""The connectome fold against the scalar reference tracker.

The connectome stage folds the end voxels the batch engines record.  The
executable spec it must reproduce is the path it replaced: re-track
every (sample, seed) with the scalar tracker
(:func:`~repro.baselines.cpu_probabilistic_tracking`) and count the
streamlines' endpoint pairs with
:func:`~repro.connectome.endpoint_connectome`.  For unidirectional runs
the matrices must agree bit for bit across phantoms, interpolation
modes, engines, worker counts and length filters; a mismatch is a
tracker bug, never a tolerance.  Bidirectional runs count each seed once
as (forward end, backward end), checked against two scalar passes.
"""

import numpy as np
import pytest

from repro.baselines import cpu_probabilistic_tracking
from repro.connectome import build_atlas, endpoint_connectome
from repro.data import (
    arc_bundle,
    crossing_pair,
    fanning_bundle,
    rasterize_bundles,
)
from repro.models.fields import FiberField
from repro.pipeline.connectome import compute_connectome
from repro.tracking import (
    ProbtrackConfig,
    TerminationCriteria,
    initial_directions,
    nearest_lookup,
    probabilistic_streamlining,
    seeds_from_mask,
    track_streamline,
)
from repro.utils.geometry import normalize
from repro.utils.voxels import endpoint_voxel_index

SHAPE = (14, 14, 10)
N_SAMPLES = 3
ATLAS = "grid3"
CRITERIA = TerminationCriteria(max_steps=40, min_dot=0.8, step_length=0.3)


def _bundles(name):
    c = np.array([6.5, 6.5, 4.5])
    if name == "arc":
        return [arc_bundle(c, 4.5, tube_radius=1.6, plane="xy")]
    if name == "crossing":
        return list(crossing_pair(c, 6.0, radius=1.6))
    return fanning_bundle([1.5, 6.5, 4.5], [1.0, 0.0, 0.0], 11.0, spread=0.5)


def _samples(name):
    """Pseudo-posterior samples: the phantom's truth with jittered axes."""
    truth = rasterize_bundles(SHAPE, _bundles(name), mask=np.ones(SHAPE, bool))
    rng = np.random.default_rng(11)
    has_fiber = truth.f > 0
    out = []
    for _ in range(N_SAMPLES):
        noise = rng.normal(scale=0.2, size=truth.directions.shape)
        dirs = normalize(truth.directions + noise * has_fiber[..., None])
        out.append(
            FiberField(
                f=truth.f.copy(),
                directions=dirs * has_fiber[..., None],
                mask=truth.mask.copy(),
            )
        )
    return out


_CACHE: dict = {}


def _cached(key, build):
    if key not in _CACHE:
        _CACHE[key] = build()
    return _CACHE[key]


def _inputs(name):
    def build():
        fields = _samples(name)
        seeds = seeds_from_mask(fields[0].f[..., 0] > 0)
        return fields, seeds

    return _cached(("inputs", name), build)


def _tracked(name, interpolation, engine, n_workers, bidirectional=False):
    fields, seeds = _inputs(name)
    cfg = ProbtrackConfig(
        criteria=CRITERIA,
        interpolation=interpolation,
        engine=engine,
        n_workers=n_workers,
        bidirectional=bidirectional,
        accumulate_connectivity=False,
    )
    return _cached(
        ("tracked", name, interpolation, engine, n_workers, bidirectional),
        lambda: probabilistic_streamlining(fields, cfg, seeds=seeds),
    )


def _scalar_lines(name, interpolation):
    """The replaced path's geometry: every (sample, seed) re-tracked."""
    fields, seeds = _inputs(name)
    scalar = interpolation.removesuffix("-reference")
    return _cached(
        ("scalar", name, scalar),
        lambda: cpu_probabilistic_tracking(
            fields, seeds, CRITERIA, interpolation=scalar, keep_streamlines=True
        ).streamlines,
    )


@pytest.mark.parametrize("min_steps", [0, 5])
@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("engine", ["per-sample", "fused"])
@pytest.mark.parametrize(
    "interpolation", ["trilinear", "trilinear-reference", "nearest"]
)
@pytest.mark.parametrize("phantom", ["arc", "crossing", "fanning"])
def test_fold_equals_scalar_endpoint_connectome(
    phantom, interpolation, engine, n_workers, min_steps
):
    fields, _ = _inputs(phantom)
    pt = _tracked(phantom, interpolation, engine, n_workers)
    lines = _scalar_lines(phantom, interpolation)

    # The recorded end voxels are the scalar paths' last points, binned.
    scalar_ends = np.array(
        [endpoint_voxel_index(np.array([ln.end for ln in row]), SHAPE) for row in lines]
    )
    np.testing.assert_array_equal(pt.run.ends, scalar_ends)

    atlas = build_atlas(ATLAS, SHAPE)
    expected = np.zeros((atlas.n_rois, atlas.n_rois), dtype=np.int64)
    n_expected = 0
    for row in lines:
        counts, n = endpoint_connectome(row, atlas, min_steps=min_steps)
        expected += counts
        n_expected += n
    assert n_expected > 0

    res = compute_connectome(pt, fields[0].shape3, ATLAS, min_steps=min_steps)
    assert res.counts.dtype == np.int64
    np.testing.assert_array_equal(res.counts, expected)
    assert res.n_streamlines == n_expected


@pytest.mark.parametrize("engine", ["per-sample", "fused"])
@pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
@pytest.mark.parametrize("phantom", ["arc", "crossing", "fanning"])
def test_bidirectional_pairs_both_passes(phantom, interpolation, engine):
    fields, seeds = _inputs(phantom)
    pt = _tracked(phantom, interpolation, engine, 1, bidirectional=True)
    atlas = build_atlas(ATLAS, SHAPE)
    for min_steps in (0, 5):
        expected = np.zeros((atlas.n_rois, atlas.n_rois), dtype=np.int64)
        n_expected = 0
        for field in fields:
            f, d = nearest_lookup(field, seeds)
            fwd_h = initial_directions(f, d, sign=+1)
            bwd_h = initial_directions(f, d, sign=-1)
            for i, seed in enumerate(seeds):
                fwd = track_streamline(field, seed, fwd_h[i], CRITERIA, interpolation)
                bwd = track_streamline(field, seed, bwd_h[i], CRITERIA, interpolation)
                if fwd.n_steps + bwd.n_steps < min_steps:
                    continue
                a, b = atlas.label_at(np.array([fwd.end, bwd.end]))
                expected[a, b] += 1
                if a != b:
                    expected[b, a] += 1
                n_expected += 1
        res = compute_connectome(pt, SHAPE, ATLAS, min_steps=min_steps)
        np.testing.assert_array_equal(res.counts, expected)
        assert res.n_streamlines == n_expected
