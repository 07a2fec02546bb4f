"""Connectome-stage parity: workers, cache, faults, and stage reuse.

The connectome is a fold over the tracking stage's recorded end voxels,
so its bit-identity contract rides on the tracking stage's:

* the endpoint matrix is identical for any tracking worker count;
* a warm store run serves the identical matrix;
* injected tracking-shard faults recover to the identical matrix;
* an atlas-only spec change reuses stages 1-2 (hits) and recomputes
  only the connectome (miss) — the sweep economics the stage hash
  exists to provide.
"""

import numpy as np
import pytest

from repro.config import RunSpec
from repro.models.fields import FiberField
from repro.pipeline.connectome import compute_connectome
from repro.runtime.faults import FaultPlan
from repro.tracking import ProbtrackConfig, probabilistic_streamlining
from repro.tracking.criteria import TerminationCriteria


def _bent_field(shape=(12, 8, 8)):
    """Two-population field with enough structure to cross ROIs."""
    f = np.zeros(shape + (2,))
    f[..., 0] = 0.55
    f[..., 1] = 0.25
    d = np.zeros(shape + (2, 3))
    d[..., 0, 0] = 1.0  # along x
    d[..., 1, 1] = 1.0  # along y
    return FiberField(f=f, directions=d, mask=np.ones(shape, bool))


@pytest.fixture(scope="module")
def tracked_inputs():
    # Three samples, so sample-targeted fault specs like "corrupt:s2"
    # (third global sample) have a target.
    fields = [_bent_field(), _bent_field(), _bent_field()]
    xs, ys, zs = np.meshgrid(
        np.arange(1.0, 11.0, 1.0),
        np.arange(1.0, 7.0, 1.5),
        np.arange(1.0, 7.0, 1.5),
        indexing="ij",
    )
    seeds = np.stack([xs, ys, zs], axis=-1).reshape(-1, 3)
    criteria = TerminationCriteria(max_steps=40, step_length=0.5)
    return fields, seeds, criteria


def _connectome(tracked_inputs, atlas, **cfg_kw):
    fields, seeds, criteria = tracked_inputs
    pt = probabilistic_streamlining(
        fields, ProbtrackConfig(criteria=criteria, **cfg_kw), seeds=seeds
    )
    return pt, compute_connectome(pt, fields[0].shape3, atlas)


class TestWorkerParity:
    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_matrix_bit_identical_across_worker_counts(
        self, tracked_inputs, n_workers
    ):
        pt1, serial = _connectome(tracked_inputs, "octant", n_workers=1)
        ptn, sharded = _connectome(tracked_inputs, "octant", n_workers=n_workers)
        np.testing.assert_array_equal(pt1.run.ends, ptn.run.ends)
        np.testing.assert_array_equal(serial.counts, sharded.counts)
        assert serial.n_streamlines == sharded.n_streamlines
        assert serial.graph == sharded.graph

    def test_matrix_symmetric_and_consistent(self, tracked_inputs):
        fields, seeds, _ = tracked_inputs
        _, res = _connectome(tracked_inputs, "grid2", n_workers=2)
        np.testing.assert_array_equal(res.counts, res.counts.T)
        assert int(np.triu(res.counts).sum()) == res.n_streamlines
        # Every (sample, seed) streamline passes the default filter.
        assert res.n_streamlines == len(fields) * seeds.shape[0]


class TestFaultRecoveryParity:
    @pytest.mark.parametrize(
        "plan_text", ["crash:0", "crash:0,corrupt:1", "corrupt:s2"]
    )
    def test_injected_faults_recover_bit_identically(
        self, tracked_inputs, plan_text
    ):
        clean_pt, clean = _connectome(tracked_inputs, "octant", n_workers=2)
        faulty_pt, faulty = _connectome(
            tracked_inputs,
            "octant",
            n_workers=2,
            fault_plan=FaultPlan.parse(plan_text),
        )
        np.testing.assert_array_equal(clean_pt.run.ends, faulty_pt.run.ends)
        np.testing.assert_array_equal(clean.counts, faulty.counts)
        assert faulty_pt.run.supervision is not None
        assert faulty_pt.run.supervision.n_failures >= 1


class TestStoreParity:
    @pytest.fixture(scope="class")
    def phantom(self):
        from repro.data import (
            make_gradient_table,
            rasterize_bundles,
            straight_bundle,
            synthesize_dwi,
        )
        from repro.data.phantoms import Phantom

        shape = (8, 5, 5)
        b = straight_bundle([1, 2, 2], [6, 2, 2], radius=1.2, weight=0.6)
        field = rasterize_bundles(shape, [b], mask=np.ones(shape, bool))
        gtab = make_gradient_table(n_directions=12, n_b0=1)
        dwi = synthesize_dwi(field, gtab, s0=1000.0, snr=50.0, seed=0)
        ph = Phantom(dwi=dwi, gtab=gtab, truth=field, name="tiny")
        return ph, field.f[..., 0] > 0

    def _spec(self, store, atlas, workers=1):
        return RunSpec.from_dict(
            {
                "sampling": {
                    "n_burnin": 20,
                    "n_samples": 2,
                    "sample_interval": 1,
                },
                "tracking": {"max_steps": 10},
                "connectome": {"atlas": atlas},
                "runtime": {"n_workers": workers},
                "telemetry": {"store": str(store)},
            }
        )

    def test_cold_warm_and_atlas_sweep(self, phantom, tmp_path_factory):
        from repro.pipeline import run_workflow

        ph, mask = phantom
        store = tmp_path_factory.mktemp("store")

        cold = run_workflow(ph, spec=self._spec(store, "octant"), fit_mask=mask)
        assert cold.cache["connectome_hit"] is False
        conn = cold.connectome
        assert conn is not None

        # Warm: every stage served, matrix bit-identical.
        warm = run_workflow(ph, spec=self._spec(store, "octant"), fit_mask=mask)
        assert warm.cache["sampling_hit"] is True
        assert warm.cache["tracking_hit"] is True
        assert warm.cache["connectome_hit"] is True
        np.testing.assert_array_equal(warm.connectome.counts, conn.counts)
        assert warm.connectome.graph == conn.graph

        # Worker count is execution policy: still a full hit.
        rewarmed = run_workflow(
            ph, spec=self._spec(store, "octant", workers=4), fit_mask=mask
        )
        assert rewarmed.cache["connectome_hit"] is True
        np.testing.assert_array_equal(rewarmed.connectome.counts, conn.counts)

        # Atlas-only change: stages 1-2 hit, connectome recomputes.
        sweep = run_workflow(
            ph, spec=self._spec(store, "slabs2"), fit_mask=mask
        )
        assert sweep.cache["sampling_hit"] is True
        assert sweep.cache["tracking_hit"] is True
        assert sweep.cache["connectome_hit"] is False
        assert sweep.connectome.atlas.name == "slabs2"

        # The store now holds one sampling, one tracking, and two
        # connectome entries — the sweep reused everything upstream.
        from repro.store import ArtifactStore

        by_stage = {}
        for e in ArtifactStore(store).ls():
            by_stage.setdefault(e["stage"], []).append(e)
        assert len(by_stage["sampling"]) == 1
        assert len(by_stage["tracking"]) == 1
        assert len(by_stage["connectome"]) == 2

    def test_stale_tracking_entry_is_refused(self, phantom, tmp_path_factory):
        """A tracking entry published before end voxels were recorded
        must fail loudly, naming itself, and never yield a matrix;
        ``telemetry.cache = false`` replaces it with a current one."""
        import shutil

        from repro.errors import IOFormatError
        from repro.pipeline import run_workflow
        from repro.store import ArtifactStore

        ph, mask = phantom
        root = tmp_path_factory.mktemp("stale")
        cold = run_workflow(ph, spec=self._spec(root, "octant"), fit_mask=mask)
        store = ArtifactStore(root)
        (row,) = [e for e in store.ls() if e["stage"] == "tracking"]
        old = store.lookup("tracking", row["key"])
        payload = {name: old.file(name).read_bytes() for name in old.files}
        blob = np.load(old.file("arrays.npz"))
        arrays = {k: blob[k] for k in blob.files if k != "ends"}
        shutil.rmtree(old.path)

        def _write_old_format(tmp_dir):
            for name, data in payload.items():
                (tmp_dir / name).write_bytes(data)
            np.savez_compressed(tmp_dir / "arrays.npz", **arrays)

        stale = store.publish("tracking", row["key"], _write_old_format)
        with pytest.raises(IOFormatError, match="no-cache") as err:
            run_workflow(ph, spec=self._spec(root, "grid2"), fit_mask=mask)
        assert str(stale.path) in str(err.value)
        assert not any(e["stage"] == "connectome" and e["meta"]["atlas"] == "grid2"
                       for e in store.ls())

        # --no-cache recomputes and supersedes the stale entry...
        spec = self._spec(root, "octant").with_overrides({"telemetry.cache": False})
        fresh = run_workflow(ph, spec=spec, fit_mask=mask)
        np.testing.assert_array_equal(fresh.connectome.counts, cold.connectome.counts)
        # ...so cached runs are served again.
        warm = run_workflow(ph, spec=self._spec(root, "octant"), fit_mask=mask)
        assert warm.cache["tracking_hit"] is True
        np.testing.assert_array_equal(
            warm.probtrack.run.ends, cold.probtrack.run.ends
        )

    def test_atlas_none_skips_stage(self, phantom):
        from repro.pipeline import run_workflow

        ph, mask = phantom
        spec = RunSpec.from_dict(
            {
                "sampling": {
                    "n_burnin": 20,
                    "n_samples": 2,
                    "sample_interval": 1,
                },
                "tracking": {"max_steps": 10},
            }
        )
        res = run_workflow(ph, spec=spec, fit_mask=mask)
        assert res.connectome is None
        assert "connectome" not in res.outcomes
