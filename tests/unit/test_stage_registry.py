"""The stage registry: mechanics, and the add-a-stage acceptance proof.

The tentpole claim is that the pipeline's shape is data: registering a
new ``StageDef`` must flow through stage hashing, store validation,
the workflow walk, the cache section, and the report with *zero edits*
to those layers.  ``TestToyStageEndToEnd`` proves it with a throwaway
stage registered at test time.
"""

import json

import numpy as np
import pytest

from repro.config import RunSpec, stage_hash
from repro.config.stages import (
    StageDef,
    get_stage,
    register_stage,
    resolve_stage_ref,
    stage_defs,
    stage_names,
    unregister_stage,
)
from repro.errors import ConfigurationError


class TestRegistryMechanics:
    def test_builtin_stages_in_topo_order(self):
        assert stage_names() == ("sampling", "tracking", "connectome")
        for sdef in stage_defs():
            for up in sdef.upstream:
                assert stage_names().index(up) < stage_names().index(sdef.name)

    def test_stages_attribute_is_live(self):
        from repro.config import STAGES
        from repro.config import stages as stages_mod

        assert tuple(STAGES) == stage_names()
        assert tuple(stages_mod.STAGES) == stage_names()

    def test_get_stage_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="unknown stage"):
            get_stage("nope")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_stage(StageDef(name="sampling"))

    def test_unknown_upstream_raises(self):
        with pytest.raises(ConfigurationError, match="upstream"):
            register_stage(StageDef(name="x", upstream=("nope",)))

    def test_unregister_refuses_while_depended_on(self):
        register_stage(StageDef(name="tmp_a"))
        try:
            register_stage(StageDef(name="tmp_b", upstream=("tmp_a",)))
            try:
                with pytest.raises(ConfigurationError, match="upstream"):
                    unregister_stage("tmp_a")
            finally:
                unregister_stage("tmp_b")
        finally:
            unregister_stage("tmp_a")
        assert "tmp_a" not in stage_names()

    def test_resolve_stage_ref(self):
        fn = resolve_stage_ref("repro.pipeline.runners:run_sampling_stage")
        from repro.pipeline.runners import run_sampling_stage

        assert fn is run_sampling_stage
        sentinel = object()
        assert resolve_stage_ref(sentinel) is sentinel
        with pytest.raises(ConfigurationError):
            resolve_stage_ref("repro.no_such_module:thing")
        with pytest.raises(ConfigurationError):
            resolve_stage_ref("repro.config.stages:no_such_attr")

    def test_builtin_runners_and_shards_resolve(self):
        for sdef in stage_defs():
            assert callable(sdef.resolve_runner())


def _toy_runner(ctx):
    """A registry-registered stage: count stage-2 seeds, memoized."""
    from repro.pipeline import StageOutcome, run_memoized

    pt = ctx.outcomes["tracking"].result

    def compute():
        return {"n_seeds": int(pt.seeds.shape[0])}

    if ctx.store is None:
        return StageOutcome(stage="toy", result=compute())
    key = stage_hash(
        ctx.doc, "toy", inputs={"n_seeds": int(pt.seeds.shape[0])}
    )
    result, hit, _entry = run_memoized(
        ctx.store,
        "toy",
        key,
        compute=compute,
        serialize=lambda d, r: (d / "toy.json").write_text(json.dumps(r)),
        rehydrate=lambda e: json.loads(e.file("toy.json").read_text()),
        meta={"kind": "toy"},
        use_cache=ctx.use_cache,
    )
    return StageOutcome(stage="toy", result=result, key=key, hit=hit)


@pytest.fixture
def toy_stage():
    sdef = register_stage(
        StageDef(
            name="toy",
            upstream=("tracking",),
            spec_sections=("sampling", "tracking"),
            runner=_toy_runner,
            artifact_files=("toy.json", "telemetry.json"),
        )
    )
    try:
        yield sdef
    finally:
        unregister_stage("toy")


@pytest.fixture(scope="module")
def tiny_phantom():
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


TOY_SPEC = {
    "sampling": {"n_burnin": 20, "n_samples": 2, "sample_interval": 1},
    "tracking": {"max_steps": 10},
}


class TestToyStageEndToEnd:
    """A registered stage flows through every layer with zero edits."""

    def test_hash_store_workflow_report(self, toy_stage, tiny_phantom, tmp_path):
        from repro.pipeline import run_workflow
        from repro.store import ArtifactStore

        ph, mask = tiny_phantom
        store = ArtifactStore(tmp_path / "store")
        doc = dict(TOY_SPEC)
        spec = RunSpec.from_dict(doc)

        # The hash layer serves the unmodified stage_hash for the toy
        # stage's declared subtree.
        key = stage_hash(doc, "toy")
        assert key.startswith("sha256:")
        assert stage_hash(doc, "toy") == key
        assert stage_hash(
            {**doc, "runtime": {"n_workers": 4}}, "toy"
        ) == key  # execution policy stays excluded

        # The workflow walk runs it, the store accepts its entries, and
        # the cache section carries its flag — all registry-driven.
        res = run_workflow(ph, spec=spec, store=store, fit_mask=mask)
        assert "toy" in res.outcomes
        assert res.outcomes["toy"].result == {
            "n_seeds": res.probtrack.seeds.shape[0]
        }
        assert res.cache["toy_hit"] is False
        assert "toy" in res.cache["stage_keys"]

        # ls()/verify() walk the registry too.
        entries = [e for e in store.ls() if e["stage"] == "toy"]
        assert len(entries) == 1
        assert entries[0]["meta"] == {"kind": "toy"}
        assert "toy.json" in entries[0]["files"]
        report = store.verify()
        assert report["corrupt"] == []
        assert report["checked"] == 3  # sampling + tracking + toy

        # report() derives its artifact-store block from the registry.
        assert any(
            line.strip().startswith("toy") and line.strip().endswith("miss")
            for line in res.report().splitlines()
        )

        # Warm run: served from the store.
        res2 = run_workflow(ph, spec=spec, store=store, fit_mask=mask)
        assert res2.cache["toy_hit"] is True
        assert res2.outcomes["toy"].result == res.outcomes["toy"].result
        assert any(
            line.strip().startswith("toy") and line.strip().endswith("hit")
            for line in res2.report().splitlines()
        )

    def test_storeless_walk_includes_toy(self, toy_stage, tiny_phantom):
        from repro.pipeline import run_workflow

        ph, mask = tiny_phantom
        res = run_workflow(
            ph, spec=RunSpec.from_dict(dict(TOY_SPEC)), fit_mask=mask
        )
        assert res.cache is None
        assert res.outcomes["toy"].result == {
            "n_seeds": res.probtrack.seeds.shape[0]
        }

    def test_unregistered_stage_entries_are_rejected(self, tiny_phantom):
        # Without the registration, the store refuses the stage name:
        # the registry is the single source of truth.
        from repro.errors import IOFormatError
        from repro.store import ArtifactStore
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            store = ArtifactStore(d)
            with pytest.raises(IOFormatError, match="unknown store stage"):
                store.lookup("toy", "sha256:" + "0" * 64)
