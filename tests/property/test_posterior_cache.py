"""The MCMC stage's likelihood cache against the full posterior evaluation.

:class:`~repro.models.posterior.LikelihoodCache` evaluates every
single-parameter MH proposal from cached per-compartment terms.  Its
contract is bit identity, not a tolerance:

* (a) for any state and any parameter index, the cached proposal
  log-posterior equals ``posterior(proposal)`` bit for bit, and a cache
  updated by an accept equals one rebuilt from the new state;
* (b) ``MCMCSampler.run`` equals a reference MH loop that evaluates the
  full posterior on every proposal;
* (c) the samples of one small fixed run hash to the digest of the
  sampler before the cache existed.

The deterministic ``mcmc.proposals`` / ``mcmc.accepts`` counters must
reconcile with the chains they count, for straight, checkpoint-resumed
and sharded runs.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import dataset1
from repro.io import GradientTable
from repro.mcmc import AdaptiveProposals, MCMCConfig, MCMCSampler
from repro.models import LogPosterior, MultiFiberModel
from repro.models.posterior import LikelihoodCache
from repro.models.priors import MultiFiberPriors
from repro.pipeline import BedpostConfig, bedpost
from repro.rng import seed_streams
from repro.telemetry import MetricsRegistry, use_registry
from repro.utils.geometry import fibonacci_sphere


def _gtab():
    bvals = np.concatenate([np.zeros(2), np.full(20, 1000.0), np.full(10, 2500.0)])
    bvecs = np.concatenate(
        [np.zeros((2, 3)), fibonacci_sphere(20), fibonacci_sphere(10)]
    )
    return GradientTable(bvals, bvecs)


GTAB = _gtab()


def _posterior(n_vox, n_fibers, noise_model, ard, seed, gtab=GTAB):
    rng = np.random.default_rng(seed)
    f = np.tile([0.45, 0.25, 0.1][:n_fibers], (n_vox, 1))
    mu = MultiFiberModel(n_fibers).predict(
        gtab,
        s0=np.full(n_vox, 100.0),
        d=np.full(n_vox, 1.2e-3),
        f=f,
        theta=np.tile([np.pi / 2, 0.9, 0.4][:n_fibers], (n_vox, 1)),
        phi=np.tile([0.0, 1.3, 2.2][:n_fibers], (n_vox, 1)),
    )
    data = np.abs(mu + rng.normal(scale=4.0, size=mu.shape))
    return LogPosterior(
        gtab, data, priors=MultiFiberPriors(ard=ard), n_fibers=n_fibers,
        noise_model=noise_model,
    )


def _veto(params, layout, row, kind):
    """Push one parameter group of ``row`` outside the prior's support."""
    if kind == "s0":
        params[row, layout.s0] = -5.0
    elif kind == "d":
        params[row, layout.d] = 0.5
    elif kind == "sigma":
        params[row, layout.sigma] = -1.0
    elif kind == "f":
        params[row, layout.f] = 0.8
    elif kind == "theta":
        params[row, layout.theta.start] = 0.0


VETO_KINDS = ("s0", "d", "sigma", "f", "theta")


def _cache_arrays(cache):
    arrays = {
        "ball": cache.ball, "dot2": cache.dot2, "sticks": cache.sticks,
        "mix": cache.mix, "signal": cache.signal, "prior": cache.prior,
    }
    for group, (veto, term) in cache.prior_terms.items():
        arrays[f"veto.{group}"] = veto
        if term is not None:
            arrays[f"term.{group}"] = term
    return arrays


# -- (a) every proposal, bit for bit -----------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n_fibers=st.sampled_from([1, 2, 3]),
    noise_model=st.sampled_from(["gaussian", "rician"]),
    ard=st.booleans(),
    n_vox=st.integers(1, 7),
    seed=st.integers(0, 2**16),
    vetoed=st.lists(st.sampled_from(VETO_KINDS), max_size=3),
    step_scale=st.sampled_from([1e-3, 0.1, 1.0, 30.0]),
)
def test_cached_proposal_equals_full_evaluation(
    n_fibers, noise_model, ard, n_vox, seed, vetoed, step_scale
):
    post = _posterior(n_vox, n_fibers, noise_model, ard, seed)
    layout = post.layout
    rng = np.random.default_rng(seed + 1)
    params = post.initial_params(jitter=0.2, seed=seed)
    # Rows whose current state the prior vetoes (-inf current posterior).
    for row, kind in enumerate(vetoed):
        _veto(params, layout, row % n_vox, kind)
    lp = post(params)
    cache = LikelihoodCache(post, params)
    np.testing.assert_array_equal(cache.prior, post.priors.log_prior(
        *(layout.unpack(params)[k] for k in ("s0", "d", "sigma", "f", "theta", "phi"))
    ))
    for _ in range(2):
        for index in range(layout.n_params):
            scale = np.abs(params[:, index]) * step_scale + 1e-3
            value = params[:, index] + rng.normal(size=n_vox) * scale
            proposal = params.copy()
            proposal[:, index] = value
            expect = post(proposal)
            got = cache.propose(params, index, value)
            np.testing.assert_array_equal(got, expect, err_msg=f"index {index}")
            # Adopt a random subset (vetoed proposals included, which the
            # sampler never accepts: the cache must still track them).
            accepted = rng.random(n_vox) < 0.6
            params[accepted, index] = value[accepted]
            lp[accepted] = got[accepted]
            cache.accept(accepted)
            rebuilt = LikelihoodCache(post, params)
            for name, arr in _cache_arrays(rebuilt).items():
                np.testing.assert_array_equal(
                    _cache_arrays(cache)[name], arr, err_msg=f"{name} after {index}"
                )
    np.testing.assert_array_equal(lp, post(params))


def test_update_kind_covers_the_layout():
    layout = _posterior(1, 2, "gaussian", False, 0).layout
    kinds = [layout.update_kind(i) for i in range(layout.n_params)]
    assert kinds == [
        ("s0", 0), ("d", 0), ("sigma", 0), ("f", 0), ("f", 1),
        ("theta", 0), ("theta", 1), ("phi", 0), ("phi", 1),
    ]


# -- (b) the sampler against a full-evaluation MH loop -----------------------


def reference_chain(post, cfg, initial):
    """The Fig 2 schedule with ``post(proposal)`` on every update."""
    params = np.array(initial, dtype=np.float64)
    n, n_par = params.shape
    lp = post(params)
    rng = seed_streams(n, seed=cfg.seed)
    props = AdaptiveProposals(AdaptiveProposals.default_initial_sigma(params))
    samples, history, accepts = [], [], 0
    for loop in range(1, cfg.n_loops + 1):
        for i in range(n_par):
            step = rng.normal() * props.sigma[:, i]
            u = rng.uniform()
            proposal = params.copy()
            proposal[:, i] += step
            prop_lp = post(proposal)
            with np.errstate(invalid="ignore"):
                ratio = prop_lp - lp
            ratio = np.where(np.isneginf(lp) & np.isfinite(prop_lp), np.inf, ratio)
            acc = np.log(np.maximum(u, 1e-300)) < ratio
            params[acc] = proposal[acc]
            lp[acc] = prop_lp[acc]
            props.record(i, acc)
            accepts += int(acc.sum())
        if loop % cfg.adapt_every == 0:
            history.append(float(props.adapt().mean()))
        since = loop - cfg.n_burnin
        if since > 0 and since % cfg.sample_interval == 0:
            samples.append(params.copy())
    return np.array(samples), history, accepts


#: The benchmark's sampling schedule, and a longer multi-sample one.
SCHEDULES = [
    MCMCConfig(n_burnin=20, n_samples=1, sample_interval=1, adapt_every=10, seed=7),
    MCMCConfig(n_burnin=60, n_samples=5, sample_interval=2, adapt_every=10, seed=3),
]


@pytest.mark.parametrize("cfg", SCHEDULES, ids=["bench", "60+5x2"])
@pytest.mark.parametrize(
    "n_fibers,noise_model,ard",
    [(2, "gaussian", False), (2, "rician", True), (1, "gaussian", False),
     (3, "gaussian", True)],
)
def test_sampler_matches_reference_loop(cfg, n_fibers, noise_model, ard):
    post = _posterior(5, n_fibers, noise_model, ard, seed=11)
    initial = post.initial_params()
    initial[0, post.layout.sigma] = -1.0  # a vetoed start must escape
    samples, history, accepts = reference_chain(post, cfg, initial)
    registry = MetricsRegistry()
    with use_registry(registry):
        res = MCMCSampler(cfg).run(post, initial=initial)
    np.testing.assert_array_equal(res.samples, samples)
    assert res.acceptance_history == history
    assert registry.counters["mcmc.accepts"].value == accepts
    assert registry.counters["mcmc.proposals"].value == (
        cfg.n_loops * 5 * post.layout.n_params
    )


# -- (c) pinned output of the sampler before the cache -----------------------


#: sha256 of ``samples.tobytes()`` of the run below, computed with the
#: sampler that evaluated the full posterior on every update.
PINNED = {
    ("gaussian", False): "221d2b96b4b0350a0d71703e9e18029ea4f665733f978459bb176ae7cbe08989",
    ("rician", True): "5867a9371eb104536f98ae410a457cab2c5ec7b10db8642ce79362f9bbd4848b",
}


@pytest.mark.parametrize("noise_model,ard", sorted(PINNED))
def test_pinned_sample_digest(noise_model, ard):
    n = 6
    rng = np.random.default_rng(20121)
    mu = MultiFiberModel(2).predict(
        GTAB, s0=np.full(n, 100.0), d=np.full(n, 1.2e-3),
        f=np.tile([0.45, 0.25], (n, 1)),
        theta=np.tile([np.pi / 2, 0.9], (n, 1)), phi=np.tile([0.0, 1.3], (n, 1)),
    )
    data = np.abs(mu + rng.normal(scale=4.0, size=mu.shape))
    post = LogPosterior(
        GTAB, data, priors=MultiFiberPriors(ard=ard), noise_model=noise_model
    )
    cfg = MCMCConfig(n_burnin=24, n_samples=3, sample_interval=2, adapt_every=6, seed=9)
    res = MCMCSampler(cfg).run(post)
    digest = hashlib.sha256(res.samples.tobytes()).hexdigest()
    assert digest == PINNED[noise_model, ard]


# -- counters reconcile with the chains --------------------------------------


def _mcmc_counters(registry):
    return {k: c.value for k, c in registry.counters.items() if k.startswith("mcmc.")}


def test_counters_reconcile_across_checkpoint_resume():
    cfg = SCHEDULES[1]
    post = _posterior(4, 2, "gaussian", False, seed=5)
    _, _, accepts = reference_chain(post, cfg, post.initial_params())

    straight = MetricsRegistry()
    with use_registry(straight):
        MCMCSampler(cfg).run(post)
    counts = _mcmc_counters(straight)
    assert counts["mcmc.proposals"] == cfg.n_loops * 4 * 9
    assert counts["mcmc.accepts"] == accepts

    # Paused and resumed in one registry: each loop range counts once.
    chunked = MetricsRegistry()
    with use_registry(chunked):
        part = MCMCSampler(cfg).run(post, stop_after_loop=37)
        MCMCSampler(cfg).run(post, checkpoint=part.checkpoint)
    assert _mcmc_counters(chunked) == counts

    # Resumed in a fresh process: the completed loops are replayed.
    fresh = MetricsRegistry()
    with use_registry(fresh):
        MCMCSampler(cfg).run(
            post, checkpoint=part.checkpoint, replay_counters=True
        )
    assert _mcmc_counters(fresh) == counts


def test_counters_reconcile_for_sharded_bedpost():
    phantom = dataset1(scale=0.08, snr=40.0)
    cfg = MCMCConfig(n_burnin=6, n_samples=2, sample_interval=1, adapt_every=3)
    data = phantom.dwi.data[phantom.mask]
    post = LogPosterior(phantom.gtab, data)
    _, _, accepts = reference_chain(post, cfg, post.initial_params())

    registry = MetricsRegistry()
    with use_registry(registry):
        bedpost(
            phantom.dwi, phantom.gtab, phantom.mask,
            BedpostConfig(mcmc=cfg, block_voxels=50, n_workers=2),
        )
    counts = _mcmc_counters(registry)
    assert counts["mcmc.proposals"] == cfg.n_loops * data.shape[0] * 9
    assert counts["mcmc.accepts"] == accepts
    timers = {k for k in registry.timers if k.startswith("mcmc.update.")}
    assert timers == {f"mcmc.update.{k}" for k in ("s0", "d", "sigma", "f", "angle")}
