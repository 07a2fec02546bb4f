"""The per-voxel log-posterior the MCMC stage samples (paper Eq. 2).

:class:`ParameterLayout` fixes the flat ordering of the 9 parameters
(``N = 2``) inside the per-voxel state vector, and :class:`LogPosterior`
evaluates ``log P(omega | Y, M) = log P(Y | omega, M) + log P(omega | M)``
for *all voxels at once* — the lockstep structure the GPU kernel runs with
one thread per voxel.

An MH update changes one parameter per voxel, so the sampler does not
call the full evaluation per update: :class:`LikelihoodCache` keeps each
voxel's per-compartment forward-model terms and recomputes only those the
changed parameter enters.  Each term is computed by the same function as
in the full evaluation and re-summed in the same order
(:func:`~repro.models.multi_fiber.mix_signal`), so its log-posterior is
bit-identical to :meth:`LogPosterior.__call__` on the proposal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataError, ModelError
from repro.io.gradients import GradientTable
from repro.models.likelihood import (
    gaussian_loglike,
    gaussian_loglike_sse,
    rician_loglike,
)
from repro.models.multi_fiber import MultiFiberModel, mix_signal, neg_bd, stick_dot2
from repro.models.priors import MultiFiberPriors
from repro.models.tensor import TensorModel
from repro.utils.geometry import cartesian_to_spherical, spherical_to_cartesian

__all__ = ["ParameterLayout", "LogPosterior", "LikelihoodCache"]


@dataclass(frozen=True)
class ParameterLayout:
    """Flat ordering of the multi-fiber state vector.

    For ``n_fibers = N`` the layout is::

        [ s0, d, sigma, f_1..f_N, theta_1..theta_N, phi_1..phi_N ]

    giving ``3 + 3N`` parameters — 9 for the paper's ``N = 2``.
    """

    n_fibers: int = 2

    def __post_init__(self) -> None:
        if self.n_fibers < 1:
            raise ModelError(f"n_fibers must be >= 1, got {self.n_fibers}")

    @property
    def n_params(self) -> int:
        """Total scalar parameters per voxel."""
        return 3 + 3 * self.n_fibers

    @property
    def names(self) -> tuple[str, ...]:
        """Parameter names in flat order."""
        n = self.n_fibers
        return (
            ("s0", "d", "sigma")
            + tuple(f"f{j + 1}" for j in range(n))
            + tuple(f"theta{j + 1}" for j in range(n))
            + tuple(f"phi{j + 1}" for j in range(n))
        )

    # Slices into the flat axis.
    @property
    def s0(self) -> int:
        return 0

    @property
    def d(self) -> int:
        return 1

    @property
    def sigma(self) -> int:
        return 2

    @property
    def f(self) -> slice:
        return slice(3, 3 + self.n_fibers)

    @property
    def theta(self) -> slice:
        return slice(3 + self.n_fibers, 3 + 2 * self.n_fibers)

    @property
    def phi(self) -> slice:
        return slice(3 + 2 * self.n_fibers, 3 + 3 * self.n_fibers)

    def update_kind(self, index: int) -> tuple[str, int]:
        """What an update of flat parameter ``index`` changes.

        Returns ``(group, fiber)``: ``group`` is the parameter's
        :meth:`unpack` key (``"s0"``, ``"d"``, ``"sigma"``, ``"f"``,
        ``"theta"`` or ``"phi"``) and ``fiber`` its stick index (0 for
        the scalar groups).
        """
        n = self.n_fibers
        if not 0 <= index < self.n_params:
            raise ModelError(f"parameter index {index} outside [0, {self.n_params})")
        if index < 3:
            return ("s0", "d", "sigma")[index], 0
        return ("f", "theta", "phi")[(index - 3) // n], (index - 3) % n

    def is_angular(self, index: int) -> bool:
        """Is flat parameter ``index`` an angle (theta or phi)?"""
        return index >= 3 + self.n_fibers

    def unpack(self, params: np.ndarray) -> dict[str, np.ndarray]:
        """Split ``(n_vox, n_params)`` into named arrays (views)."""
        if params.ndim != 2 or params.shape[1] != self.n_params:
            raise DataError(
                f"params must be (n_vox, {self.n_params}), got {params.shape}"
            )
        return {
            "s0": params[:, self.s0],
            "d": params[:, self.d],
            "sigma": params[:, self.sigma],
            "f": params[:, self.f],
            "theta": params[:, self.theta],
            "phi": params[:, self.phi],
        }


class LogPosterior:
    """Vectorized log-posterior of the multi-fiber model over a voxel block.

    Parameters
    ----------
    gtab:
        Acquisition scheme.
    data:
        ``(n_voxels, n_meas)`` measured signal for the voxels being fit.
    priors:
        Prior configuration; defaults to :class:`MultiFiberPriors`.
    n_fibers:
        Number of stick compartments (paper: 2).
    noise_model:
        ``"gaussian"`` (the paper's approximation) or ``"rician"`` (the
        exact magnitude-image likelihood).
    """

    def __init__(
        self,
        gtab: GradientTable,
        data: np.ndarray,
        priors: MultiFiberPriors | None = None,
        n_fibers: int = 2,
        noise_model: str = "gaussian",
    ) -> None:
        if noise_model not in ("gaussian", "rician"):
            raise ModelError(f"unknown noise_model {noise_model!r}")
        self.noise_model = noise_model
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise DataError(f"data must be (n_voxels, n_meas), got {data.shape}")
        if data.shape[1] != len(gtab):
            raise DataError(
                f"data has {data.shape[1]} measurements, table has {len(gtab)}"
            )
        self.gtab = gtab
        self.data = data
        self.layout = ParameterLayout(n_fibers)
        self.model = MultiFiberModel(n_fibers)
        self.priors = priors if priors is not None else MultiFiberPriors()

    @property
    def n_voxels(self) -> int:
        """Number of voxels in the block."""
        return self.data.shape[0]

    def __call__(self, params: np.ndarray) -> np.ndarray:
        """``(n_vox,)`` log-posterior (up to a constant) at ``params``."""
        p = self.layout.unpack(np.asarray(params, dtype=np.float64))
        lp = self.priors.log_prior(
            p["s0"], p["d"], p["sigma"], p["f"], p["theta"], p["phi"]
        )
        finite = np.isfinite(lp)
        if not finite.any():
            return lp
        # Skip the likelihood where the prior already vetoed the state:
        # the GPU kernel evaluates lanes unconditionally, but -inf + x is
        # still -inf, so computing only the finite rows is an exact
        # host-side optimization.
        mu = self.model.predict(
            self.gtab,
            s0=p["s0"][finite],
            d=p["d"][finite],
            f=p["f"][finite],
            theta=p["theta"][finite],
            phi=p["phi"][finite],
        )
        loglike = gaussian_loglike if self.noise_model == "gaussian" else rician_loglike
        ll = loglike(self.data[finite], mu, p["sigma"][finite])
        out = lp
        out[finite] += ll
        return out

    # -- initialization -----------------------------------------------------

    def initial_params(self, jitter: float = 0.0, seed: int = 0) -> np.ndarray:
        """A data-informed starting state for the chain.

        ``S0`` comes from the mean b=0 signal, ``d`` from a mono-exponential
        fit of the spherical-mean signal, ``sigma`` from the residual scale,
        and the first fiber direction from a tensor fit's principal
        eigenvector (Behrens et al. seed their chain the same way).  A
        second fiber starts orthogonal to the first with a small fraction.
        With ``jitter > 0`` Gaussian perturbations of that relative scale
        are added (useful for multi-chain diagnostics).
        """
        gtab, data = self.gtab, self.data
        n = self.n_voxels
        b0 = gtab.b0_mask
        if b0.any():
            s0 = data[:, b0].mean(axis=1)
        else:
            s0 = data.max(axis=1)
        s0 = np.maximum(s0, 1e-3)

        dw = ~b0
        if dw.any():
            mean_dw = np.maximum(data[:, dw].mean(axis=1), 1e-6)
            b_mean = gtab.bvals[dw].mean()
            d = -np.log(np.minimum(mean_dw / s0, 0.999)) / b_mean
        else:
            d = np.full(n, 1e-3)
        d = np.clip(d, 1e-5, self.priors.d_max * 0.99)

        # Principal direction from a tensor fit (robust, cheap).
        try:
            tfit = TensorModel().fit(gtab, data)
            theta1, phi1 = cartesian_to_spherical(tfit.principal_direction)
        except Exception:
            theta1 = np.full(n, np.pi / 2)
            phi1 = np.zeros(n)

        sigma = np.maximum(0.05 * s0, 1e-3)

        layout = self.layout
        params = np.zeros((n, layout.n_params))
        params[:, layout.s0] = s0
        params[:, layout.d] = d
        params[:, layout.sigma] = sigma
        f = params[:, layout.f]
        theta = params[:, layout.theta]
        phi = params[:, layout.phi]
        f[:, 0] = 0.4
        theta[:, 0] = theta1
        phi[:, 0] = phi1
        for j in range(1, layout.n_fibers):
            f[:, j] = 0.1
            # Start subsequent fibers orthogonal-ish to the first.
            theta[:, j] = np.mod(theta1 + np.pi / 2, np.pi)
            theta[:, j] = np.clip(theta[:, j], 0.05, np.pi - 0.05)
            phi[:, j] = phi1 + np.pi / 2

        theta[:, 0] = np.clip(theta[:, 0], 0.05, np.pi - 0.05)
        if jitter > 0:
            rng = np.random.default_rng(seed)
            scale = np.abs(params) * jitter + 1e-12
            params = params + rng.normal(size=params.shape) * scale
            params[:, layout.s0] = np.abs(params[:, layout.s0])
            params[:, layout.d] = np.clip(
                np.abs(params[:, layout.d]), 1e-6, self.priors.d_max * 0.99
            )
            params[:, layout.sigma] = np.abs(params[:, layout.sigma]) + 1e-6
            params[:, layout.f] = np.clip(params[:, layout.f], 0.0, 0.45)
        return params


class LikelihoodCache:
    """Per-voxel compartment terms of one chain state, for MH updates.

    Holds, for every voxel of ``posterior``'s block, the ``(n, m)`` ball
    signal, each stick's ``(r . v_j)^2`` and signal, and the mixed
    bracket of Eq. 1, plus the likelihood's input: the residual sum of
    squares (gaussian) or the predicted signal (rician).  That is
    ``(2 + 2N) n m`` floats (``(3 + 2N) n m`` for rician) next to the
    ``(n, 3 + 3N)`` state, and the prior's per-group terms
    (:meth:`~repro.models.priors.MultiFiberPriors.group_term`).

    :meth:`propose` evaluates a proposal that changes one parameter and
    recomputes only the terms that parameter enters:

    * ``sigma``: no forward model, the likelihood from the cached input;
    * ``s0``: rescales the cached mix;
    * ``f_j``: re-mixes the cached ball and sticks;
    * ``theta_j`` / ``phi_j``: stick ``j``'s projection and signal;
    * ``d``: the ball and every stick from the cached projections.

    :meth:`accept` then writes the new terms back into the accepted rows.
    The cache is derived state: every term is a pure function of its own
    parameters, so a cache built from a state equals one updated into it,
    and checkpoints never store it.

    Terms are computed for every row, also where the prior vetoes the
    state (the full evaluation skips those rows; their log-posterior is
    ``-inf`` either way), so a row's terms always match its parameters.
    """

    #: The groups the prior factorizes over (``phi`` does not enter).
    PRIOR_GROUPS = ("s0", "d", "sigma", "f", "theta")

    def __init__(self, posterior: LogPosterior, params: np.ndarray) -> None:
        self.posterior = posterior
        self._gaussian = posterior.noise_model == "gaussian"
        p = posterior.layout.unpack(np.asarray(params, dtype=np.float64))
        priors, gtab = posterior.priors, posterior.gtab
        self.prior_terms = {g: priors.group_term(g, p[g]) for g in self.PRIOR_GROUPS}
        self.prior = priors.combine(self.prior_terms)
        with np.errstate(all="ignore"):
            exponent = neg_bd(gtab, p["d"])
            self.ball = np.exp(exponent)
            dirs = spherical_to_cartesian(p["theta"], p["phi"])
            self.dot2 = np.stack(
                [stick_dot2(gtab, dirs[:, j]) for j in range(dirs.shape[1])]
            )
            self.sticks = np.exp(exponent * self.dot2)
            self.mix = mix_signal(p["f"], self.ball, self.sticks)
            self.signal = self._likelihood_input(p["s0"][:, None] * self.mix)
        #: ``(cached array, new values)`` pairs of the last proposal.
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []

    def _likelihood_input(self, mu: np.ndarray) -> np.ndarray:
        """What the likelihood keeps of ``mu``: the gaussian's residual
        sum of squares, or ``mu`` itself for the rician."""
        if self._gaussian:
            return np.sum((self.posterior.data - mu) ** 2, axis=1)
        return mu

    def _loglike(self, signal: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        data = self.posterior.data
        if self._gaussian:
            return gaussian_loglike_sse(signal, sigma, data.shape[1])
        return rician_loglike(data, signal, sigma)

    def propose(
        self, params: np.ndarray, index: int, value: np.ndarray
    ) -> np.ndarray:
        """``(n,)`` log-posterior of ``params`` with column ``index`` set
        to ``value``, bit-identical to the full evaluation of that state.

        ``params`` must be the state the cache describes.  The new terms
        are held until :meth:`accept`.
        """
        post = self.posterior
        proposal = params.copy()
        proposal[:, index] = value
        p = post.layout.unpack(proposal)
        group, j = post.layout.update_kind(index)
        pending = []

        prior = self.prior
        if group != "phi":
            old = self.prior_terms[group]
            new = post.priors.group_term(group, p[group])
            prior = post.priors.combine({**self.prior_terms, group: new})
            pending += [(o, n) for o, n in zip(old, new) if o is not None]
            pending.append((self.prior, prior))

        with np.errstate(all="ignore"):
            if group == "sigma":
                signal = self.signal
            else:
                if group == "s0":
                    mix = self.mix
                else:
                    ball, sticks = self.ball, self.sticks
                    if group == "d":
                        exponent = neg_bd(post.gtab, p["d"])
                        ball = np.exp(exponent)
                        sticks = np.exp(exponent * self.dot2)
                        pending.append((self.ball, ball))
                        pending += zip(self.sticks, sticks)
                    elif group in ("theta", "phi"):
                        direction = spherical_to_cartesian(
                            p["theta"][:, j], p["phi"][:, j]
                        )
                        dot2 = stick_dot2(post.gtab, direction)
                        stick = np.exp(neg_bd(post.gtab, p["d"]) * dot2)
                        sticks = list(sticks)
                        sticks[j] = stick
                        pending += [(self.dot2[j], dot2), (self.sticks[j], stick)]
                    mix = mix_signal(p["f"], ball, sticks)
                    pending.append((self.mix, mix))
                signal = self._likelihood_input(p["s0"][:, None] * mix)
                pending.append((self.signal, signal))
            ll = self._loglike(signal, p["sigma"])
            out = np.where(np.isfinite(prior), prior + ll, prior)
        self._pending = pending
        return out

    def accept(self, accepted: np.ndarray) -> None:
        """Adopt the last proposal's terms in the ``accepted`` rows only."""
        if accepted.any():
            rows = accepted[:, None]
            for cached, new in self._pending:
                np.copyto(cached, new, where=rows if cached.ndim == 2 else accepted)
        self._pending = []
