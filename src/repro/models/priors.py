"""Prior densities for the multi-fiber model parameters.

Following Behrens et al. (2003): non-informative uniform priors on ``S0``
and ``d`` (bounded to keep the chain proper), a Jeffreys prior on the noise
standard deviation, a uniform-on-the-sphere prior on each fiber direction
(density proportional to ``|sin theta|`` in spherical coordinates), and a
uniform prior on the volume-fraction simplex (each ``f_j >= 0``,
``sum_j f_j <= 1``).

An optional automatic-relevance-determination (ARD) prior, ``p(f_j)
proportional to 1/f_j`` for fibers beyond the first, shrinks unsupported
secondary fibers toward zero — the mechanism FSL's bedpostx added in
Behrens et al. (2007) so that crossing-fiber voxels keep two directions
while single-fiber voxels do not hallucinate a second one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["MultiFiberPriors"]


@dataclass(frozen=True)
class MultiFiberPriors:
    """Prior configuration and log-density evaluation.

    Parameters
    ----------
    s0_max:
        Upper bound of the uniform prior on ``S0`` (signal units).
    d_max:
        Upper bound of the uniform prior on diffusivity ``d`` (mm^2/s).
    sigma_bounds:
        Support of the Jeffreys prior on the noise sigma.
    ard:
        Apply the ARD prior ``1/f_j`` to fibers ``j >= 2``.
    f_min_ard:
        Density floor for the ARD prior, preventing ``log(0)`` blowups as
        ``f_j -> 0`` (FSL clamps the same way).
    """

    s0_max: float = 1.0e7
    d_max: float = 0.02
    sigma_bounds: tuple[float, float] = (1e-8, 1e6)
    ard: bool = False
    f_min_ard: float = 1e-6

    def __post_init__(self) -> None:
        if self.s0_max <= 0 or self.d_max <= 0:
            raise ConfigurationError("prior upper bounds must be positive")
        lo, hi = self.sigma_bounds
        if not 0 < lo < hi:
            raise ConfigurationError(f"bad sigma_bounds {self.sigma_bounds}")

    def log_prior(
        self,
        s0: np.ndarray,
        d: np.ndarray,
        sigma: np.ndarray,
        f: np.ndarray,
        theta: np.ndarray,
        phi: np.ndarray,
    ) -> np.ndarray:
        """Joint log-prior for each voxel; ``-inf`` outside the support.

        Shapes: ``s0, d, sigma`` are ``(n,)``; ``f, theta, phi`` are
        ``(n, N)``.  ``phi`` is unconstrained (the density is periodic)
        and does not enter.
        """
        return self.combine(
            {
                "s0": self.group_term("s0", s0),
                "d": self.group_term("d", d),
                "sigma": self.group_term("sigma", sigma),
                "f": self.group_term("f", f),
                "theta": self.group_term("theta", theta),
            }
        )

    def group_term(
        self, group: str, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``(veto, log-density term)`` of one parameter group per voxel.

        The prior factorizes over the groups ``s0``, ``d``, ``sigma``,
        ``f`` and ``theta``: ``veto`` marks voxels outside the group's
        support, and the term (``None`` for the flat ``s0`` / ``d``
        priors) is what :meth:`combine` adds up.  The MCMC stage's
        likelihood cache recomputes only the group an update changes.
        """
        if group == "s0":
            return (values <= 0) | (values > self.s0_max), None
        if group == "d":
            return (values <= 0) | (values > self.d_max), None
        if group == "sigma":
            # Jeffreys prior on sigma: the term is log(sigma).
            lo, hi = self.sigma_bounds
            veto = (values < lo) | (values > hi)
            return veto, np.log(np.where(veto, 1.0, values))
        if group == "f":
            veto = np.any(values < 0.0, axis=1) | (values.sum(axis=1) > 1.0)
            if self.ard and values.shape[1] > 1:
                f_sec = np.maximum(values[:, 1:], self.f_min_ard)
                return veto, np.log(f_sec).sum(axis=1)
            return veto, None
        if group == "theta":
            # Uniform-on-sphere prior: p(theta) ~ |sin theta|; the poles
            # have zero density.
            sin_t = np.abs(np.sin(values))
            veto = np.any(sin_t <= 0.0, axis=1)
            return veto, np.log(np.where(sin_t > 0.0, sin_t, 1.0)).sum(axis=1)
        raise ConfigurationError(f"unknown prior group {group!r}")

    @staticmethod
    def combine(terms: dict) -> np.ndarray:
        """The joint log-prior from every group's :meth:`group_term`."""
        veto = terms["s0"][0] | terms["d"][0]
        veto |= terms["sigma"][0]
        veto |= terms["f"][0]
        veto |= terms["theta"][0]
        logp = np.zeros(veto.shape[0], dtype=np.float64)
        logp -= terms["sigma"][1]
        logp += terms["theta"][1]
        ard = terms["f"][1]
        if ard is not None:
            logp -= ard
        return np.where(veto, -np.inf, logp)
