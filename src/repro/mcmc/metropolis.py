"""The vectorized Metropolis-Hastings parameter update (paper § III-A2).

One call performs the paper's "MH step" for a single parameter index
across *all voxels simultaneously* — the SIMD lane structure of the GPU
kernel (one thread per voxel).  Three uniforms are consumed per voxel per
call: two through Box-Muller for the Gaussian proposal increment, one for
the accept test, matching the paper's random-number accounting
(``... * NumParameters * 3``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.models.posterior import LikelihoodCache
from repro.rng.tausworthe import HybridTaus

__all__ = ["mh_parameter_update"]


def mh_parameter_update(
    log_posterior: LikelihoodCache | Callable[[np.ndarray], np.ndarray],
    params: np.ndarray,
    current_lp: np.ndarray,
    param_index: int,
    proposal_sigma: np.ndarray,
    rng: HybridTaus,
) -> tuple[np.ndarray, np.ndarray]:
    """One MH accept/reject step for one parameter across all voxels.

    Parameters
    ----------
    log_posterior:
        The target.  The sampler passes its posterior's
        :class:`~repro.models.posterior.LikelihoodCache` of ``params``,
        which evaluates the one-parameter proposal incrementally and is
        updated here on accept.  Any other callable maps ``(n_vox,
        n_params)`` states to ``(n_vox,)`` log densities and is evaluated
        on the whole proposal state.
    params:
        Current states, modified **in place** where proposals are accepted.
    current_lp:
        ``(n_vox,)`` cached log-posterior of ``params`` (updated in place).
    param_index:
        Which flat parameter to perturb.
    proposal_sigma:
        ``(n_vox,)`` Gaussian proposal widths for this parameter.
    rng:
        Per-voxel random streams (``rng.n_threads == n_vox``).

    Returns
    -------
    (accepted, current_lp):
        ``accepted`` is the ``(n_vox,)`` boolean decision vector;
        ``current_lp`` is the updated cache (same array as passed in).

    Notes
    -----
    The proposal is symmetric, so the MH ratio reduces to the posterior
    ratio ``r = P(omega') / P(omega)``; acceptance with probability
    ``min(r, 1)`` is implemented as ``log u < lp' - lp``.  Voxels whose
    current state already has ``-inf`` posterior (possible only at a bad
    init) accept any finite proposal.
    """
    step = rng.normal() * proposal_sigma
    u = rng.uniform()

    value = params[:, param_index] + step
    cached = isinstance(log_posterior, LikelihoodCache)
    if cached:
        prop_lp = log_posterior.propose(params, param_index, value)
    else:
        proposal = params.copy()
        proposal[:, param_index] = value
        prop_lp = log_posterior(proposal)

    with np.errstate(invalid="ignore"):
        log_ratio = prop_lp - current_lp
    # -inf current posterior: accept anything finite.
    log_ratio = np.where(np.isneginf(current_lp) & np.isfinite(prop_lp), np.inf, log_ratio)
    accepted = np.log(np.maximum(u, 1e-300)) < log_ratio

    np.copyto(params[:, param_index], value, where=accepted)
    np.copyto(current_lp, prop_lp, where=accepted)
    if cached:
        log_posterior.accept(accepted)
    return accepted, current_lp
