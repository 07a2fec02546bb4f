"""Behrens' multiple partial volume model (paper Eq. 1).

Each voxel holds ``N`` sticks plus an isotropic ball::

    mu_i = S0 * [ (1 - sum_j f_j) exp(-b_i d)
                  + sum_j f_j exp(-b_i d (r_i . v_j)^2) ]

The paper (and FSL bedpostx) uses ``N = 2`` to allow for crossing fibers
while avoiding overfitting.  This is the model the MCMC stage samples and
the phantom generator uses as the ground-truth forward model.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.io.gradients import GradientTable
from repro.models.base import DiffusionModel
from repro.utils.geometry import spherical_to_cartesian

__all__ = ["MultiFiberModel", "neg_bd", "stick_dot2", "mix_signal"]


def neg_bd(gtab: GradientTable, d: np.ndarray) -> np.ndarray:
    """``(n, m)`` exponent ``-b_i d`` of the ball; ``ball = exp(neg_bd)``."""
    return -(gtab.bvals[None, :] * d[:, None])


def stick_dot2(gtab: GradientTable, direction: np.ndarray) -> np.ndarray:
    """``(n, m)`` squared projection ``(r_i . v)^2`` of each gradient on
    one stick's ``(n, 3)`` directions; ``stick = exp(neg_bd * dot2)``."""
    return np.einsum("vj,mj->vm", direction, gtab.bvecs) ** 2


def mix_signal(f: np.ndarray, ball: np.ndarray, sticks) -> np.ndarray:
    """``(n, m)`` bracket of Eq. 1 from the compartment signals.

    The one summation order of the model, ``f_iso * ball + (f_1 * stick_1
    + f_2 * stick_2 + ...)``: the full evaluation and the MCMC stage's
    incremental cache (:class:`repro.models.posterior.LikelihoodCache`)
    both sum here, which keeps them bit-identical.
    """
    f_iso = 1.0 - f.sum(axis=1)
    acc = f[:, :1] * sticks[0]
    for j in range(1, len(sticks)):
        acc += f[:, j : j + 1] * sticks[j]
    # Addition commutes exactly, so adding in place keeps the order above.
    acc += f_iso[:, None] * ball
    return acc


class MultiFiberModel(DiffusionModel):
    """Multiple partial volume model with ``n_fibers`` sticks.

    Parameters
    ----------
    n_fibers:
        Number of stick compartments ``N`` (default 2, as in the paper).
    """

    def __init__(self, n_fibers: int = 2) -> None:
        if n_fibers < 1:
            raise ModelError(f"n_fibers must be >= 1, got {n_fibers}")
        self.n_fibers = n_fibers
        names = ["s0", "d"]
        for j in range(1, n_fibers + 1):
            names += [f"f{j}", f"theta{j}", f"phi{j}"]
        self.param_names = tuple(names)

    def predict(self, gtab: GradientTable, **params: np.ndarray) -> np.ndarray:
        """Signal from ``s0``, ``d`` (``(n,)``), ``f`` (``(n, N)``),
        ``theta``/``phi`` (``(n, N)``)."""
        s0 = np.atleast_1d(np.asarray(params["s0"], dtype=np.float64))
        d = np.atleast_1d(np.asarray(params["d"], dtype=np.float64))
        f = np.atleast_2d(np.asarray(params["f"], dtype=np.float64))
        theta = np.atleast_2d(np.asarray(params["theta"], dtype=np.float64))
        phi = np.atleast_2d(np.asarray(params["phi"], dtype=np.float64))
        n_fib = self.n_fibers
        for name, arr in (("f", f), ("theta", theta), ("phi", phi)):
            if arr.shape[-1] != n_fib:
                raise ModelError(
                    f"{name} must have trailing dimension {n_fib}, got {arr.shape}"
                )
        return self.predict_dirs(
            gtab, s0=s0, d=d, f=f, dirs=spherical_to_cartesian(theta, phi)
        )

    def predict_dirs(
        self,
        gtab: GradientTable,
        s0: np.ndarray,
        d: np.ndarray,
        f: np.ndarray,
        dirs: np.ndarray,
    ) -> np.ndarray:
        """Like :meth:`predict` but with Cartesian directions ``(n, N, 3)``.

        Shared by the phantom generator, which carries ground truth as unit
        vectors rather than angles.
        """
        s0 = np.atleast_1d(np.asarray(s0, dtype=np.float64))
        d = np.atleast_1d(np.asarray(d, dtype=np.float64))
        f = np.atleast_2d(np.asarray(f, dtype=np.float64))
        dirs = np.asarray(dirs, dtype=np.float64)
        if dirs.ndim == 2:
            dirs = dirs[None]
        if f.shape[1] != dirs.shape[1]:
            raise ModelError(
                f"f has {f.shape[1]} fibers, dirs has {dirs.shape[1]}"
            )
        exponent = neg_bd(gtab, d)
        ball = np.exp(exponent)
        sticks = [
            np.exp(exponent * stick_dot2(gtab, dirs[:, j]))
            for j in range(dirs.shape[1])
        ]
        return s0[:, None] * mix_signal(f, ball, sticks)
