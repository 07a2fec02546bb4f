"""Combined Tausworthe ("HybridTaus") generator, vectorized over threads.

This is the generator recommended for GPU Monte-Carlo in GPU Gems 3,
chapter 37 (Howes & Thomas), and the one the paper cites for on-device
random number generation: three Tausworthe components (periods
:math:`2^{31}-1`, :math:`2^{29}-1`, :math:`2^{28}-1`) are XOR-combined with a
linear congruential generator, giving a combined period of roughly
:math:`2^{121}`.

Each simulated GPU thread owns an independent 4-word state; the NumPy
implementation keeps all thread states in one ``(n_threads, 4)`` uint32
array and advances every lane per call — the same lockstep structure the
GPU kernel has.

Reference single-thread form (GPU Gems 3, fig. 37-4)::

    unsigned TausStep(unsigned &z, int S1, int S2, int S3, unsigned M) {
        unsigned b = (((z << S1) ^ z) >> S2);
        return z = (((z & M) << S3) ^ b);
    }
    unsigned LCGStep(unsigned &z) { return z = 1664525 * z + 1013904223; }
    float HybridTaus() {
        return 2.3283064365387e-10 * (
            TausStep(z1, 13, 19, 12, 4294967294UL) ^
            TausStep(z2,  2, 25,  4, 4294967288UL) ^
            TausStep(z3,  3, 11, 17, 4294967280UL) ^
            LCGStep(z4));
    }
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.rng.boxmuller import box_muller

__all__ = ["HybridTaus", "TAUS_PARAMS", "taus_step", "lcg_step"]

#: (S1, S2, S3, mask) for the three Tausworthe components.
TAUS_PARAMS: tuple[tuple[int, int, int, int], ...] = (
    (13, 19, 12, 0xFFFFFFFE),
    (2, 25, 4, 0xFFFFFFF8),
    (3, 11, 17, 0xFFFFFFF0),
)

#: The same parameters as ``(3, 1)`` columns, one row per component,
#: for :meth:`HybridTaus.next_uint32`'s stacked step.
_S1, _S2, _S3, _M = (
    np.array(col, dtype=np.uint32)[:, None] for col in zip(*TAUS_PARAMS)
)

_LCG_A = np.uint32(1664525)
_LCG_C = np.uint32(1013904223)
#: 2**-32, mapping a uint32 into [0, 1).
_U32_TO_UNIT = 2.3283064365386963e-10

#: Tausworthe component i requires state word > 2**(S2_i) - 1 to avoid the
#: degenerate all-advance-to-zero orbit; 128 exceeds all three thresholds'
#: low-bit masks in practice (GPU Gems uses >128 as the safe floor).
MIN_STATE = 128


def taus_step(z: np.ndarray, s1, s2, s3, mask) -> np.ndarray:
    """Advance Tausworthe state words in place; returns the new state.

    The parameters are one component's ints, or ``(k, 1)`` columns that
    advance the ``k`` rows of ``z`` as ``k`` components in one step.
    """
    b = np.left_shift(z, s1)
    b ^= z
    b >>= s2
    z &= mask
    z <<= s3
    z ^= b
    return z


def lcg_step(z: np.ndarray) -> np.ndarray:
    """Advance the LCG component in place (mod 2**32); returns the new state."""
    z *= _LCG_A
    z += _LCG_C
    return z


class HybridTaus:
    """Vectorized combined Tausworthe + LCG generator.

    Parameters
    ----------
    state:
        ``(n_threads, 4)`` uint32 array of per-thread states.  Words 0-2 are
        the Tausworthe components and must each be ``>= MIN_STATE``; word 3
        is the LCG state (any value).  Use
        :func:`repro.rng.streams.seed_streams` to construct well-spread
        states from a single integer seed.

    Notes
    -----
    All draw methods advance *every* thread lane — exactly what a SIMD warp
    does — so masked/conditional consumption on the caller's side does not
    desynchronize streams between runs.

    Internally the three Tausworthe words are one contiguous ``(3, n)``
    array advanced by a single broadcast shift/mask step (row ``i`` uses
    component ``i``'s ``S1/S2/S3/M``), and the LCG words are one ``(n,)``
    array; :attr:`state` reassembles the ``(n_threads, 4)`` layout.
    """

    def __init__(self, state: np.ndarray) -> None:
        state = np.asarray(state)
        if state.ndim != 2 or state.shape[1] != 4:
            raise ConfigurationError(
                f"state must have shape (n_threads, 4), got {state.shape}"
            )
        if state.dtype != np.uint32:
            raise ConfigurationError(f"state dtype must be uint32, got {state.dtype}")
        if np.any(state[:, :3] < MIN_STATE):
            raise ConfigurationError(
                f"Tausworthe state words must be >= {MIN_STATE} "
                "(degenerate orbits otherwise); use seed_streams()"
            )
        self._taus = np.ascontiguousarray(state[:, :3].T)
        self._lcg = state[:, 3].copy()

    @property
    def n_threads(self) -> int:
        """Number of independent lanes."""
        return self._lcg.shape[0]

    @property
    def state(self) -> np.ndarray:
        """A copy of the current per-thread state (for checkpointing)."""
        out = np.empty((self.n_threads, 4), dtype=np.uint32)
        out[:, :3] = self._taus.T
        out[:, 3] = self._lcg
        return out

    def next_uint32(self) -> np.ndarray:
        """One uint32 per thread; advances all lanes."""
        z = taus_step(self._taus, _S1, _S2, _S3, _M)
        out = z[0] ^ z[1]
        out ^= z[2]
        out ^= lcg_step(self._lcg)
        return out

    def uniform(self) -> np.ndarray:
        """One float64 in ``[0, 1)`` per thread."""
        return self.next_uint32() * _U32_TO_UNIT

    def uniforms(self, n: int) -> np.ndarray:
        """``(n, n_threads)`` uniforms; column ``t`` is thread ``t``'s stream."""
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        out = np.empty((n, self.n_threads), dtype=np.float64)
        for i in range(n):
            out[i] = self.uniform()
        return out

    def normal(self) -> np.ndarray:
        """One standard-normal float64 per thread (Box-Muller, 2 uniforms).

        Matches the paper's accounting of *three* uniforms per MH
        parameter update: two for the Gaussian proposal increment (this
        call) and one for the accept/reject test (:meth:`uniform`).
        """
        u1 = self.uniform()
        u2 = self.uniform()
        return box_muller(u1, u2)

    def jump(self, n: int) -> None:
        """Advance all lanes by ``n`` draws without returning values."""
        for _ in range(n):
            self.next_uint32()
