"""Coined-walk operator on a periodic lattice and its time evolution.

The walk acts on the product of an L-site ring and an M-dimensional coin
space.  One step applies the coin unitary U to the internal state and
then shifts the lattice site conditionally: coin components 0..M/2-1 hop
to the left neighbour, M/2..M-1 to the right.  ``WalkConfig`` has exactly
two fields, the lattice size ``L`` and the ``coin`` (a ``CoinSpec``).

Two equivalent operator representations are built:

- ``build_dense``: the full (L*M) x (L*M) unitary, with the composite
  index convention ``site * M + coin``.  Exact but O((LM)^2) per step;
  used as the oracle and for small instances.
- ``build_momentum_blocks``: the lattice momentum is conserved, so the
  same operator decomposes into L independent M x M blocks
  E_k = D_k U, where D_k carries phases exp(+-2*pi*i*k/L).  Every block
  shares U, so the set is kept factored, as U and the (L, M) phases.
  ``_apply_blocks`` steps each sector of a set, O(M^2) per row, in one GEMM
  by U^T plus a phase multiply.  A walk released from site 0 can be only on
  the sites -t, -t + 2, ..., t at time t, and while those fit the ring the
  same step is taken on that light-cone window in position space, by U^T
  and a one-row shift of each coin half, with no phases and no FFT.

The lattice Fourier convention is <n|k> = exp(2*pi*i*n*k/L)/sqrt(L); the
block phases are fixed by requiring exact agreement with the dense
operator under that convention (the phase on the left-shifted rows is
e^{+2*pi*i*k/L}).  ``momentum_to_site`` applies it to normalized momentum
states; the tests use it as an oracle.  The evolution itself keeps the
unnormalized rows of E_k^t and leaves the site transform to
``observables``.

All operators are pure data; block evolution touches no shared mutable
state, so blocks may be processed concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .coins import CoinSpec, unitarity_defect, UNITARITY_TOL

__all__ = [
    "WalkConfig",
    "MomentumBlockSet",
    "build_dense",
    "build_momentum_blocks",
    "momentum_to_site",
]


@dataclass(frozen=True)
class WalkConfig:
    """Lattice size ``L`` and coin choice ``coin``; nothing else.

    Coin indices 0..M/2-1 shift to the left neighbour and M/2..M-1 to the
    right.  Splitting the cell along the other coordinate is a property of
    the coin matrix (``coins.coin_in_position_basis``), not of the walk.
    """

    L: int
    coin: CoinSpec

    def __post_init__(self) -> None:
        if self.L < 2:
            raise ValueError(f"L: lattice size must be >= 2, got {self.L}")

    @property
    def M(self) -> int:
        return self.coin.M

    def left_rows(self) -> NDArray[np.bool_]:
        """Boolean mask over coin indices: True where the row shifts left."""
        return np.arange(self.M) < self.M // 2


@dataclass(frozen=True)
class MomentumBlockSet:
    """The L unitary M x M blocks E_k = D_k U of the walk operator, kept factored:
    the coin U (M, M) and the diagonals of the D_k, ``phases`` (L, M)."""

    coin: NDArray[np.complex128]
    phases: NDArray[np.complex128]

    @property
    def L(self) -> int:
        return self.phases.shape[0]

    @property
    def M(self) -> int:
        return self.coin.shape[0]

    @property
    def shape(self) -> tuple[int, int, int]:
        """(L, M, M), the operator stack the set stands for.  perfbench's step count reads
        it as 8*L*M^2*R flop for R rows per sector: the GEMM's on all L momenta, more than
        the 8*(t+1)*M^2*R of a step of the light-cone window at time t."""
        return (self.L, self.M, self.M)


def momentum_to_site(psi: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Inverse lattice Fourier transform along axis 0: psi(k) -> psi(n), unitary."""
    return np.fft.ifft(psi, axis=0) * np.sqrt(psi.shape[0])


def _check_coin_dim(config: WalkConfig, U: NDArray[np.complex128]) -> None:
    if U.shape != (config.M, config.M):
        raise ValueError(f"coin matrix shape {U.shape} does not match coin dimension M={config.M}")


def build_dense(config: WalkConfig, U: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Full walk unitary: coin flip followed by the conditional shift.

    Block at (site n-1, site n) holds the left-shifted rows of U, block
    at (site n+1, site n) the right-shifted rows, cyclically in n.
    """
    _check_coin_dim(config, U)
    L, M = config.L, config.M
    left = config.left_rows()
    E = np.zeros((L * M, L * M), dtype=np.complex128)
    for n in range(L):
        dst_left = ((n - 1) % L) * M
        dst_right = ((n + 1) % L) * M
        col = n * M
        E[dst_left:dst_left + M, col:col + M][left] = U[left]
        E[dst_right:dst_right + M, col:col + M][~left] = U[~left]
    defect = unitarity_defect(E)
    if not defect < UNITARITY_TOL:
        raise ValueError(f"walk operator not unitary (defect {defect:.2e})")
    E.setflags(write=False)
    return E


def build_momentum_blocks(config: WalkConfig, U: NDArray[np.complex128]) -> MomentumBlockSet:
    """Momentum-sector blocks E_k = D_k U of the walk operator, as U and the phases of D_k.

    D_k is diagonal with e^{+2*pi*i*k/L} on the left-shifted coin rows and
    e^{-2*pi*i*k/L} on the right-shifted rows; this is exactly the dense
    operator of ``build_dense`` conjugated into the lattice momentum
    basis <n|k> = exp(2*pi*i*n*k/L)/sqrt(L).  ``U`` must be a unitary M x M matrix.
    """
    coin = np.array(U, dtype=np.complex128)
    _check_coin_dim(config, coin)
    defect = unitarity_defect(coin)
    if not defect < UNITARITY_TOL:
        raise ValueError(f"U: coin matrix not unitary (defect {defect:.2e})")
    L = config.L
    signs = np.where(config.left_rows(), 1.0, -1.0)
    phases = np.exp(2j * np.pi * np.outer(np.arange(L), signs) / L)  # (L, M)
    coin.setflags(write=False)
    phases.setflags(write=False)
    return MomentumBlockSet(coin=coin, phases=phases)


def _apply_blocks(blocks: MomentumBlockSet, psi: NDArray[np.complex128],
                  out: NDArray[np.complex128] | None = None) -> NDArray[np.complex128]:
    """One step of psi (n, R, M), which holds R row states per row: all momenta, or the window.

    With n = L, row k is momentum sector k: every row is multiplied by U^T in a single GEMM
    over all L*R rows, then by its sector's phases, so row r of sector k becomes E_k psi[k, r].
    With n < L, psi is the light-cone window of a walk from site 0 at time t = n - 1, row j
    the site -t + 2j, and the window at t + 1 is written to the C-contiguous ``out[:n + 1]``:
    the left-moving coin half of row j lands in row j, the right-moving half in row j + 1.
    """
    n, R, M = psi.shape
    if n == blocks.L:
        stepped = (psi.reshape(n * R, M) @ blocks.coin.T).reshape(n, R, M)
        stepped *= blocks.phases[:, None, :]
        return stepped
    h, rows, step = M // 2, psi.reshape(n * R, M), out[:n + 1]
    # each half is one GEMM written straight into its shifted rows (views, as out is contiguous)
    np.matmul(rows, blocks.coin[:h].T, out=step[:n, :, :h].reshape(n * R, h))
    np.matmul(rows, blocks.coin[h:].T, out=step[1:, :, h:].reshape(n * R, M - h))
    step[n, :, :h] = 0.0
    step[0, :, h:] = 0.0
    return step
