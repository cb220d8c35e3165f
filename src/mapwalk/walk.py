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
  shares U, so the set is the checked U and L, and a run builds nothing of
  size L*M.  Only the block oracle builds the (L, M, M) stack of the E_k,
  ``_block_stack``, and takes its matrix power, as the dense oracle does E's.

A walk released from site 0 can be only on the min(t + 1, R) sites -t + 2j
mod L at time t, R = L // gcd(L, 2): its light cone.  ``_apply_blocks`` steps
that window in position space by U^T and a one-row shift of each coin half,
with no phases and no FFT; once the cone wraps, the window cycles on the ring.

The lattice Fourier convention is <n|k> = exp(2*pi*i*n*k/L)/sqrt(L); the
block phases are fixed by requiring exact agreement with the dense
operator under that convention (the phase on the left-shifted rows is
e^{+2*pi*i*k/L}).  ``momentum_to_site`` applies it to normalized momentum
states; the tests use it as an oracle.  The block oracle keeps the
unnormalized E_k^t and leaves the site transform to ``observables``.

All operators are pure data; block evolution touches no shared mutable
state, so blocks may be processed concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .coins import CoinSpec, _check_count, _unitary

__all__ = [
    "WalkConfig",
    "MomentumBlockSet",
    "build_dense",
    "build_momentum_blocks",
    "momentum_to_site",
]


@dataclass(frozen=True)
class WalkConfig:
    """Lattice size ``L`` and coin choice ``coin``; nothing else.  Splitting the cell along
    the other coordinate is a property of the coin (``coins.coin_in_position_basis``)."""

    L: int
    coin: CoinSpec

    def __post_init__(self) -> None:
        _check_count("L", self.L, 2)

    @property
    def M(self) -> int:
        return self.coin.M


def _left_rows(M: int) -> NDArray[np.bool_]:
    """True on the coin rows 0..M/2-1, which shift to the left neighbour; M/2..M-1 shift right."""
    return np.arange(M) < M // 2


@dataclass(frozen=True)
class MomentumBlockSet:
    """The L unitary M x M blocks E_k = D_k U of the walk operator, kept as the checked
    coin U (M, M) and the ring size L: plain frozen data, with no table of the D_k."""

    coin: NDArray[np.complex128]
    L: int

    @property
    def M(self) -> int:
        return self.coin.shape[0]

    @property
    def shape(self) -> tuple[int, int, int]:
        """(L, M, M), the operator stack the set stands for; only ``_block_stack`` builds it.
        perfbench's step count reads it as 8*L*M^2*S flop for S rows per sector, all L momenta;
        a step of the light-cone window at time t does 8*min(t + 1, ring_rows)*M^2*S."""
        return (self.L, self.M, self.M)

    @property
    def ring_rows(self) -> int:
        """L // gcd(L, 2), the sites a walk from site 0 can be on at once after its cone wraps."""
        return self.L // math.gcd(self.L, 2)


def momentum_to_site(psi: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Inverse lattice Fourier transform along axis 0: psi(k) -> psi(n), unitary."""
    return np.fft.ifft(psi, axis=0) * np.sqrt(psi.shape[0])


def _check_coin_dim(config: WalkConfig, U: NDArray[np.complex128]) -> None:
    if U.shape != (config.M, config.M):
        raise ValueError(f"U: coin matrix shape {U.shape} does not match coin dimension "
                         f"M={config.M}")


def build_dense(config: WalkConfig, U: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Full walk unitary: coin flip followed by the conditional shift.

    Block at (site n-1, site n) holds the left-shifted rows of U, block
    at (site n+1, site n) the right-shifted rows, cyclically in n.
    """
    _check_coin_dim(config, U)
    L, M, left = config.L, config.M, _left_rows(config.M)
    E = np.zeros((L * M, L * M), dtype=np.complex128)
    for n in range(L):
        dst_left = ((n - 1) % L) * M
        dst_right = ((n + 1) % L) * M
        col = n * M
        E[dst_left:dst_left + M, col:col + M][left] = U[left]
        E[dst_right:dst_right + M, col:col + M][~left] = U[~left]
    return _unitary(E, "walk operator")


def _block_stack(blocks: MomentumBlockSet) -> NDArray[np.complex128]:
    """The (L, M, M) stack of the blocks E_k = D_k U, for the block oracle: D_k is
    e^{+2*pi*i*k/L} on the left-shifted coin rows and e^{-2*pi*i*k/L} on the rest."""
    signs = np.where(_left_rows(blocks.M), 1.0, -1.0)
    phases = np.exp(2j * np.pi * np.outer(np.arange(blocks.L), signs) / blocks.L)
    return phases[:, :, None] * blocks.coin


def build_momentum_blocks(config: WalkConfig, U: NDArray[np.complex128]) -> MomentumBlockSet:
    """Momentum-sector blocks E_k = D_k U of the walk operator, as the checked U and L.

    D_k is diagonal with e^{+2*pi*i*k/L} on the left-shifted coin rows and
    e^{-2*pi*i*k/L} on the right-shifted rows; this is exactly the dense
    operator of ``build_dense`` conjugated into the lattice momentum
    basis <n|k> = exp(2*pi*i*n*k/L)/sqrt(L).  ``U`` must be a unitary M x M matrix.
    """
    coin = np.array(U, dtype=np.complex128)
    _check_coin_dim(config, coin)
    return MomentumBlockSet(coin=_unitary(coin, "U: coin matrix"), L=config.L)


def _apply_blocks(blocks: MomentumBlockSet, psi: NDArray[np.complex128],
                  out: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """One step of the light-cone window psi (n, S, M) of a walk from site 0, S rows per site.

    Row j is the site -t + 2j mod L at time t.  The window at t + 1 is written to the
    C-contiguous ``out`` (n + 1 rows or more) and returned: the left-moving coin half of row j
    lands in row j, the right-moving half in row j + 1, or in row 0 for the last row once the
    window has ``blocks.ring_rows`` rows, every site the walk can be on.
    """
    n, S, M = psi.shape
    h, rows, step = M // 2, psi.reshape(n * S, M), out[:n + 1]
    # each half is one GEMM written straight into its shifted rows (views, as out is contiguous)
    np.matmul(rows, blocks.coin[:h].T, out=step[:n, :, :h].reshape(n * S, h))
    np.matmul(rows, blocks.coin[h:].T, out=step[1:, :, h:].reshape(n * S, M - h))
    step[n, :, :h] = 0.0
    step[0, :, h:] = 0.0
    rows_next = min(n + 1, blocks.ring_rows)
    # once the window fills the ring its row n is row 0; until then this copies no row
    step[:n + 1 - rows_next, :, h:] = step[rows_next:, :, h:]
    return step[:rows_next]
