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
  E_k = D_k U, where D_k carries phases exp(+-2*pi*i*k/L).  This is the
  default execution path, O(L*M^2) per step.

The lattice Fourier convention is <n|k> = exp(2*pi*i*n*k/L)/sqrt(L); the
block phases are fixed by requiring exact agreement with the dense
operator under that convention (the phase on the left-shifted rows is
e^{+2*pi*i*k/L}).

All operators are pure data; block evolution touches no shared mutable
state, so blocks (or whole states) may be processed concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .coins import CoinSpec, unitarity_defect, UNITARITY_TOL

__all__ = [
    "WalkConfig",
    "MomentumBlockSet",
    "WalkState",
    "build_dense",
    "build_momentum_blocks",
    "evolve",
    "amplitude",
    "basis_state",
    "site_to_momentum",
    "momentum_to_site",
]

_NORM_TOL = 1e-10


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
    """L unitary M x M blocks of the walk operator, one per lattice momentum."""

    L: int
    M: int
    blocks: NDArray[np.complex128]  # shape (L, M, M)

    def __post_init__(self) -> None:
        if self.blocks.shape != (self.L, self.M, self.M):
            raise ValueError(f"blocks shape {self.blocks.shape} != {(self.L, self.M, self.M)}")

    def block(self, k: int) -> NDArray[np.complex128]:
        return self.blocks[k % self.L]


@dataclass(frozen=True)
class WalkState:
    """State of the walker, in either representation.

    ``basis="site"`` stores a flat length-L*M vector with composite index
    ``site * M + coin``; ``basis="momentum"`` stores an (L, M) array of L
    momentum-sector vectors.  States are normalized to 1 within 1e-10;
    the norm is monitored at construction, never repaired.
    """

    data: NDArray[np.complex128]
    L: int
    M: int
    basis: str = "site"
    time: int = 0

    def __post_init__(self) -> None:
        if self.basis not in ("site", "momentum"):
            raise ValueError(f"unknown basis {self.basis!r}")
        expected = (self.L * self.M,) if self.basis == "site" else (self.L, self.M)
        if self.data.shape != expected:
            raise ValueError(f"state shape {self.data.shape} != {expected} for basis {self.basis!r}")
        nrm = self.norm_sq()
        if abs(nrm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm^2 = {nrm!r} deviates from 1 beyond {_NORM_TOL}")

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.data) ** 2))

    def to_momentum(self) -> "WalkState":
        if self.basis == "momentum":
            return self
        mom = site_to_momentum(self.data.reshape(self.L, self.M))
        return replace(self, data=mom, basis="momentum")

    def to_site(self) -> "WalkState":
        if self.basis == "site":
            return self
        site = momentum_to_site(self.data).reshape(self.L * self.M)
        return replace(self, data=site, basis="site")


def site_to_momentum(psi: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Forward lattice Fourier transform along axis 0: psi(n) -> psi(k)."""
    return np.fft.fft(psi, axis=0) / np.sqrt(psi.shape[0])


def momentum_to_site(psi: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Inverse lattice Fourier transform along axis 0: psi(k) -> psi(n)."""
    return np.fft.ifft(psi, axis=0) * np.sqrt(psi.shape[0])


def basis_state(L: int, M: int, site: int = 0, coin: int = 0,
                basis: str = "site") -> WalkState:
    """Product basis state |site> x |coin> in the requested representation."""
    if not (0 <= site < L and 0 <= coin < M):
        raise IndexError(f"basis state ({site}, {coin}) out of range for L={L}, M={M}")
    vec = np.zeros(L * M, dtype=np.complex128)
    vec[site * M + coin] = 1.0
    state = WalkState(vec, L=L, M=M, basis="site")
    return state.to_momentum() if basis == "momentum" else state


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
    assert defect < UNITARITY_TOL, f"walk operator not unitary (defect {defect:.2e})"
    E.setflags(write=False)
    return E


def build_momentum_blocks(config: WalkConfig, U: NDArray[np.complex128]) -> MomentumBlockSet:
    """Momentum-sector blocks E_k = D_k U of the walk operator.

    D_k is diagonal with e^{+2*pi*i*k/L} on the left-shifted coin rows and
    e^{-2*pi*i*k/L} on the right-shifted rows; this is exactly the dense
    operator of ``build_dense`` conjugated into the lattice momentum
    basis <n|k> = exp(2*pi*i*n*k/L)/sqrt(L).
    """
    _check_coin_dim(config, U)
    L, M = config.L, config.M
    signs = np.where(config.left_rows(), 1.0, -1.0)
    phases = np.exp(2j * np.pi * np.outer(np.arange(L), signs) / L)  # (L, M)
    blocks = phases[:, :, None] * U[None, :, :]
    blocks.setflags(write=False)
    return MomentumBlockSet(L=L, M=M, blocks=blocks)


def _apply_blocks(blocks: NDArray[np.complex128],
                  psi: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """One step of all momentum sectors at once; psi has shape (L, M) or (L, M, R)."""
    if psi.ndim == 2:
        return np.matmul(blocks, psi[:, :, None])[:, :, 0]
    return np.matmul(blocks, psi)


def evolve(state: WalkState,
           operator: NDArray[np.complex128] | MomentumBlockSet,
           steps: int) -> WalkState:
    """Advance a state by repeated application of the walk operator.

    The operator representation must match the state representation
    (convert with ``to_site``/``to_momentum`` first); evolution is always
    by repeated operator-times-vector products, never matrix powers.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if isinstance(operator, MomentumBlockSet):
        if state.basis != "momentum":
            raise ValueError("block operator needs a momentum-basis state; call to_momentum() first")
        if (operator.L, operator.M) != (state.L, state.M):
            raise ValueError("operator and state dimensions do not match")
        psi = state.data
        for _ in range(steps):
            psi = _apply_blocks(operator.blocks, psi)
    else:
        if state.basis != "site":
            raise ValueError("dense operator needs a site-basis state; call to_site() first")
        if operator.shape != (state.L * state.M,) * 2:
            raise ValueError("operator and state dimensions do not match")
        psi = state.data
        for _ in range(steps):
            psi = operator @ psi
    return replace(state, data=psi, time=state.time + steps)


def amplitude(state: WalkState, site: int, coin: int) -> complex:
    """Complex amplitude <site, coin | state>.

    Momentum-basis states are converted through the inverse lattice
    Fourier transform; the state itself is left untouched.
    """
    if not (0 <= site < state.L and 0 <= coin < state.M):
        raise IndexError(f"({site}, {coin}) out of range for L={state.L}, M={state.M}")
    st = state.to_site()
    return complex(st.data[site * state.M + coin])
