"""Quantum coin unitaries built from quantized single-cell dynamics.

Three coin families are provided, all returned as dense complex128
matrices in the coin basis {|0>, ..., |M-1>}:

- ``dft_coin``: the M-dimensional discrete Fourier coin, equal to the
  Hadamard matrix for M=2.  Its classical limit is a rigid quarter-turn
  rotation of the unit cell.
- ``harper_coin``: the one-period propagator of the kicked Harper system
  on the unit torus, quantized with effective Planck constant h = 1/M and
  a boundary phase ``phi`` on both position and momentum states.  The
  chaos parameter ``g`` drives the classical cell dynamics from
  integrable to chaotic.
- ``baker_coin``: the quantized baker transformation, a two-block
  Fourier construction with quasi-periodic boundary phase ``phi``
  (antiperiodic, ``phi = 1/2``, by convention).

Every builder checks unitarity of its result to 1e-10 in max-entry norm.
All returned arrays are marked read-only so they can be shared freely
across concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "CoinSpec",
    "UNITARITY_TOL",
    "dft_coin",
    "harper_coin",
    "baker_coin",
    "coin_matrix",
    "coin_in_position_basis",
    "twisted_dft",
    "unitarity_defect",
]

#: Max-entry tolerance on U^dagger U - I for every constructed unitary.
UNITARITY_TOL = 1e-10

COIN_KINDS = ("dft", "harper", "baker")

# Boundary-phase convention applied when CoinSpec.phi is left unset:
# periodic for the DFT and Harper coins, antiperiodic for the baker coin.
_DEFAULT_PHI = {"dft": 0.0, "harper": 0.0, "baker": 0.5}


@dataclass(frozen=True)
class CoinSpec:
    """Parameters selecting and configuring a quantum coin.

    Parameters
    ----------
    kind : str
        One of ``"dft"``, ``"harper"``, ``"baker"``.
    M : int
        Coin Hilbert-space dimension.  Must be even (the walk splits the
        coin index range into two equal halves).
    g : float
        Kick strength of the Harper coin (chaos parameter), finite and
        >= 0.  Ignored by the other coins.
    tau : float
        Kick period of the Harper coin, finite and > 0, with tau*g,
        tau*M and tau*g*M finite too.  Defaults to 1, which fixes the
        time scale.
    phi : float or None
        Boundary phase in [0, 1) applied to both position and momentum
        coin states; breaks time-reversal symmetry when nonzero (Harper)
        or deviates from the antiperiodic convention (baker).  ``None``
        selects the per-coin convention: 0 for dft/harper, 1/2 for baker.
    """

    kind: str
    M: int
    g: float = 0.0
    tau: float = 1.0
    phi: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in COIN_KINDS:
            raise ValueError(f"unknown coin kind {self.kind!r}; expected one of {COIN_KINDS}")
        if self.M < 2 or self.M % 2 != 0:
            raise ValueError(f"M: coin dimension must be a positive even integer, got {self.M}")
        _check_kick(self.g, self.tau)
        if not math.isfinite(self.tau * self.M):
            raise ValueError(f"tau: the coin phase tau*M must be finite, got {self.tau}*{self.M}")
        if not math.isfinite(self.tau * self.g * self.M):
            raise ValueError(f"tau*g: the coin phase tau*g*M must be finite, "
                             f"got {self.tau}*{self.g}*{self.M}")
        if self.phi is not None and not 0.0 <= self.phi < 1.0:
            raise ValueError(f"phi: boundary phase must lie in [0, 1), got {self.phi}")

    @property
    def resolved_phi(self) -> float:
        """Boundary phase with the per-coin convention filled in."""
        return _DEFAULT_PHI[self.kind] if self.phi is None else self.phi


def _check_kick(g: float, tau: float) -> None:
    """Harper parameters shared by the coin and the classical map: finite g >= 0,
    finite tau > 0, and a finite kick tau*g; the error names the field."""
    if not 0.0 <= g < math.inf:
        raise ValueError(f"g: chaos parameter must be finite and >= 0, got {g}")
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau: kick period must be finite and > 0, got {tau}")
    if not math.isfinite(tau * g):
        raise ValueError(f"tau*g: kick strength must be finite, got tau={tau}, g={g}")


def unitarity_defect(U: NDArray[np.complex128]) -> float:
    """Max-entry norm of U^dagger U - I."""
    n = U.shape[0]
    return float(np.max(np.abs(U.conj().T @ U - np.eye(n))))


def _finalize(U: NDArray[np.complex128]) -> NDArray[np.complex128]:
    defect = unitarity_defect(U)
    if not defect < UNITARITY_TOL:
        raise ValueError(f"coin matrix not unitary (defect {defect:.2e})")
    U.setflags(write=False)
    return U


def dft_coin(M: int) -> NDArray[np.complex128]:
    """Discrete Fourier coin: entries exp(2*pi*i*a*b/M)/sqrt(M).

    Reduces to the Hadamard matrix for M=2 and satisfies U^4 = I for
    every M.  The classical limit of this coin is an anti-clockwise
    rotation of the unit cell by ninety degrees.

    Raises
    ------
    ValueError
        If M is not a positive even integer.
    """
    if M < 2 or M % 2 != 0:
        raise ValueError(f"dft_coin requires a positive even M, got {M}")
    idx = np.arange(M)
    U = np.exp(2j * np.pi * np.outer(idx, idx) / M) / np.sqrt(M)
    return _finalize(U)


def _harper_matrix(M: int, g: float, tau: float, phi: float,
                   method: str = "fft") -> NDArray[np.complex128]:
    """Harper propagator matrix in the coin momentum basis, any M >= 1.

    Matrix elements, with h = 1/M:

        <a|U(g)|b> = exp(-i tau M cos(2 pi (b+phi)/M))
                     * (1/M) sum_c exp(-i tau g M cos(2 pi (c+phi)/M))
                                  * exp(2 pi i (c+phi)(b-a)/M)

    ``method="direct"`` evaluates the sum through the explicit
    position<->momentum transformation matrices; ``method="fft"``
    evaluates it as a phase-twisted circular convolution in O(M log M).
    Both agree to well below 1e-10.
    """
    cells = np.arange(M) + phi
    kick = np.exp(-1j * tau * g * M * np.cos(2 * np.pi * cells / M))
    kinetic = np.exp(-1j * tau * M * np.cos(2 * np.pi * cells / M))
    if method == "direct":
        # F[c, a] = <c|a>: position eigenket overlap with momentum state.
        F = np.exp(2j * np.pi * np.outer(cells, np.arange(M) + phi) / M) / np.sqrt(M)
        kernel = F.conj().T @ (kick[:, None] * F)
    elif method == "fft":
        # kernel[a, b] = e^{2 pi i phi (b-a)/M} * c_{(b-a) mod M} with
        # c_d = (1/M) sum_c kick[c] e^{2 pi i c d / M} = ifft(kick)[d].
        conv = np.fft.ifft(kick)
        idx = np.arange(M)
        diff = idx[None, :] - idx[:, None]
        kernel = np.exp(2j * np.pi * phi * diff / M) * conv[diff % M]
    else:
        raise ValueError(f"unknown method {method!r}; expected 'fft' or 'direct'")
    return kernel * kinetic[None, :]


def harper_coin(spec: CoinSpec, method: str = "fft") -> NDArray[np.complex128]:
    """One-period quantum propagator of the kicked Harper cell dynamics.

    The coin is expressed in the momentum basis; the boundary phase
    ``spec.phi`` enters both the discretized coordinates and the
    position<->momentum transformation, so a nonzero value acts like an
    Aharonov-Bohm flux that breaks time-reversal symmetry without
    touching the classical dynamics.

    Parameters
    ----------
    spec : CoinSpec
        Must have ``kind="harper"``; supplies M, g, tau, phi.
    method : str
        ``"fft"`` (default) or ``"direct"``; both produce the same matrix
        to below 1e-10.

    Raises
    ------
    ValueError
        On wrong coin kind, odd M, or tau <= 0 (checked by CoinSpec).
    """
    if spec.kind != "harper":
        raise ValueError(f"harper_coin needs kind='harper', got {spec.kind!r}")
    U = _harper_matrix(spec.M, spec.g, spec.tau, spec.resolved_phi, method=method)
    return _finalize(U)


def twisted_dft(N: int, phi: float) -> NDArray[np.complex128]:
    """Fourier matrix with quasi-periodic boundary phase.

    Entries exp(-2*pi*i*(a+phi)(b+phi)/N)/sqrt(N), mapping position
    components to momentum components.  Symmetric and unitary.
    """
    if N < 1:
        raise ValueError(f"twisted_dft requires N >= 1, got {N}")
    idx = np.arange(N) + phi
    return np.exp(-2j * np.pi * np.outer(idx, idx) / N) / np.sqrt(N)


def baker_coin(M: int, phi: float = 0.5) -> NDArray[np.complex128]:
    """Quantized baker transformation as a coin unitary.

    Two-block Fourier construction: B = G_M^{-1} blockdiag(G_{M/2}, G_{M/2})
    with G_N the phase-twisted Fourier matrix of ``twisted_dft``.  The
    default ``phi = 1/2`` is the antiperiodic convention; for M=2 the
    result coincides with the Hadamard coin up to phase redefinitions of
    the basis states.

    Raises
    ------
    ValueError
        If M is not divisible by 2.
    """
    if M < 2 or M % 2 != 0:
        raise ValueError(f"baker_coin requires M divisible by 2, got {M}")
    half = M // 2
    G_M = twisted_dft(M, phi)
    G_half = twisted_dft(half, phi)
    block = np.zeros((M, M), dtype=np.complex128)
    block[:half, :half] = G_half
    block[half:, half:] = G_half
    # G_M is symmetric, so its inverse is the plain conjugate.
    return _finalize(np.conj(G_M) @ block)


def coin_matrix(spec: CoinSpec) -> NDArray[np.complex128]:
    """Build the unitary for any CoinSpec."""
    if spec.kind == "dft":
        return dft_coin(spec.M)
    if spec.kind == "harper":
        return harper_coin(spec)
    return baker_coin(spec.M, spec.resolved_phi)


def coin_in_position_basis(U: NDArray[np.complex128], phi: float = 0.0) -> NDArray[np.complex128]:
    """Re-express a coin matrix in the conjugate cell basis.

    Conjugates by the phase-twisted transformation function, turning a
    momentum-basis coin into its position-basis form (and vice versa,
    since the transform is symmetric).  Splitting the index range of the
    rotated matrix partitions the cell along the other coordinate.
    """
    M = U.shape[0]
    F = np.conj(twisted_dft(M, phi))  # F[c, a] = <c|a>
    return _finalize(F @ U @ F.conj().T)
