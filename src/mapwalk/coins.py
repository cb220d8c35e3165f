"""Quantum coin unitaries built from quantized single-cell dynamics.

``coin_matrix`` builds every coin from a ``CoinSpec`` as a dense complex128
matrix in the coin basis {|0>, ..., |M-1>}.  The three families are the
discrete Fourier coin (Hadamard at M=2; classically a quarter-turn of the
cell), the kicked Harper propagator quantized with h = 1/M, whose chaos
parameter ``g`` takes the cell from integrable to chaotic, and the quantized
baker.  ``CoinSpec`` checks the parameters; ``coin_matrix`` checks unitarity
of its result to 1e-10 in max-entry norm and marks it read-only, so it can be
shared freely across concurrent workers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "CoinSpec",
    "UNITARITY_TOL",
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
            raise ValueError(f"kind: must be one of {', '.join(COIN_KINDS)}, got {self.kind!r}")
        _check_count("M", self.M, 2)
        if self.M % 2 != 0:
            raise ValueError(f"M: coin dimension must be even, got {self.M}")
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


def _check_count(field: str, value: object, minimum: int) -> None:
    """The one rule for sizes, step counts and seeds: an integer (numpy's too) >= ``minimum``."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{field}: must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{field}: must be >= {minimum}, got {value}")


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


def _unitary(U: NDArray[np.complex128], what: str = "coin matrix") -> NDArray[np.complex128]:
    """The one unitarity gate: ``U``, made read-only, if its defect is below UNITARITY_TOL;
    otherwise a ValueError naming ``what``."""
    defect = unitarity_defect(U)
    if not defect < UNITARITY_TOL:
        raise ValueError(f"{what} not unitary (defect {defect:.2e})")
    U.setflags(write=False)
    return U


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
    else:
        # kernel[a, b] = e^{2 pi i phi (b-a)/M} * c_{(b-a) mod M} with
        # c_d = (1/M) sum_c kick[c] e^{2 pi i c d / M} = ifft(kick)[d].
        conv = np.fft.ifft(kick)
        idx = np.arange(M)
        diff = idx[None, :] - idx[:, None]
        kernel = np.exp(2j * np.pi * phi * diff / M) * conv[diff % M]
    return kernel * kinetic[None, :]


def twisted_dft(N: int, phi: float) -> NDArray[np.complex128]:
    """Fourier matrix with quasi-periodic boundary phase.

    Entries exp(-2*pi*i*(a+phi)(b+phi)/N)/sqrt(N), mapping position
    components to momentum components.  Symmetric and unitary.
    """
    _check_count("N", N, 1)
    idx = np.arange(N) + phi
    return np.exp(-2j * np.pi * np.outer(idx, idx) / N) / np.sqrt(N)


def coin_matrix(spec: CoinSpec) -> NDArray[np.complex128]:
    """Build the unitary of any CoinSpec; the only coin builder.

    - ``"dft"``: entries exp(2*pi*i*a*b/M)/sqrt(M).  The Hadamard matrix at
      M=2, and U^4 = I for every M.  ``phi`` does not enter.
    - ``"harper"``: the one-period kicked Harper propagator in the momentum
      basis.  ``phi`` enters the discretized coordinates and the
      position<->momentum transform alike: an Aharonov-Bohm flux that breaks
      time-reversal symmetry without touching the classical dynamics.
    - ``"baker"``: the two-block Fourier construction
      B = G_M^{-1} blockdiag(G_{M/2}, G_{M/2}), G_N being ``twisted_dft(N, phi)``.
      At M=2 and the antiperiodic phi = 1/2 it is the Hadamard coin up to
      phase redefinitions of the basis states.
    """
    M, phi = spec.M, spec.resolved_phi
    if spec.kind == "harper":
        return _unitary(_harper_matrix(M, spec.g, spec.tau, phi))
    if spec.kind == "dft":
        idx = np.arange(M)
        return _unitary(np.exp(2j * np.pi * np.outer(idx, idx) / M) / np.sqrt(M))
    half = M // 2
    G_half = twisted_dft(half, phi)
    block = np.zeros((M, M), dtype=np.complex128)
    block[:half, :half] = G_half
    block[half:, half:] = G_half
    # G_M is symmetric, so its inverse is the plain conjugate.
    return _unitary(np.conj(twisted_dft(M, phi)) @ block)


def coin_in_position_basis(U: NDArray[np.complex128], phi: float = 0.0) -> NDArray[np.complex128]:
    """Re-express a coin matrix in the conjugate cell basis.

    Conjugates by the phase-twisted transformation function, turning a
    momentum-basis coin into its position-basis form (and vice versa,
    since the transform is symmetric).  Splitting the index range of the
    rotated matrix partitions the cell along the other coordinate.
    """
    M = U.shape[0]
    F = np.conj(twisted_dft(M, phi))  # F[c, a] = <c|a>
    return _unitary(F @ U @ F.conj().T)
