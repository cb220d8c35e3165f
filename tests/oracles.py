"""Independent oracles for the walk, written from the definitions, apart from the run path.

One step applies the coin U, then shifts coin rows 0..M/2-1 to the left neighbour and the
rest to the right.  In the lattice momentum basis <n|k> = exp(2 pi i n k / L)/sqrt(L) the left
shift is the phase e^{+2 pi i k/L}, so the walk is L blocks E_k = D_k U.  The block oracle
takes the matrix power E_k^t of their (L, M, M) stack; ``np.linalg.matrix_power`` holds about
four such stacks at its peak: about 105 MB at M=64, L=400 and 2.6 GB at M=64, L=10**4.
"""

import numpy as np

from mapwalk import SiteDistribution
from mapwalk.coins import _check_count


def block_stack(blocks):
    """The (L, M, M) stack of E_k = D_k U of a block set (its ``coin`` U and ``L``):
    D_k is e^{+2 pi i k/L} on the left-hopping rows 0..M/2-1 and e^{-2 pi i k/L} on the rest."""
    signs = np.repeat([1.0, -1.0], blocks.M // 2)
    phases = np.exp(2j * np.pi * np.outer(np.arange(blocks.L), signs) / blocks.L)
    return phases[:, :, None] * blocks.coin


def momentum_to_site(psi):
    """Inverse lattice Fourier transform along axis 0, psi(k) -> psi(n), unitary."""
    return np.fft.ifft(psi, axis=0) * np.sqrt(psi.shape[0])


def momentum_site_probs(psi, *, t, L):
    """Coin-averaged site probabilities at time t of the stack E_k^t (L, M, M), inverse-
    transformed in full into <l, a|E^t|0, b>; its sites outside -t..t, out of reach, are 0."""
    amps = np.fft.ifft(psi.reshape(L, -1), axis=0).view(np.float64)
    probs = np.einsum("ij,ij->i", amps, amps) / psi.shape[1]
    probs[t + 1:L - t] = 0.0
    return probs


def site_probabilities(blocks, t):
    """Distribution p_l(t) of the M coin-basis starts from the powers E_k^t."""
    _check_count("t", t, 0)
    psi = np.linalg.matrix_power(block_stack(blocks), t)
    return SiteDistribution(L=blocks.L, probs=momentum_site_probs(psi, t=t, L=blocks.L), time=t)


def harper_matrix_direct(M, g, tau, phi):
    """Harper propagator <a|U|b> = e^{-i tau M cos(2 pi (b+phi)/M)} <a|kick|b>, the kick
    diagonal in position and carried to momentum by the explicit F[c, a] = <c|a>."""
    cells = np.arange(M) + phi
    F = np.exp(2j * np.pi * np.outer(cells, cells) / M) / np.sqrt(M)
    kick = np.exp(-1j * tau * g * M * np.cos(2 * np.pi * cells / M))
    kinetic = np.exp(-1j * tau * M * np.cos(2 * np.pi * cells / M))
    return F.conj().T @ (kick[:, None] * F) * kinetic[None, :]
