"""Site-occupation statistics of a walk: distribution, m.s.d., entropy, PR.

The central object is the site probability distribution p_l(t) for a
walker released from site 0, averaged uniformly over the M coin basis
states:

    p_l(t) = (1/M) sum_{a,b} |<l, a| E^t |0, b>|^2

which coincides with the projector-trace form (1/M) tr(P_l E^{-t} P_0 E^t)
for every coin shipped here.  Three summary statistics condense p_l(t):

- ``msd``: second moment sum_l p_l d_l^2 with d_l = min(l, L-l), the
  minimal cyclic distance from site 0.
- ``site_entropy``: Shannon entropy in base L, normalized to [0, 1].
- ``participation_ratio``: 1/(L sum_l p_l^2), the occupied fraction of
  sites, in [1/L, 1].

``run_time_series`` produces all three at every time step in a single
pass over the evolution.  The M coin-state evolutions are batched into
one GEMM per step: the bundle's rows are the evolved coin-basis starts
|0, b>.  At time t the walker can only be on the sites -t, -t + 2, ..., t
(the light cone), so while those 2t + 1 sites fit the ring the series
steps just them in position space, as a window of t + 1 rows, and p_l(t)
is their |amplitude|^2 with no transform; every other site is exactly 0.
Once the cone wraps, the window is put on the L-ring and Fourier
transformed once, and the bundle (E_k^t)^T of one M x M block per lattice
momentum k is stepped on, each p_l(t) then taking a full inverse FFT.
``site_probabilities`` steps all L momenta from t = 0: the block oracle.
The reduction order is fixed, so repeated runs are bit-identical.
Classical ensembles share the loop.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import count, islice

import numpy as np
from numpy.typing import NDArray

from .coins import coin_matrix
from .walk import WalkConfig, MomentumBlockSet, build_momentum_blocks, _apply_blocks

__all__ = [
    "SiteDistribution",
    "WalkTimeSeries",
    "site_probabilities",
    "msd",
    "site_entropy",
    "participation_ratio",
    "run_time_series",
    "trace_site_probabilities",
]

_NORM_TOL = 1e-10

#: Probabilities below this are treated as exact zeros in the entropy sum.
_ENTROPY_FLOOR = 1e-300


@dataclass(frozen=True)
class SiteDistribution:
    """Probability of finding the walker at each lattice site at one time."""

    L: int
    probs: NDArray[np.float64]
    time: int = 0

    def __post_init__(self) -> None:
        if self.probs.shape != (self.L,):
            raise ValueError(f"probs shape {self.probs.shape} != ({self.L},) at time {self.time}")
        p = self.probs
        # "not inside" rather than "outside": every comparison with a NaN is false
        if not (p.min(initial=0.0) >= 0.0 and p.max(initial=0.0) <= 1.0 + _NORM_TOL):
            raise ValueError(f"probabilities must lie in [0, 1] at time {self.time}")
        total = float(p.sum())
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"distribution at time {self.time} sums to {total!r}, "
                             f"expected 1 within {_NORM_TOL}")


@dataclass(frozen=True)
class WalkTimeSeries:
    """Summary statistics per time step, with optional retained distributions."""

    times: NDArray[np.int64]
    msd: NDArray[np.float64]
    entropy: NDArray[np.float64]
    pr: NDArray[np.float64]
    distributions: list[SiteDistribution] | None = field(default=None)

    def __post_init__(self) -> None:
        n = len(self.times)
        for name in ("msd", "entropy", "pr"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"series {name} length != len(times)")
        if self.distributions is not None and len(self.distributions) != n:
            raise ValueError("distributions length != len(times)")


@functools.lru_cache(maxsize=8)
def _squared_distances(L: int) -> NDArray[np.float64]:
    """min(l, L - l)^2 for l = 0..L-1, read-only: the squared cyclic distance from site 0."""
    d = np.minimum(np.arange(L), L - np.arange(L)).astype(float)
    d *= d
    d.setflags(write=False)
    return d


def msd(dist: SiteDistribution) -> float:
    """Mean squared displacement about site 0, cyclic minimal distance."""
    return float(np.sum(dist.probs * _squared_distances(dist.L)))


def site_entropy(dist: SiteDistribution) -> float:
    """Shannon entropy of the distribution in base L, in [0, 1]."""
    p = dist.probs
    mask = p > _ENTROPY_FLOOR
    # adding +0.0 turns the -0.0 of a delta distribution into a canonical 0
    return float(-np.sum(p[mask] * np.log(p[mask])) / math.log(dist.L)) + 0.0


def participation_ratio(dist: SiteDistribution) -> float:
    """Occupied fraction of sites: 1/(L sum p^2), in [1/L, 1]."""
    return float(1.0 / (dist.L * np.sum(dist.probs**2)))


def _initial_bundle(L: int, M: int) -> NDArray[np.complex128]:
    """E_k^0 = 1 in every momentum sector, stacked.

    Shape (L, M, M): axis 0 is lattice momentum, axis 1 indexes which
    initial coin state |0, b> the row belongs to, axis 2 the coin index a.
    Stepping keeps (E_k^t)^T here, and the inverse FFT (with its 1/L) turns
    that into the site amplitudes <l, a|E^t|0, b>.
    """
    return np.broadcast_to(np.eye(M, dtype=np.complex128), (L, M, M)).copy()


def _bundle_site_probs(psi: NDArray[np.complex128], *, t: int, L: int) -> NDArray[np.float64]:
    """Coin-averaged L-ring site probabilities at time t of the light-cone window or the bundle.

    ``psi`` (the one positional argument: perfbench's transform count unpacks it) is either the
    window (t + 1 < L rows, the sites -t, -t + 2, ..., t), whose |.|^2 is scattered to those
    sites with every other site exactly 0, or the bundle (E_k^t)^T of all L momenta, which is
    inverse-transformed in full; its sites outside -t..t, where the walk cannot be, are set to 0.
    """
    n, M = psi.shape[:2]
    probs = np.zeros(L)
    if n < L:
        amps = psi.reshape(n, -1).view(np.float64)
        probs[np.arange(-t, t + 1, 2) % L] = np.einsum("ij,ij->i", amps, amps) / M
        return probs
    amps = np.fft.ifft(psi.reshape(L, -1), axis=0).view(np.float64)
    np.einsum("ij,ij->i", amps, amps, out=probs)
    probs /= M
    probs[t + 1:L - t] = 0.0
    return probs


def _bundle_states(blocks: MomentumBlockSet) -> Iterator[NDArray[np.complex128]]:
    """The one quantum stepper: the bundle at t = 0, 1, 2, ..., stepped only when resumed."""
    psi = _initial_bundle(blocks.L, blocks.M)
    while True:
        yield psi
        psi = _apply_blocks(blocks, psi)


def site_probabilities(blocks: MomentumBlockSet, t: int) -> SiteDistribution:
    """Distribution p_l(t) of the M coin-basis starts with all L momenta stepped (the oracle)."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    psi = next(islice(_bundle_states(blocks), t, None))  # no site transform before t
    return SiteDistribution(L=blocks.L, probs=_bundle_site_probs(psi, t=t, L=blocks.L), time=t)


def _check_t_max(t_max: int) -> None:
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")


def _time_series(dists: Iterator[SiteDistribution], t_max: int,
                 keep_distributions: bool) -> WalkTimeSeries:
    """The one series loop: statistics of the distributions at t = 0..t_max.

    ``dists`` yields p(0), p(1), ...; it is resumed only t_max times (>= 1, checked first)."""
    stats = np.empty((3, t_max + 1))
    kept: list[SiteDistribution] | None = [] if keep_distributions else None
    for t, dist in zip(range(t_max + 1), dists):
        stats[:, t] = msd(dist), site_entropy(dist), participation_ratio(dist)
        if kept is not None:
            kept.append(dist)
    return WalkTimeSeries(times=np.arange(t_max + 1, dtype=np.int64), msd=stats[0],
                          entropy=stats[1], pr=stats[2], distributions=kept)


def _cone_distributions(blocks: MomentumBlockSet, t_max: int) -> Iterator[SiteDistribution]:
    """Distributions at t = 0, 1, 2, ... of the coin-basis starts: the window, then the ring.

    The window steps between two buffers, each of the most rows it takes up to t_max.  Once
    the next cone 2t + 3 exceeds L, the window's sites are distinct mod L, so it is put on the
    L-ring and Fourier transformed to the bundle (E_k^t)^T, which is stepped from then on."""
    L, M = blocks.L, blocks.M
    buffers = np.empty((2, min(t_max + 1, (L + 1) // 2), M, M), dtype=np.complex128)
    psi = buffers[0, :1]
    psi[0] = np.eye(M)
    for t in count():
        yield SiteDistribution(L=L, probs=_bundle_site_probs(psi, t=t, L=L), time=t)
        if len(psi) == L:
            psi = _apply_blocks(blocks, psi)
        elif 2 * t + 3 <= L:
            psi = _apply_blocks(blocks, psi, out=buffers[(t + 1) % 2])
        else:
            ring = np.zeros((L, M, M), dtype=np.complex128)
            ring[np.arange(-t, t + 1, 2) % L] = psi
            psi = _apply_blocks(blocks, np.fft.fft(ring, axis=0))


def run_time_series(config: WalkConfig, t_max: int,
                    keep_distributions: bool = False,
                    U: NDArray[np.complex128] | None = None) -> WalkTimeSeries:
    """All three observables at every time 0..t_max in one evolution pass.

    The coin matrix is built from ``config.coin`` unless an explicit ``U`` is supplied (it must
    be a unitary matrix of the coin dimension).  The walk is stepped on its light cone while that
    fits the ring, then on all L momenta.
    """
    _check_t_max(t_max)
    if U is None:
        U = coin_matrix(config.coin)
    blocks = build_momentum_blocks(config, U)
    return _time_series(_cone_distributions(blocks, t_max), t_max, keep_distributions)


def trace_site_probabilities(E: NDArray[np.complex128], L: int, M: int,
                             t: int) -> NDArray[np.float64]:
    """Oracle: p_l(t) = (1/M) tr(P_l E^{-t} P_0 E^t) by dense matrix algebra.

    Deliberately independent of the block evolution path: builds the
    projector matrices explicitly and uses matrix powers.
    """
    dim = L * M
    if E.shape != (dim, dim):
        raise ValueError(f"operator shape {E.shape} != {(dim, dim)}")
    Et = np.linalg.matrix_power(E, t)
    P0 = np.zeros((dim, dim), dtype=np.complex128)
    P0[:M, :M] = np.eye(M)
    core = Et.conj().T @ P0 @ Et
    probs = np.empty(L)
    for l in range(L):
        Pl = np.zeros((dim, dim), dtype=np.complex128)
        Pl[l * M:(l + 1) * M, l * M:(l + 1) * M] = np.eye(M)
        probs[l] = np.real(np.trace(Pl @ core)) / M
    return probs
