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
one GEMM per step: the bundle holds (E_k^t)^T, one M x M block per
lattice momentum k whose rows are the evolved coin-basis starts |0, b>.
At time t the walker can only be on the sites -t..t (the light cone), and
up to t_max the walk on a ring of N >= 2 t_max + 1 sites is the same, so
the series steps only the momenta of the smallest such ring dividing L,
and the site transform inverse-FFTs only as many as the cone needs and
writes exact zeros elsewhere.  ``site_probabilities`` steps all L momenta:
the unfolded oracle.  The reduction order is fixed, so repeated runs are
bit-identical.  Classical ensembles share the loop.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice

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
            raise ValueError(f"probs shape {self.probs.shape} != ({self.L},)")
        if np.any(self.probs < 0.0) or np.any(self.probs > 1.0 + _NORM_TOL):
            raise ValueError("probabilities must lie in [0, 1]")
        total = float(self.probs.sum())
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"distribution sums to {total!r}, expected 1 within {_NORM_TOL}")


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


def msd(dist: SiteDistribution) -> float:
    """Mean squared displacement about site 0, cyclic minimal distance."""
    d = np.minimum(np.arange(dist.L), dist.L - np.arange(dist.L))
    return float(np.sum(dist.probs * d.astype(float) ** 2))


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


def _cone_length(L: int, t: int) -> int:
    """The smallest divisor of L that is at least min(2t + 1, L), for a time t >= 0."""
    pairs = ((i, L // i) for i in range(1, math.isqrt(L) + 1) if L % i == 0)
    return min(d for pair in pairs for d in pair if d >= min(2 * t + 1, L))


def _bundle_site_probs(psi: NDArray[np.complex128], *, t: int, L: int) -> NDArray[np.float64]:
    """Coin-averaged L-ring site probabilities of the bundle (E_k^t)^T, transforming the cone.

    ``psi`` (the one positional argument: perfbench's transform count unpacks it) holds the n
    momenta in (L/n)Z: the n-ring walk, the L-ring walk while the cone fits.  At time t the
    walker is on -t..t.  The length-N inverse FFT of every (n/N)-th momentum sums each site's
    amplitude with those N, 2N, ... away; with N >= 2t + 1 at most one site of each class is in
    the cone, so the cone is exact and every other site exactly 0 (N = n = L once it wraps).
    """
    n, M = psi.shape[:2]
    N = _cone_length(n, t)
    # the FFT writes into the head of a bundle-sized block, so that every step asks the
    # allocator for the same size and the growing cone leaves no holes in the heap
    amps = np.fft.ifft(psi[::n // N], axis=0, out=np.empty_like(psi)[:N])
    amps = amps.reshape(N, -1).view(np.float64)
    probs = np.empty(L)
    cone = probs[:N]
    np.einsum("ij,ij->i", amps, amps, out=cone)
    cone /= M
    probs[L - t:] = cone[N - t:]  # the sites -t..-1 to the end of the ring
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


def _bundle_distributions(blocks: MomentumBlockSet, L: int) -> Iterator[SiteDistribution]:
    """Distributions on the L-ring at t = 0, 1, 2, ... of the block-evolved coin-basis starts."""
    for t, psi in enumerate(_bundle_states(blocks)):
        yield SiteDistribution(L=L, probs=_bundle_site_probs(psi, t=t, L=L), time=t)


def run_time_series(config: WalkConfig, t_max: int,
                    keep_distributions: bool = False,
                    U: NDArray[np.complex128] | None = None) -> WalkTimeSeries:
    """All three observables at every time 0..t_max in one evolution pass.

    The coin matrix is built from ``config.coin`` unless an explicit ``U`` is supplied (it must
    match the coin dimension).  Only the momenta of the ring of ``_cone_length(L, t_max)`` sites
    are stepped: up to t_max that walk is the L-ring walk.
    """
    _check_t_max(t_max)
    if U is None:
        U = coin_matrix(config.coin)
    blocks, L = build_momentum_blocks(config, U), config.L
    ring = MomentumBlockSet(coin=blocks.coin, phases=blocks.phases[::L // _cone_length(L, t_max)])
    return _time_series(_bundle_distributions(ring, L), t_max, keep_distributions)


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
