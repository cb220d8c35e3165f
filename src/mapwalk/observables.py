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
up to t_max the walk on a ring of n >= 2 t_max + 1 sites is the same, so
the series steps only the walk on the smallest such ring of 2^a 3^b sites
(or on the L-ring, where that is no smaller).  The site transform
inverse-transforms only as many of its momenta as the cone needs and
writes exact zeros elsewhere: a wide bundle's 2t + 1 cone sites come from
one product by rows of the inverse DFT, a narrow bundle's from an FFT.
``site_probabilities`` steps all L momenta: the unfolded oracle.  The
reduction order is fixed, so repeated runs are bit-identical.  Classical
ensembles share the loop.
"""

from __future__ import annotations

import functools
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

#: The cone transform is one product by a partial inverse DFT from this many columns (M^2)
#: of the bundle and up to this many cone sites 2t + 1; below, or beyond, the FFT is faster
#: (measured on 2 Xeon cores with OpenBLAS).
_PRODUCT_MIN_COLUMNS = 1024
_PRODUCT_MAX_SITES = 97


@dataclass(frozen=True)
class SiteDistribution:
    """Probability of finding the walker at each lattice site at one time."""

    L: int
    probs: NDArray[np.float64]
    time: int = 0

    def __post_init__(self) -> None:
        if self.probs.shape != (self.L,):
            raise ValueError(f"probs shape {self.probs.shape} != ({self.L},)")
        p = self.probs
        # "not inside" rather than "outside": every comparison with a NaN is false
        if not (p.min(initial=0.0) >= 0.0 and p.max(initial=0.0) <= 1.0 + _NORM_TOL):
            raise ValueError("probabilities must lie in [0, 1]")
        total = float(p.sum())
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


def _cone_length(L: int, t: int) -> int:
    """The smallest divisor of L that is at least min(2t + 1, L), for a time t >= 0."""
    pairs = ((i, L // i) for i in range(1, math.isqrt(L) + 1) if L % i == 0)
    return min(d for pair in pairs for d in pair if d >= min(2 * t + 1, L))


def _ring_size(L: int, t_max: int) -> int:
    """The smallest 2^a 3^b >= m = 2 t_max + 1, or L if that is not below L.

    For each b the least a is the bit length of ceil(m / 3^b) - 1; it is 0 once 3^b >= m,
    which holds for some b below the bit length of m."""
    m = 2 * t_max + 1
    n = min(3**b << ((m - 1) // 3**b).bit_length() for b in range(m.bit_length()))
    return min(n, L)


def _bundle_site_probs(psi: NDArray[np.complex128], *, t: int, L: int) -> NDArray[np.float64]:
    """Coin-averaged L-ring site probabilities of the bundle (E_k^t)^T, transforming the cone.

    ``psi`` (the one positional argument: perfbench's transform count unpacks it) holds the n
    momenta of an n-ring walk, the L-ring walk while the cone fits (n = L once it wraps).  At
    time t the walker is on -t..t.  The length-N inverse DFT of every (n/N)-th momentum sums
    each site's amplitude with those N, 2N, ... away; with N >= 2t + 1 at most one site of each
    class is in the cone, so the cone is exact and every other site exactly 0.  Wide bundles
    take the 2t + 1 cone sites of that DFT as one product by its rows, the others its FFT.
    """
    n, M = psi.shape[:2]
    N = _cone_length(n, t)
    picked = psi[::n // N].reshape(N, -1)
    if picked.shape[1] >= _PRODUCT_MIN_COLUMNS and 2 * t + 1 <= min(N, _PRODUCT_MAX_SITES):
        # the rows of the sites 0..t, then -t..-1; the phase index k*l is reduced mod N exactly
        sites = np.r_[0:t + 1, -t:0]
        twiddles = np.exp(2j * np.pi / N * np.arange(N)) / N
        amps = twiddles[np.outer(sites, np.arange(N)) % N] @ picked
    else:
        # the FFT writes into the head of a bundle-sized block, so that every step asks the
        # allocator for the same size and the growing cone leaves no holes in the heap
        amps = np.fft.ifft(picked, axis=0, out=np.empty_like(psi).reshape(n, -1)[:N])
    amps = amps.view(np.float64)
    probs = np.empty(L)
    m = len(amps)  # N or 2t + 1, with the sites -t..-1 last
    cone = probs[:m]
    np.einsum("ij,ij->i", amps, amps, out=cone)
    cone /= M
    probs[L - t:] = cone[m - t:]  # the sites -t..-1 to the end of the ring
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
    match the coin dimension).  Only the walk on the ring of ``_ring_size(L, t_max)`` sites is
    stepped: no path of t_max steps wraps it, so up to t_max it is the L-ring walk.
    """
    _check_t_max(t_max)
    if U is None:
        U = coin_matrix(config.coin)
    ring = build_momentum_blocks(WalkConfig(L=_ring_size(config.L, t_max), coin=config.coin), U)
    return _time_series(_bundle_distributions(ring, config.L), t_max, keep_distributions)


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
