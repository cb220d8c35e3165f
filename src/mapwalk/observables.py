"""Site-occupation statistics of a walk: distribution, m.s.d., entropy, PR.

The central object is the site probability distribution p_l(t) for a
walker released from site 0, averaged uniformly over the M coin basis
states:

    p_l(t) = (1/M) sum_{a,b} |<l, a| E^t |0, b>|^2

which is the projector-trace form (1/M) tr(P_l E^t P_0 E^{-t}).  The form
(1/M) tr(P_l E^{-t} P_0 E^t) is its mirror image p_{-l}(t); the two agree
only where p_l(t) is mirror symmetric.  Three summary statistics condense p_l(t):

- ``msd``: second moment sum_l p_l d_l^2 with d_l = min(l, L-l), the
  minimal cyclic distance from site 0.
- ``site_entropy``: Shannon entropy in base L, normalized to [0, 1].
- ``participation_ratio``: 1/(L sum_l p_l^2), the occupied fraction of
  sites, in [1/L, 1].

Each is one dot product: msd and PR over the L sites, with no temporary of
length L, the entropy over the nonzero p.  ``run_time_series`` produces all
three at every time step in a single pass over the evolution.  The M
coin-state evolutions are batched into one GEMM per step: the bundle's rows
are the evolved coin-basis starts |0, b>.  At time t the walker can only be
on the sites -t + 2j mod L (the light cone), so the series steps just them
in position space, as a window of min(t + 1, R) rows, R = L // gcd(L, 2),
cycling on the ring once the cone wraps; p_l(t) is their |amplitude|^2,
every other site exactly 0.  Kept distributions are the rows of one
(t_max + 1, L) matrix, so holding any one keeps the whole matrix alive; its
pages are zero-filled on demand, so it is resident in proportion to the cone,
not the ring (dft M=2, L=100003, t_max=200: 4 MB of its 160 MB), unless
transparent huge pages are set to "always".  A series that keeps none reuses
one row.
``site_probabilities`` takes the matrix power E_k^t of the blocks of all L
momenta k and inverse-transforms it: the block oracle.
The reduction order is fixed, so repeated runs are bit-identical.
Classical ensembles share the loop.
"""

from __future__ import annotations

import functools
import math
import mmap
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .coins import coin_matrix, _check_count
from .walk import WalkConfig, MomentumBlockSet, build_momentum_blocks, _apply_blocks, _block_stack

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
        if not isinstance(self.probs, np.ndarray):
            raise ValueError(f"probs: must be a numpy array, got {type(self.probs).__name__}")
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
    d = np.arange(L, dtype=np.float64)
    np.subtract(L, d[L // 2 + 1:], out=d[L // 2 + 1:])  # L - l past the middle, exact
    d *= d
    d.setflags(write=False)
    return d


def msd(dist: SiteDistribution) -> float:
    """Mean squared displacement about site 0, cyclic minimal distance."""
    return float(dist.probs @ _squared_distances(dist.L))


def site_entropy(dist: SiteDistribution) -> float:
    """Shannon entropy of the distribution in base L, in [0, 1]."""
    p = dist.probs[dist.probs > _ENTROPY_FLOOR]
    # adding +0.0 turns the -0.0 of a delta distribution into a canonical 0
    return float(-(p @ np.log(p)) / math.log(dist.L)) + 0.0


def participation_ratio(dist: SiteDistribution) -> float:
    """Occupied fraction of sites: 1/(L sum p^2), in [1/L, 1]."""
    return float(1.0 / (dist.L * (dist.probs @ dist.probs)))


def _window_slices(L: int, t: int, n: int) -> Iterator[tuple[slice, slice]]:
    """(sites, rows): the ring sites -t + 2j mod L of the window rows j < n, as runs of
    every other site; an odd ring's window (n <= L) wraps at most twice."""
    s, j = -t % L, 0
    while j < n:
        k = min(n - j, (L - s + 1) // 2)
        yield slice(s, s + 2 * k, 2), slice(j, j + k)
        s, j = s + 2 * k - L, j + k


def _bundle_site_probs(psi: NDArray[np.complex128], *, t: int, L: int,
                       out: NDArray[np.float64]) -> NDArray[np.float64]:
    """Coin-averaged L-ring site probabilities at time t of the light-cone window ``psi``.

    ``psi`` (the one positional argument: perfbench's transform count unpacks it) has a row
    per site -t + 2j mod L; its |.|^2 is scattered to those sites of ``out``, whose other
    sites must be 0 and stay so."""
    n, M = psi.shape[:2]
    amps = psi.reshape(n, -1).view(np.float64)
    window = np.einsum("ij,ij->i", amps, amps)
    window /= M
    for sites, rows in _window_slices(L, t, n):
        out[sites] = window[rows]
    return out


def _momentum_site_probs(psi: NDArray[np.complex128], *, t: int, L: int) -> NDArray[np.float64]:
    """Coin-averaged site probabilities at time t of the stack E_k^t (L, M, M) of all L momenta,
    inverse-transformed in full (with its 1/L, into <l, a|E^t|0, b>); its sites outside -t..t,
    where the walk cannot be, are 0."""
    amps = np.fft.ifft(psi.reshape(L, -1), axis=0).view(np.float64)
    probs = np.einsum("ij,ij->i", amps, amps) / psi.shape[1]
    probs[t + 1:L - t] = 0.0
    return probs


def site_probabilities(blocks: MomentumBlockSet, t: int) -> SiteDistribution:
    """Distribution p_l(t) of the M coin-basis starts from the powers E_k^t (the oracle).
    ``np.linalg.matrix_power`` holds about four (L, M, M) stacks at its peak: about
    105 MB at M=64, L=400 and 2.6 GB at M=64, L=10**4."""
    _check_count("t", t, 0)
    psi = np.linalg.matrix_power(_block_stack(blocks), t)
    return SiteDistribution(L=blocks.L, probs=_momentum_site_probs(psi, t=t, L=blocks.L), time=t)


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


def _demand_zero(shape: tuple[int, int]) -> NDArray[np.float64]:
    """A writeable float64 zero matrix on private anonymous pages, which the kernel zero-fills
    on demand and numpy gives no huge-page advice: only the pages written become resident,
    and reads of the others map the shared zero page.  The map is freed with its last view."""
    # Windows' mmap has no flags, and its anonymous map is private already
    flags = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape), **flags), np.float64).reshape(shape)


def _cone_distributions(blocks: MomentumBlockSet, t_max: int,
                        keep: bool) -> Iterator[SiteDistribution]:
    """Distributions at t = 0..t_max of the coin-basis starts, stepped on the light-cone window.

    The window steps between two buffers, each one row longer than the most rows it takes.
    Kept distributions are the rows of one (t_max + 1, L) matrix on demand-zero pages, so it
    is resident about in proportion to the cone: each row's written pages, at most 2t + 1
    sites.  Unkept, every distribution is one reused row, valid until the next is drawn:
    resumed, the generator clears the sites its window wrote."""
    L, M = blocks.L, blocks.M
    buffers = np.empty((2, min(t_max, blocks.ring_rows) + 1, M, M), dtype=np.complex128)
    rows = _demand_zero((t_max + 1, L)) if keep else np.zeros((1, L))
    psi = buffers[0, :1]
    psi[0] = np.eye(M)
    for t in range(t_max + 1):
        row = rows[t] if keep else rows[0]
        yield SiteDistribution(L=L, probs=_bundle_site_probs(psi, t=t, L=L, out=row), time=t)
        if not keep:
            for sites, _ in _window_slices(L, t, len(psi)):
                row[sites] = 0.0
        psi = _apply_blocks(blocks, psi, out=buffers[(t + 1) % 2])


def run_time_series(config: WalkConfig, t_max: int,
                    keep_distributions: bool = False,
                    U: NDArray[np.complex128] | None = None) -> WalkTimeSeries:
    """All three observables at every time 0..t_max in one evolution pass.

    The coin matrix is built from ``config.coin`` unless an explicit ``U`` is supplied (it must
    be a unitary matrix of the coin dimension).  The walk is stepped on its light cone.
    """
    _check_count("t_max", t_max, 1)
    if U is None:
        U = coin_matrix(config.coin)
    blocks = build_momentum_blocks(config, U)
    return _time_series(_cone_distributions(blocks, t_max, keep_distributions), t_max,
                        keep_distributions)


def trace_site_probabilities(E: NDArray[np.complex128], L: int, M: int,
                             t: int) -> NDArray[np.float64]:
    """Oracle: p_l(t) = (1/M) tr(P_l E^t P_0 E^{-t}) by dense matrix algebra.

    Deliberately independent of the block evolution path: builds the
    projector matrices explicitly and uses matrix powers.
    """
    _check_count("t", t, 0)
    dim = L * M
    if E.shape != (dim, dim):
        raise ValueError(f"operator shape {E.shape} != {(dim, dim)}")
    Et = np.linalg.matrix_power(E, t)
    P0 = np.zeros((dim, dim), dtype=np.complex128)
    P0[:M, :M] = np.eye(M)
    core = Et @ P0 @ Et.conj().T
    probs = np.empty(L)
    for l in range(L):
        Pl = np.zeros((dim, dim), dtype=np.complex128)
        Pl[l * M:(l + 1) * M, l * M:(l + 1) * M] = np.eye(M)
        probs[l] = np.real(np.trace(Pl @ core)) / M
    return probs
