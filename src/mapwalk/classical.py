"""Deterministic classical multi-map walks over point ensembles.

The phase space is a ring of L identical unit cells.  One walk step
applies the intra-cell map to every point and then shifts each point to
a neighbouring cell according to which half of the cell it landed in:
the upper half (partition coordinate >= 1/2) moves one cell to the
left, the lower half one cell to the right.  The partition coordinate is
p for the horizontal splicing (the default) and q for the vertical one.

Because the cell maps are measure preserving, a uniform filling of one
cell turns the baker multi-map into an unbiased Bernoulli walk, while
the rotation multi-map returns every point to its start after exactly
four steps.  No boundary phase appears anywhere in this module: the
phase is a purely quantum parameter.

Evolution is vectorized over the ensemble and bitwise deterministic for
a fixed seed; points are independent, so a fixed ensemble may be split
into chunks stepped concurrently with bit-identical results (a different
seed per chunk would change the fill, and so the result).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .cellmaps import rotation_map, baker_map, harper_map
from .coins import CoinSpec, _check_kick
from .observables import SiteDistribution, WalkTimeSeries, _check_t_max, _time_series
# bound here as well because perfbench traces the statistics in this namespace
from .observables import msd, site_entropy, participation_ratio  # noqa: F401

__all__ = [
    "CellMap",
    "CellPartition",
    "PhaseEnsemble",
    "classical_counterpart",
    "multi_map_step",
    "classical_site_distribution",
    "phase_portrait",
    "classical_msd_series",
]

MAP_KINDS = ("rotation", "baker", "harper")


@dataclass(frozen=True)
class CellMap:
    """Intra-cell dynamics selector: rotation, baker, or harper(g, tau)."""

    kind: str
    g: float = 0.0
    tau: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in MAP_KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}; expected one of {MAP_KINDS}")
        _check_kick(self.g, self.tau)

    def apply(self, q: NDArray[np.float64], p: NDArray[np.float64]):
        if self.kind == "rotation":
            return rotation_map(q, p)
        if self.kind == "baker":
            return baker_map(q, p)
        return harper_map(q, p, self.g, self.tau)


@dataclass(frozen=True)
class CellPartition:
    """Half-cell splicing rule deciding the shift direction.

    ``orientation="horizontal"`` tests the p coordinate (top part left,
    bottom part right), ``"vertical"`` tests q.  The halves are half
    open: a point exactly at 1/2 belongs to the upper half and shifts
    left, mirroring the baker map's branch at q = 1/2.
    """

    orientation: str = "horizontal"

    def __post_init__(self) -> None:
        if self.orientation not in ("horizontal", "vertical"):
            raise ValueError(f"unknown orientation {self.orientation!r}")


def classical_counterpart(coin: CoinSpec) -> CellMap:
    """Classical cell map underlying a quantum coin.

    The boundary phase of the coin has no classical counterpart, so it
    simply cannot be carried over.
    """
    if coin.kind == "dft":
        return CellMap("rotation")
    if coin.kind == "baker":
        return CellMap("baker")
    return CellMap("harper", g=coin.g, tau=coin.tau)


@dataclass(frozen=True)
class PhaseEnsemble:
    """A set of phase-space points (cell, q, p) on the L-cell ring."""

    cells: NDArray[np.int64]
    q: NDArray[np.float64]
    p: NDArray[np.float64]
    L: int
    time: int = 0

    def __post_init__(self) -> None:
        for name in ("cells", "q", "p"):  # the step and the cell count need 1-D arrays
            ndim = np.ndim(getattr(self, name))
            if ndim != 1:
                raise ValueError(f"{name}: must be a 1-D array, got {ndim} dimensions")
        # the shift indexes by the cells; the maps floor and compare q and p
        for name, kind, what in (("cells", np.integer, "integers"),
                                 ("q", np.floating, "real floats"), ("p", np.floating, "real floats")):
            dtype = np.asarray(getattr(self, name)).dtype
            if not np.issubdtype(dtype, kind):
                raise ValueError(f"{name}: must hold {what}, got dtype {dtype}")
        n = len(self.cells)
        if len(self.q) != n or len(self.p) != n:
            raise ValueError("cells, q, p must have equal lengths")
        if n == 0:
            raise ValueError("ensemble must contain at least one point")
        if self.L < 2:
            raise ValueError(f"lattice size L must be >= 2, got {self.L}")
        # min/max reductions make no mask arrays; a NaN fails every comparison
        if not (0.0 <= self.q.min() and self.q.max() < 1.0
                and 0.0 <= self.p.min() and self.p.max() < 1.0):
            raise ValueError("q and p must lie on the unit torus [0, 1)")
        if not (0 <= self.cells.min() and self.cells.max() < self.L):
            raise ValueError("cell indices must lie in 0..L-1")

    def __len__(self) -> int:
        return len(self.cells)

    @classmethod
    def uniform_fill(cls, L: int, n_points: int, seed: int = 0) -> "PhaseEnsemble":
        """Seeded uniform random filling of cell 0."""
        rng = np.random.default_rng(seed)
        return cls(cells=np.zeros(n_points, dtype=np.int64),
                   q=rng.random(n_points), p=rng.random(n_points), L=L)

    @classmethod
    def grid_fill(cls, L: int, side: int) -> "PhaseEnsemble":
        """Midpoint grid filling (side x side) of cell 0.

        With a power-of-two side this aligns with the baker map's dyadic
        partitions, making the multi-baker walk exactly binomial.
        """
        centers = (np.arange(side) + 0.5) / side
        qq, pp = np.meshgrid(centers, centers, indexing="ij")
        n = side * side
        return cls(cells=np.zeros(n, dtype=np.int64),
                   q=qq.reshape(n), p=pp.reshape(n), L=L)


def multi_map_step(ens: PhaseEnsemble, cell_map: CellMap,
                   partition: CellPartition = CellPartition()) -> PhaseEnsemble:
    """One multi-map step: intra-cell dynamics, then the half-cell shift.

    Returns a new ensemble; ``ens`` is left as it was.
    """
    q, p = cell_map.apply(ens.q, ens.p)
    coord = p if partition.orientation == "horizontal" else q
    # look up cell + 1 (lower half) or cell - 1 (upper half) in [right | left] neighbours,
    # which wraps the ring without an integer modulo
    sites = np.arange(ens.L)
    neighbours = np.concatenate((np.roll(sites, -1), np.roll(sites, 1)))
    index = np.multiply(coord >= 0.5, ens.L)
    index += ens.cells
    cells = neighbours[index]
    return replace(ens, cells=cells, q=np.asarray(q), p=np.asarray(p),
                   time=ens.time + 1)


def classical_site_distribution(ens: PhaseEnsemble) -> SiteDistribution:
    """Fraction of ensemble points per cell, normalized by construction."""
    counts = np.bincount(ens.cells, minlength=ens.L)
    return SiteDistribution(L=ens.L, probs=counts / len(ens), time=ens.time)


def phase_portrait(cell_map: CellMap, n_trajectories: int, n_steps: int,
                   seed: int = 0) -> NDArray[np.float64]:
    """Orbits of seeded random initial conditions on the unit torus.

    Returns an (n_trajectories * n_steps, 2) array of visited (q, p)
    points, the initial condition included, deterministic for a fixed
    seed.  Suitable for scatter plotting.
    """
    if n_trajectories < 1 or n_steps < 1:
        raise ValueError("n_trajectories and n_steps must be positive")
    rng = np.random.default_rng(seed)
    q = rng.random(n_trajectories)
    p = rng.random(n_trajectories)
    out = np.empty((n_steps, n_trajectories, 2))
    for t in range(n_steps):
        out[t, :, 0] = q
        out[t, :, 1] = p
        if t < n_steps - 1:
            q, p = cell_map.apply(q, p)
    return out.reshape(n_steps * n_trajectories, 2)


def _ensemble_distributions(ens: PhaseEnsemble, cell_map: CellMap,
                            partition: CellPartition) -> Iterator[SiteDistribution]:
    """Distributions at t = 0, 1, 2, ... of the multi-map walk of ``ens``."""
    while True:
        yield classical_site_distribution(ens)
        ens = multi_map_step(ens, cell_map, partition)


def classical_msd_series(cell_map: CellMap, partition: CellPartition, L: int,
                         t_max: int, n_points: int = 100_000, seed: int = 0,
                         keep_distributions: bool = False) -> WalkTimeSeries:
    """Observable time series for the multi-map walk started in cell 0.

    The initial ensemble is a seeded uniform fill of cell 0.  The
    statistics come from the same series loop as the quantum walk.
    """
    _check_t_max(t_max)  # before the fill, which may be large
    # the generator holds the only reference to each ensemble, freeing it once stepped
    dists = _ensemble_distributions(PhaseEnsemble.uniform_fill(L, n_points, seed=seed),
                                    cell_map, partition)
    return _time_series(dists, t_max, keep_distributions)
