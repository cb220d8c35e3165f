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
a fixed seed.  Points are independent, so the cell maps' block driver
steps them in blocks on concurrent threads, bit for bit; it runs the
half-cell shift too, so a pure step allocates only its three outputs.
Each point's image depends on that point alone, so a step may also write
it over the point (``in_place=True``, the maps' ``out=``): a series steps
the fill it owns in place and holds one ensemble, not two.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .cellmaps import _run_blocks, rotation_map, baker_map, harper_map
from .coins import CoinSpec, _check_count, _check_kick
from .observables import SiteDistribution, WalkTimeSeries, _time_series
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
            raise ValueError(f"kind: must be one of {', '.join(MAP_KINDS)}, got {self.kind!r}")
        _check_kick(self.g, self.tau)

    def apply(self, q: NDArray[np.float64], p: NDArray[np.float64], *, out=None):
        """The image (q', p'), new or written into ``out=(q_out, p_out)`` as the maps do."""
        if self.kind == "rotation":
            return rotation_map(q, p, out=out)
        if self.kind == "baker":
            return baker_map(q, p, out=out)
        return harper_map(q, p, self.g, self.tau, out=out)


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
            raise ValueError(f"orientation: must be one of horizontal, vertical, "
                             f"got {self.orientation!r}")


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
        # the step and the cell count need 1-D arrays: the shift indexes by the cells,
        # the maps floor and compare q and p
        for name, kind, what in (("cells", np.integer, "integers"),
                                 ("q", np.floating, "real floats"), ("p", np.floating, "real floats")):
            value = getattr(self, name)
            if not isinstance(value, np.ndarray):
                raise ValueError(f"{name}: must be a numpy array, got {type(value).__name__}")
            if value.ndim != 1:
                raise ValueError(f"{name}: must be a 1-D array, got {value.ndim} dimensions")
            if not np.issubdtype(value.dtype, kind):
                raise ValueError(f"{name}: must hold {what}, got dtype {value.dtype}")
        n = len(self.cells)
        if len(self.q) != n or len(self.p) != n:
            raise ValueError(f"q, p: lengths {len(self.q)}, {len(self.p)} != len(cells) = {n}")
        if n == 0:
            raise ValueError("cells: the ensemble must contain at least one point")
        _check_count("L", self.L, 2)
        # min/max reductions make no mask arrays; a NaN fails every comparison
        if not (0.0 <= self.q.min() and self.q.max() < 1.0
                and 0.0 <= self.p.min() and self.p.max() < 1.0):
            raise ValueError("q, p: must lie on the unit torus [0, 1)")
        if not (0 <= self.cells.min() and self.cells.max() < self.L):
            raise ValueError(f"cells: indices must lie in 0..{self.L - 1}")

    def __len__(self) -> int:
        return len(self.cells)

    @classmethod
    def uniform_fill(cls, L: int, n_points: int, seed: int = 0) -> "PhaseEnsemble":
        """Seeded uniform random filling of cell 0."""
        _check_count("n_points", n_points, 1)
        _check_count("seed", seed, 0)
        rng = np.random.default_rng(seed)
        return cls(cells=np.zeros(n_points, dtype=np.int64),
                   q=rng.random(n_points), p=rng.random(n_points), L=L)

    @classmethod
    def grid_fill(cls, L: int, side: int) -> "PhaseEnsemble":
        """Midpoint grid filling (side x side) of cell 0.

        With a power-of-two side this aligns with the baker map's dyadic
        partitions, making the multi-baker walk exactly binomial.
        """
        _check_count("side", side, 1)
        centers = (np.arange(side) + 0.5) / side
        qq, pp = np.meshgrid(centers, centers, indexing="ij")
        return cls(cells=np.zeros(side * side, dtype=np.int64), q=qq.ravel(), p=pp.ravel(), L=L)


def multi_map_step(ens: PhaseEnsemble, cell_map: CellMap,
                   partition: CellPartition = CellPartition(), *,
                   in_place: bool = False) -> PhaseEnsemble:
    """One multi-map step: intra-cell dynamics, then the half-cell shift.

    Returns a new ensemble; ``ens`` is left as it was.  With ``in_place=True``
    the step maps into ``ens.q`` and ``ens.p``, which must be writeable arrays of one float
    dtype that share no memory, and shifts into ``ens.cells``, which must be a writeable
    int64 array, and returns those same arrays at ``ens.time + 1``; ``ens`` then holds the
    stepped points at its old time.
    """
    if in_place:
        if not (ens.cells.dtype == np.int64 and ens.cells.flags.writeable):
            raise ValueError(f"cells: must be a writeable int64 array to step in place, "
                             f"got dtype {ens.cells.dtype}")
        if not (ens.q.dtype == ens.p.dtype and ens.q.flags.writeable and ens.p.flags.writeable):
            got = ", ".join(("" if x.flags.writeable else "read-only ") + str(x.dtype)
                            for x in (ens.q, ens.p))
            raise ValueError(f"q, p: must be writeable arrays of one float dtype to step in "
                             f"place, got {got}")
        if np.shares_memory(ens.q, ens.p):
            raise ValueError("q, p: must share no memory to step in place")
    q, p = cell_map.apply(ens.q, ens.p, out=(ens.q, ens.p) if in_place else None)
    coord = p if partition.orientation == "horizontal" else q
    # cell + 1 (lower half) or cell - 1 (upper half) from [right | left] neighbours; cells in
    # 0..L-1 keep every index in range, so mode "clip" can skip the default mode's buffer
    neighbours = (np.arange(2 * ens.L, dtype=np.int64) + np.repeat([1, -1], ens.L)) % ens.L
    cells = ens.cells if in_place else np.empty(len(ens), np.int64)

    def shift(block: slice, index: NDArray[np.int64]) -> None:
        # the block's old cells are read into the index before its new cells are written
        np.greater_equal(coord[block], 0.5, out=index)
        index *= ens.L
        # any integer dtype of cells adds as int64; uint64 + int64 alone would promote to float
        np.add(index, ens.cells[block], out=index, dtype=np.int64, casting="unsafe")
        neighbours.take(index, out=cells[block], mode="clip")

    _run_blocks(len(ens), np.int64, shift)
    return replace(ens, cells=cells, q=q, p=p, time=ens.time + 1)


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
    _check_count("n_trajectories", n_trajectories, 1)
    _check_count("n_steps", n_steps, 1)
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    out = np.empty((n_steps, n_trajectories, 2))
    out[0, :, 0] = rng.random(n_trajectories)  # q is drawn before p
    out[0, :, 1] = rng.random(n_trajectories)
    for t in range(n_steps - 1):  # each image goes straight into its own row
        cell_map.apply(out[t, :, 0], out[t, :, 1], out=(out[t + 1, :, 0], out[t + 1, :, 1]))
    return out.reshape(n_steps * n_trajectories, 2)


def _ensemble_distributions(ens: PhaseEnsemble, cell_map: CellMap,
                            partition: CellPartition) -> Iterator[SiteDistribution]:
    """Distributions at t = 0, 1, 2, ... of the multi-map walk of ``ens``, which it steps in
    place, so that the walk holds one ensemble; ``ens`` must be the caller's to overwrite."""
    while True:
        yield classical_site_distribution(ens)
        ens = multi_map_step(ens, cell_map, partition, in_place=True)


def classical_msd_series(cell_map: CellMap, partition: CellPartition, L: int,
                         t_max: int, n_points: int = 100_000, seed: int = 0,
                         keep_distributions: bool = False) -> WalkTimeSeries:
    """Observable time series for the multi-map walk started in cell 0.

    The initial ensemble is a seeded uniform fill of cell 0.  The
    statistics come from the same series loop as the quantum walk.
    """
    _check_count("t_max", t_max, 1)  # before the fill, which may be large
    # the fill is the series' own, so the generator steps it in place
    dists = _ensemble_distributions(PhaseEnsemble.uniform_fill(L, n_points, seed=seed),
                                    cell_map, partition)
    return _time_series(dists, t_max, keep_distributions)
