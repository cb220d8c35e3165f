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
it over the point (``in_place=True``, as the maps do): a series steps the
fill it owns in place and holds one ensemble, checked once, when made.
A float64 q holds 53 random bits, and each baker step shifts one out, so a
baker series or portrait redraws q after every ``BAKER_REDRAW``-th step.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

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
#: Baker steps between redraws of q (at most 52); q keeps at least 27 of its 53 random bits.
BAKER_REDRAW = 26


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

    def apply(self, q: NDArray[np.float64], p: NDArray[np.float64], *, in_place: bool = False):
        """The image (q', p'), new or written over q and p (``in_place=True``) as the maps do."""
        if self.kind == "rotation":
            return rotation_map(q, p, in_place=in_place)
        if self.kind == "baker":
            return baker_map(q, p, in_place=in_place)
        return harper_map(q, p, self.g, self.tau, in_place=in_place)


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

    Returns a new ensemble; ``ens`` is left as it was.  With ``in_place=True`` the step
    maps over ``ens.q`` and ``ens.p``, as the maps check them, and shifts into ``ens.cells``,
    which must be a writeable int64 array, and returns ``ens`` itself.
    """
    if in_place and not (ens.cells.dtype == np.int64 and ens.cells.flags.writeable):
        raise ValueError(f"cells: must be a writeable int64 array to step in place, "
                         f"got dtype {ens.cells.dtype}")
    q, p = cell_map.apply(ens.q, ens.p, in_place=in_place)
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
    return ens if in_place else PhaseEnsemble(cells=cells, q=q, p=p, L=ens.L)


def classical_site_distribution(ens: PhaseEnsemble, time: int = 0) -> SiteDistribution:
    """Fraction of ensemble points per cell at ``time``, normalized by construction."""
    counts = np.bincount(ens.cells, minlength=ens.L)
    return SiteDistribution(L=ens.L, probs=counts / len(ens), time=time)


def phase_portrait(cell_map: CellMap, n_trajectories: int, n_steps: int,
                   seed: int = 0) -> NDArray[np.float64]:
    """Orbits of seeded random initial conditions on the unit torus.

    Returns an (n_trajectories * n_steps, 2) array of visited (q, p)
    points, the initial condition included, deterministic for a fixed
    seed.  Suitable for scatter plotting.  A baker orbit's q is redrawn after every
    ``BAKER_REDRAW``-th step, from the same generator after the initial points.
    """
    _check_count("n_trajectories", n_trajectories, 1)
    _check_count("n_steps", n_steps, 1)
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    out = np.empty((n_steps, n_trajectories, 2))
    out[0, :, 0] = rng.random(n_trajectories)  # q is drawn before p
    out[0, :, 1] = rng.random(n_trajectories)
    for t in range(1, n_steps):  # row t is row t - 1 stepped in place
        out[t] = out[t - 1]
        cell_map.apply(out[t, :, 0], out[t, :, 1], in_place=True)
        if cell_map.kind == "baker" and t % BAKER_REDRAW == 0:
            out[t, :, 0] = rng.random(n_trajectories)  # the rows are strided: no out=
    return out.reshape(n_steps * n_trajectories, 2)


def _ensemble_distributions(ens: PhaseEnsemble, cell_map: CellMap, partition: CellPartition,
                            rng: np.random.Generator) -> Iterator[SiteDistribution]:
    """Distributions at t = 0, 1, 2, ... of the multi-map walk of ``ens``, which it steps in
    place, so that the walk holds one ensemble; ``ens`` must be the caller's to overwrite.
    A baker walk redraws q from ``rng`` after every ``BAKER_REDRAW``-th step."""
    for t in itertools.count():
        yield classical_site_distribution(ens, time=t)
        multi_map_step(ens, cell_map, partition, in_place=True)
        if cell_map.kind == "baker" and (t + 1) % BAKER_REDRAW == 0:
            rng.random(out=ens.q)


def classical_msd_series(cell_map: CellMap, partition: CellPartition, L: int,
                         t_max: int, n_points: int = 100_000, seed: int = 0,
                         keep_distributions: bool = False) -> WalkTimeSeries:
    """Observable time series for the multi-map walk started in cell 0.

    The initial ensemble is a seeded uniform fill of cell 0.  The
    statistics come from the same series loop as the quantum walk.
    """
    _check_count("t_max", t_max, 1)  # before the fill, which may be large
    # the fill is the series' own, so the generator steps it in place; the baker's redraws
    # come from a stream of the seed apart from the fill's
    dists = _ensemble_distributions(PhaseEnsemble.uniform_fill(L, n_points, seed=seed),
                                    cell_map, partition, np.random.default_rng([seed, 1]))
    return _time_series(dists, t_max, keep_distributions)
