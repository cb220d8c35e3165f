"""Classical area-preserving maps on the unit torus cell.

These are the classical limits of the quantum coins: a quarter-turn
rotation (dft), the baker transformation, and the kicked Harper map.
Each ``*_map`` takes q and p as arrays or scalars and returns the image
pair; there are no separate scalar versions.  They back ``classical``.

None of the maps takes a boundary-phase argument: the phase
acts only on the quantum side, so its absence here is structural.

Every map writes straight into the arrays it returns: its ufuncs run with
``out=``.  ``rotation_map``, ``baker_map`` and ``harper_map`` return new
arrays, or with ``in_place=True`` write the image over q and p themselves, bit
for bit the same, so a walk can step its ensemble in place; one check, before
any write, refuses q and p that cannot hold the image or share memory.
The three maps, the Harper inverse and the classical walk's half-cell
shift share one driver, ``_run_blocks``.  It hands the flat
points to ``parallel_map`` as blocks of ``2**15`` points, whose threads run
at once, since numpy's ufuncs release the GIL, each taking the next free
block.  A block runs through a scratch block of its own, so for a 1-D or
contiguous input no array of its size is made besides the results.  Each
point's image depends on that point alone, so no bit of the result depends
on the blocks or on the threads that ran them.  The reduction mod 1 is
``x - floor(x)``, which is ``x % 1.0`` bit for bit (both round the same
exact value); a second pass folds the 1.0 that a tiny negative x rounds to
back to 0.

``parallel_map`` is the package's only source of threads (the CLI's sweep
combinations run through it too).  Each call with more than one item starts
and joins its own, one per further CPU it may use (``os.sched_getaffinity``
where the platform has it, else ``os.cpu_count()``), and the calls nested
in its w threads share 1/w of its CPUs each, so no more threads than usable
CPUs are ever alive.
"""

from __future__ import annotations

import collections
import contextvars
import os
import threading

import numpy as np

__all__ = [
    "rotation_map",
    "baker_map",
    "harper_map",
    "harper_inverse_map",
]

#: Points per scratch block; a block of every array the kernel touches stays in cache.
_BLOCK = 2**15
_TWO_PI = 2.0 * np.pi
#: The CPUs the calls nested in a ``parallel_map`` item may use; unset outside one.
_cpu_share: contextvars.ContextVar[int] = contextvars.ContextVar("cpu_share")


def _usable_cpus() -> int:
    if share := _cpu_share.get(None):
        return share
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(fn, items) -> list:
    """``[fn(x) for x in items]`` in item order, on the calling thread plus up to one
    thread per further CPU it may use; the threads are this call's own, so calls may nest.

    Fewer than two items run inline without asking for the CPUs, and so do the items
    of a call with one usable CPU.  Otherwise each thread, the caller's included, takes
    the next item in order until none is left or one has failed, and runs it in a copy
    of the caller's context (``np.errstate`` carries over) with its share of the CPUs.
    The first failure in item order propagates once every thread has stopped.
    """
    items = list(items)
    if len(items) < 2 or (cpus := _usable_cpus()) < 2:
        return list(map(fn, items))
    workers = min(len(items), cpus) - 1
    context = contextvars.copy_context()
    context.run(_cpu_share.set, cpus // (workers + 1))
    # the items in order, then one None for each thread to stop at
    todo = collections.deque([*enumerate(items), *[None] * (workers + 1)])
    results, failures = [None] * len(items), {}

    def drain() -> None:
        while not failures and (job := todo.popleft()) is not None:
            try:
                results[job[0]] = fn(job[1])
            except BaseException as exc:
                failures[job[0]] = exc

    threads = [threading.Thread(target=context.copy().run, args=(drain,)) for _ in range(workers)]
    for thread in threads:
        thread.start()
    try:
        context.run(drain)
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def _mod1(x, scratch) -> None:
    """x mod 1 in place; ``scratch`` has x's shape."""
    for _ in range(2):  # the second pass turns the rounded 1.0 into 0.0 and leaves the rest
        np.floor(x, out=scratch)
        np.subtract(x, scratch, out=x)


def _harper_kernel(a, b, c1, c2, a_out, b_out, scratch) -> None:
    """Drift then kick, the Harper map and its inverse:
    a_out = (a - c1 sin(2 pi b)) mod 1, then b_out = (b + c2 sin(2 pi a_out)) mod 1."""
    np.multiply(b, _TWO_PI, out=scratch)
    np.sin(scratch, out=scratch)
    np.multiply(scratch, c1, out=scratch)
    np.subtract(a, scratch, out=a_out)
    _mod1(a_out, scratch)
    np.multiply(a_out, _TWO_PI, out=scratch)
    np.sin(scratch, out=scratch)
    np.multiply(scratch, c2, out=scratch)
    np.add(b, scratch, out=b_out)
    _mod1(b_out, scratch)


def _rotation_kernel(q, p, q_out, p_out, scratch) -> None:
    """The quarter turn: q_out = (1 - p) mod 1, p_out = q."""
    np.subtract(1.0, p, out=scratch)
    np.copyto(p_out, q)
    np.copyto(q_out, scratch)
    _mod1(q_out, scratch)


def _baker_kernel(q, p, q_out, p_out, step) -> None:
    """The baker map through a step array that is 0 on the left half, bit for bit the
    branchwise values, with a p' of 1.0 folded to 0.0."""
    # 1.0 on the right half, NaN included since it is not q < 1/2, and +0.0 on the left;
    # x - (+0.0) is x bit for bit, -0.0 included, so the left half is left as it is
    np.less(q, 0.5, out=step)
    np.subtract(1.0, step, out=step)
    np.multiply(q, 2.0, out=q_out)
    q_out -= step  # 2q - 1 or 2q
    np.subtract(0.0, step, out=step)  # -1.0 or +0.0
    np.subtract(p, step, out=p_out)  # p + 1 or p
    p_out *= 0.5
    np.equal(p_out, 1.0, out=step)  # (p+1)/2 rounds to 1.0 at p = 1 - 2**-53
    p_out -= step


def _run_blocks(n: int, dtype, run_block) -> None:
    """``run_block(block, scratch)`` on each block, a slice of range(n) of at most ``_BLOCK``
    points, through ``parallel_map``; each block gets a fresh scratch block of ``dtype``."""
    def run(lo: int) -> None:
        hi = min(lo + _BLOCK, n)
        run_block(slice(lo, hi), np.empty(hi - lo, dtype))

    parallel_map(run, range(0, n, _BLOCK))


def _check_in_place(q, p) -> None:
    """Raise a ValueError naming q, p unless a map may write its image over them: writeable
    arrays of the image's float dtype and of one shape, each 1-D or C-contiguous (so it
    flattens to a view of itself), that share no memory."""
    if not (isinstance(q, np.ndarray) and isinstance(p, np.ndarray)
            and q.dtype == p.dtype == np.result_type(q, p, 1.0)
            and q.flags.writeable and p.flags.writeable):
        got = ", ".join(("" if x.flags.writeable else "read-only ") + str(x.dtype)
                        if isinstance(x, np.ndarray) else type(x).__name__ for x in (q, p))
        raise ValueError(f"q, p: must be writeable arrays of one float dtype to step in "
                         f"place, got {got}")
    if not (q.shape == p.shape and all(x.ndim <= 1 or x.flags.c_contiguous for x in (q, p))):
        raise ValueError(f"q, p: must be 1-D or C-contiguous arrays of one shape to step in "
                         f"place, got shapes {q.shape}, {p.shape}")
    if np.shares_memory(q, p):
        raise ValueError("q, p: must share no memory to step in place")


def _map_points(kernel, a, b, *consts, in_place=False):
    """(a', b'): ``kernel(a, b, *consts, a_out, b_out, scratch)`` on every point of the
    broadcast a, b, block by block through ``_run_blocks``, into new arrays, or with
    ``in_place=True`` over a and b themselves (see ``_check_in_place``)."""
    if in_place:
        _check_in_place(a, b)
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    dtype = np.result_type(a, b, 1.0)
    out = (a, b) if in_place else (np.empty(a.shape, dtype), np.empty(a.shape, dtype))
    # every shape runs flat; the outputs flatten to views of themselves
    a, b, a_out, b_out = (x.reshape(-1) for x in (a, b, *out))
    _run_blocks(a.size, dtype, lambda s, tmp: kernel(a[s], b[s], *consts, a_out[s], b_out[s], tmp))
    return out


def rotation_map(q, p, *, in_place=False):
    """Rigid anti-clockwise quarter turn: (q, p) -> (1 - p, q) mod 1.

    Returns new arrays, or with ``in_place=True`` writes the image over q and p.
    """
    return _map_points(_rotation_kernel, q, p, in_place=in_place)


def baker_map(q, p, *, in_place=False):
    """Baker transformation: stretch in q, stack in p.

    (2q, p/2) on the left half q < 1/2, else (2q - 1, (p+1)/2); a p' that
    rounds to 1.0 is returned as 0.0, the same torus point.  Returns new
    arrays, or with ``in_place=True`` writes the image over q and p.
    """
    return _map_points(_baker_kernel, q, p, in_place=in_place)


def harper_map(q, p, g, tau=1.0, *, in_place=False):
    """Kicked Harper map: q' = q - tau sin(2 pi p), p' = p + tau g sin(2 pi q').

    Area preserving for every g; integrable at g = 0, essentially fully
    chaotic beyond g = 1 (at tau = 1).  Coordinates are kept reduced
    mod 1, so the trigonometric arguments never grow.  Returns new arrays,
    or with ``in_place=True`` writes the image over q and p.
    """
    return _map_points(_harper_kernel, q, p, tau, tau * g, in_place=in_place)


def harper_inverse_map(q, p, g, tau=1.0):
    """Algebraic inverse of ``harper_map``: undo the kick, then the drift."""
    p_prev, q_prev = _map_points(_harper_kernel, p, q, tau * g, tau)
    return q_prev, p_prev
