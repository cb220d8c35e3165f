"""Classical area-preserving maps on the unit torus cell.

These are the classical limits of the quantum coins: a quarter-turn
rotation (dft), the baker transformation, and the kicked Harper map.
Each ``*_map`` takes q and p as arrays or scalars and returns the image
pair; there are no separate scalar versions.  They back ``classical``.

None of the maps takes a boundary-phase argument: the phase
acts only on the quantum side, so its absence here is structural.

Every map writes straight into the arrays it returns: its ufuncs run
with ``out=``.  In the Harper map and its inverse the sine, kick and
floor values pass through one scratch block of ``2**15`` points per
chunk, so for a 1-D input no array of its size is made besides the
results.  The reduction mod 1 is ``x - floor(x)``, which is ``x % 1.0``
bit for bit (both round the same exact value); a second pass folds the
1.0 that a tiny negative x rounds to back to 0.  A 1-D Harper input of
at least ``CHUNK_POINTS`` points is cut into one contiguous chunk per
usable CPU (``os.sched_getaffinity`` where the platform has it, else
``os.cpu_count()``); the chunks run at once on a module thread pool that
is started on first use, since numpy's ufuncs release the GIL.  Each
point's image depends on that point alone, so the result is the same bit
for bit however the input is chunked.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "rotation_map",
    "baker_map",
    "harper_map",
    "harper_inverse_map",
]

#: 1-D inputs with at least this many points are split into one chunk per usable CPU.
CHUNK_POINTS = 2**16
#: Points per scratch block; a block of every array the kernel touches stays in cache.
_BLOCK = 2**15
_TWO_PI = 2.0 * np.pi

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_pool() -> ThreadPoolExecutor:
    """The worker threads of the chunked maps: one per usable CPU but the caller's."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, _usable_cpus() - 1),
                                       thread_name_prefix="mapwalk-cellmaps")
        return _pool


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _mod1(x, scratch) -> None:
    """x mod 1 in place; ``scratch`` has x's shape."""
    for _ in range(2):  # the second pass turns the rounded 1.0 into 0.0 and leaves the rest
        np.floor(x, out=scratch)
        np.subtract(x, scratch, out=x)


def _drift_kick_kernel(a, b, c1, c2, a_out, b_out, scratch) -> None:
    """a_out = (a - c1 sin(2 pi b)) mod 1, then b_out = (b + c2 sin(2 pi a_out)) mod 1."""
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


def _drift_kick_blocks(a, b, c1, c2, a_out, b_out, lo: int, hi: int) -> None:
    """The kernel over the points lo..hi-1, one cache-sized block at a time."""
    scratch = np.empty(min(_BLOCK, hi - lo), dtype=a_out.dtype)
    for i in range(lo, hi, _BLOCK):
        j = min(i + _BLOCK, hi)
        _drift_kick_kernel(a[i:j], b[i:j], c1, c2, a_out[i:j], b_out[i:j], scratch[:j - i])


def _drift_kick(a, b, c1, c2):
    """New arrays (a', b') of the drift-then-kick step shared by the Harper map and its inverse."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    dtype = np.result_type(a, b, 1.0)
    a_out, b_out = np.empty(a.shape, dtype), np.empty(a.shape, dtype)
    if a.ndim != 1:  # scalars and n-d arrays: one pass with a scratch of their shape
        _drift_kick_kernel(a, b, c1, c2, a_out, b_out, np.empty(a.shape, dtype))
        return a_out, b_out
    n = len(a)
    chunks = _usable_cpus() if n >= CHUNK_POINTS else 1
    bounds = [n * i // chunks for i in range(chunks + 1)]
    # each job runs in a copy of the caller's context, so np.errstate carries over
    jobs = [_chunk_pool().submit(contextvars.copy_context().run, _drift_kick_blocks,
                                 a, b, c1, c2, a_out, b_out, lo, hi)
            for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        _drift_kick_blocks(a, b, c1, c2, a_out, b_out, bounds[0], bounds[1])
    finally:
        for job in jobs:
            job.result()
    return a_out, b_out


def rotation_map(q, p):
    """Rigid anti-clockwise quarter turn: (q, p) -> (1 - p, q) mod 1.

    Returns a new array for 1 - p and ``q`` itself.
    """
    p = np.asarray(p)
    q_out = np.empty(p.shape, np.result_type(p, 1.0))
    np.subtract(1.0, p, out=q_out)
    _mod1(q_out, np.empty_like(q_out))
    return q_out, q


def baker_map(q, p):
    """Baker transformation: stretch in q, stack in p.

    (2q, p/2) on the left half q < 1/2, else (2q - 1, (p+1)/2).  Both
    halves are computed in one pass through a step array that is 0 on the
    left, bit for bit the branchwise values.
    """
    q, p = np.asarray(q), np.asarray(p)
    if q.shape != p.shape:
        q, p = np.broadcast_arrays(q, p)
    dtype = np.result_type(q, p, 1.0)
    # 1.0 on the right half, NaN included since it is not q < 1/2, and 0.0 on the left;
    # x - (+0.0) is x bit for bit, -0.0 included, so the left half is left as it is
    step = np.logical_not(q < 0.5, out=np.empty(q.shape, dtype))
    q_out = np.multiply(q, 2.0, out=np.empty(q.shape, dtype))
    q_out -= step  # 2q - 1 or 2q
    np.subtract(0.0, step, out=step)  # -1.0 or +0.0
    p_out = np.subtract(p, step, out=np.empty(p.shape, dtype))  # p + 1 or p
    p_out *= 0.5
    return q_out, p_out


def harper_map(q, p, g, tau=1.0):
    """Kicked Harper map: q' = q - tau sin(2 pi p), p' = p + tau g sin(2 pi q').

    Area preserving for every g; integrable at g = 0, essentially fully
    chaotic beyond g = 1 (at tau = 1).  Coordinates are kept reduced
    mod 1, so the trigonometric arguments never grow.
    """
    return _drift_kick(q, p, tau, tau * g)


def harper_inverse_map(q, p, g, tau=1.0):
    """Algebraic inverse of ``harper_map``: undo the kick, then the drift."""
    p_prev, q_prev = _drift_kick(p, q, tau * g, tau)
    return q_prev, p_prev
