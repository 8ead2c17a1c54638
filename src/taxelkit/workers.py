"""Whole-dataset passes on every CPU: one forked worker per usable CPU, each
taking contiguous chunks of the pass's rows as it is ready for them.

A pass is ``work(lo, hi)``, called once for each chunk of rows lo..hi-1. It
leaves its results where the parent reads them: in a file at fixed offsets,
or in an array from ``shared_array``. ``run_chunks`` forks one child per
other usable CPU. Every worker, the parent included, starts on its own first
chunk, then claims the next unclaimed chunk from a pipe of chunk indices
written before the fork, so a slow CPU holds the pass up by at most one
chunk. Children read, run elementwise numpy (no BLAS) and leave through
``os._exit``, so they flush none of the parent's buffers and run no
``atexit`` handler.
"""
from __future__ import annotations

import mmap
import os
import pickle
import select
import struct
import traceback
from collections.abc import Callable

import numpy as np

_INDEX = struct.Struct("<I")  # one chunk index in the queue pipe
# The queue is written in one piece before any worker reads it, and an empty
# pipe takes PIPE_BUF bytes (at least 512 on POSIX) in one write.
MAX_CHUNKS = getattr(select, "PIPE_BUF", 512) // _INDEX.size

Work = Callable[[int, int], None]


def worker_count(n: int) -> int:
    """One worker per CPU this process may run on, at most n."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(n, len(os.sched_getaffinity(0)))


def shared_array(shape, dtype) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping, so the parent reads what
    a forked child writes into it. An array of no bytes is a plain one, since
    a mapping cannot be empty."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    if not size:
        return np.zeros(shape, dtype)
    return np.ndarray(shape, dtype, buffer=mmap.mmap(-1, size))


def run_chunks(n: int, chunk: int, work: Work, errors: tuple[type[BaseException], ...]) -> None:
    """Call ``work(lo, hi)`` once for each of ``n // chunk`` (at most
    ``MAX_CHUNKS``) even, contiguous chunks of rows 0..n-1, on up to one
    worker per usable CPU (``worker_count``).

    ``chunk``, the fewest rows a chunk holds, is the caller's measure of
    when a fork pays: a pass of fewer than two chunks, or one on a single CPU
    or without ``os.fork``, runs as one ``work(0, n)`` here, with no fork.

    A worker whose chunk raises one of ``errors`` stops there. Once every
    worker has stopped and been reaped, the error of the lowest such chunk
    is raised here, so the pass fails as a serial run over the rows in order
    would. Any other failure of a child prints its traceback and raises
    RuntimeError; any other failure of this process is raised as it is.
    """
    chunks = min(n // chunk, MAX_CHUNKS)
    n_workers = min(worker_count(chunks), chunks)
    if n_workers < 2:
        work(0, n)
        return
    bounds = [n * c // chunks for c in range(chunks + 1)]
    queue, queue_w = os.pipe()
    try:
        os.write(queue_w, b"".join(_INDEX.pack(c) for c in range(n_workers, chunks)))
    finally:
        os.close(queue_w)  # so the queue ends at EOF
    children: list[tuple[int, int]] = []  # pid, read end of its report pipe
    try:
        for first in range(1, n_workers):
            report, report_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(report)
                os.close(report_w)
                raise
            if pid == 0:
                _child(work, bounds, first, queue, errors, report_w)
            os.close(report_w)
            children.append((pid, report))
        own = _run(work, bounds, 0, queue, errors)
    except BaseException:
        _drain(queue)  # the children stop after their current chunk
        raise
    finally:
        exits = []
        for pid, report in children:
            with open(report, "rb") as pipe:
                reported = pipe.read()  # to EOF: the child has exited
            exits.append((os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), reported))
        os.close(queue)
    for code, reported in exits:
        if code and not reported:
            raise RuntimeError(f"a worker of a pass over {n} rows exited with status {code}")
    failures = [pickle.loads(reported) for _, reported in exits if reported]
    failures += [own] if own else []
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def _run(work: Work, bounds: list[int], chunk: int, queue: int, errors):
    """One worker's chunks: ``chunk``, then each one it claims from the queue
    until the queue is empty. Returns (chunk, error) for the chunk that raised
    one of ``errors``, after draining the queue, since no later chunk can
    change which error the pass raises; else None."""
    while True:
        try:
            work(bounds[chunk], bounds[chunk + 1])
        except errors as e:
            _drain(queue)
            return chunk, e
        claimed = os.read(queue, _INDEX.size)
        if not claimed:
            return None
        chunk, = _INDEX.unpack(claimed)


def _drain(queue: int) -> None:
    while os.read(queue, MAX_CHUNKS * _INDEX.size):
        pass


def _child(work: Work, bounds: list[int], first: int, queue: int, errors, report: int):
    """A forked worker's whole life: run its chunks, pickle a typed failure
    into ``report``, then leave through os._exit."""
    status = 1
    try:
        failure = _run(work, bounds, first, queue, errors)
        if failure is None:
            status = 0
        else:
            os.write(report, pickle.dumps(failure))
    except Exception:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)
