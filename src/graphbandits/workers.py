"""Independent shares of work run in forked child processes.

``run_shares`` runs the first share in this process and each other one in a
child made with ``os.fork``; the child sends its result back pickled
through a pipe. Callers check ``hasattr(os, "fork")`` first.
"""
from __future__ import annotations

import os
import pickle

__all__ = ["run_shares", "split", "usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_shares(shares):
    """Run ``shares[0]()`` here and every other share in a forked child.

    Each child sends back its result, or the exception it raised, pickled
    through a pipe and leaves through ``os._exit``, so it flushes none of
    the caller's buffers and runs none of its exit handlers. Returns the
    results in share order, re-raises a child's exception, and raises
    RuntimeError for a child that ends without an answer. Every child is
    reaped before this returns or raises.
    """
    children = {}  # pid -> read end of its pipe, until the child is reaped
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the child, which never returns from _answer
                os.close(read_fd)
                _answer(share, write_fd)
            os.close(write_fd)
            children[pid] = read_fd
        results = [shares[0]()]
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as pipe:
                answer = pipe.read()
            results.append(_unpack(pid, answer, _reap(children, pid)))
        return results
    finally:
        # imported on this path only: building its enums costs every process
        # that imports it about 0.1-0.2 MB of peak RSS
        import signal

        for pid in list(children):
            os.kill(pid, signal.SIGKILL)
            _reap(children, pid)


def _answer(share, write_fd):
    """In a child: send ``share()``'s result or exception, then exit."""
    code = 0
    try:
        try:
            answer = (True, share())
        except BaseException as exc:
            answer = (False, exc)
        try:
            data = pickle.dumps(answer, pickle.HIGHEST_PROTOCOL)
        except Exception:
            exc = answer[1]
            error = RuntimeError(f"{type(exc).__name__}: {exc}")
            data = pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
    except BaseException:
        code = 1
    finally:
        os._exit(code)


def _reap(children, pid):
    os.close(children.pop(pid))
    return os.waitpid(pid, 0)[1]


def _unpack(pid, answer, status):
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not answer:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with {code}"
        raise RuntimeError(f"worker {pid} {how} without an answer")
    ok, value = pickle.loads(answer)
    if not ok:
        raise value
    return value


def split(count, num_shares):
    """``range(count)`` in contiguous ranges, sizes differing by at most one,
    larger first."""
    size, extra = divmod(count, num_shares)
    start = 0
    for share in range(num_shares):
        stop = start + size + (share < extra)
        yield range(start, stop)
        start = stop
