"""A sweep's worker processes: ``starmap`` runs each task in a child
forked for it, at most ``workers`` at once, and gathers the results
through pipes.

``harness.run_kl_experiment`` imports this module only when a sweep
forks, so a command that never sweeps (``fit``, ``sample``) neither
compiles it nor loads ``select`` and ``signal``.
"""

import os
import pickle
import select
import signal
from itertools import islice

from .harness import WorkerError


class _RemoteTraceback(Exception):
    """The formatted traceback of an exception raised in a child; the
    parent raises the exception from it, since pickling drops the
    child's frames."""


def _child(w: int, fn, args) -> None:
    """Run ``fn(*args)`` in a forked child and write the pickled (result,
    exception, traceback text) triple to fd ``w``; leave through
    ``os._exit`` alone, with status 0 only once the triple is written
    whole."""
    code = 1
    try:
        try:
            out = pickle.dumps((fn(*args), None, None))
        except BaseException as exc:  # sent back and raised in the parent
            import traceback  # here, so that no parent loads it
            tb = traceback.format_exc()
            try:
                out = pickle.dumps((None, exc, tb))
            except Exception:  # unpicklable: send its type and message
                out = pickle.dumps(
                    (None, RuntimeError(f"{type(exc).__name__}: {exc}"), tb))
        with open(w, "wb") as fh:
            fh.write(out)
        code = 0
    finally:
        os._exit(code)


def _fork(fn, args) -> tuple:
    """Fork a child that runs ``fn(*args)``; return the read end of its
    pipe and its pid.  A pipe or a fork that fails raises ``WorkerError``
    and leaves no fd open."""
    fds = ()
    try:
        fds = r, w = os.pipe()
        pid = os.fork()
    except OSError as exc:  # EMFILE, BlockingIOError, ENOMEM
        for fd in fds:
            os.close(fd)
        raise WorkerError(
            f"cannot start a sweep worker: {exc.strerror}") from exc
    if pid == 0:
        _child(w, fn, args)
    os.close(w)
    return r, pid


def starmap(fn, args: list, workers: int) -> list:
    """``[fn(*a) for a in args]``, each call in a child forked for it, at
    most ``workers`` children alive at once: the next task's child is
    forked when a child's result is whole, as a pool of ``workers`` would
    hand it out.  The parent reads every live child's pipe at once.  A
    child that cannot be started, a child that dies before its result is
    whole (``WorkerError``), or a call that raises (its exception is
    raised here, from the child's traceback) makes this raise as soon as
    it is seen, after the other children are killed; every child is
    reaped."""
    results = [None] * len(args)
    tasks = enumerate(args)
    children = {}  # read fd -> task index, pid, bytes read
    poll = select.poll()

    def start(count: int) -> None:
        for i, a in islice(tasks, count):
            r, pid = _fork(fn, a)
            children[r] = i, pid, bytearray()
            poll.register(r, select.POLLIN)

    try:
        start(workers)
        while children:
            for r, _ in poll.poll():
                chunk = os.read(r, 1 << 16)
                if chunk:
                    children[r][2].extend(chunk)
                    continue
                poll.unregister(r)
                os.close(r)
                i, pid, data = children.pop(r)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code:
                    raise WorkerError("a sweep worker " + (
                        f"was killed by signal {-code}" if code < 0
                        else f"exited with status {code}"))
                results[i], exc, tb = pickle.loads(data)
                if exc is not None:
                    raise exc from _RemoteTraceback(tb)
                start(1)
    finally:
        for r, (_, pid, _) in children.items():
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results
