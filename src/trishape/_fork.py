"""Lines written to stdout by the CLI process, half of them computed by one
forked child.

``trace --format csv`` writes its rows, and ``selftest`` its check lines,
through :func:`write_rows`.  Each command's output, its order and its exit
code are those of one process.  Only this process writes to stdout: the
child sends its blocks through a pipe, leaves by ``os._exit``, so no atexit
hook and no buffered output of this process runs twice, and is reaped
before the command returns.
"""
from __future__ import annotations

import marshal
import os
import sys

#: lines in one block of ``trace``.  Each block is one message of the child
#: and one write to stdout, and each process holds one block's text: 250
#: ``trace`` rows are about 100 KB.
BLOCK = 250


def _block(line, lo: int, hi: int):
    """The text of lines lo to hi - 1, whether every one was ok, and the
    ValueError that cut them short, if one did."""
    texts, ok = [], True
    try:
        for k in range(lo, hi):
            text, passed = line(k)
            texts.append(text)
            if not passed:
                ok = False
    except ValueError as exc:
        return "".join(texts), ok, exc
    return "".join(texts), ok, None


def _write(fd: int, data: bytes) -> None:
    data = memoryview(data)
    while data:  # a pipe whose reader leaves takes only part of it
        data = data[os.write(fd, data):]


def _ended(pid: int) -> str:
    """Reap the child; how it ended, "exit code N" or "signal N"."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return f"exit code {code}" if code >= 0 else f"signal {-code}"


def write_rows(head: str, n: int, line, block: int = BLOCK) -> bool:
    """Write ``head`` and then the text of ``line(k)`` for k in range(n) to
    stdout, in blocks of ``block`` lines, and return whether every line was
    ok: ``line(k)`` returns ``(text, ok)``.  ``head`` waits for the first
    line.  A ``ValueError`` from ``line(k)`` is raised once the lines
    before it are written.

    Where stdout has a file descriptor, each block is written to it with
    ``os.write``, so a reader that leaves during any block raises
    ``BrokenPipeError``.  There, where the platform forks and there is a
    second block, a child computes the odd blocks while this process
    computes the even ones, and sends each one's encoded text, whether it
    was ok and the message of its ``ValueError`` through a pipe.  If the
    child dies, this raises ``ValueError("no rows from <k>: …")``.
    """
    fd = pid = None
    sys.stdout.flush()
    try:
        fd, enc = sys.stdout.fileno(), (sys.stdout.encoding, sys.stdout.errors)
    except (AttributeError, OSError, ValueError):  # io.UnsupportedOperation is both
        pass
    if fd is not None and n > block and hasattr(os, "fork"):
        recv, send = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: compute them all here
            os.close(recv)
            os.close(send)
    if pid == 0:  # the child: the odd blocks, sent through the pipe
        try:
            os.close(recv)
            for lo in range(block, n, 2 * block):
                text, ok, exc = _block(line, lo, min(lo + block, n))
                _write(send, marshal.dumps((text.encode(*enc), ok, exc and str(exc))))
            os._exit(0)
        finally:  # what stopped it, the closed pipe among them
            os._exit(1)
    if pid:
        os.close(send)
        pipe = open(recv, "rb")
    ok = True
    try:
        for lo in range(0, n, block):
            if pid and lo // block % 2:
                try:
                    data, passed, exc = marshal.load(pipe)
                except EOFError:  # the child ended before it sent this block
                    ended, pid = _ended(pid), 0
                    raise ValueError(f"no rows from {lo}: the row process ended with "
                                     f"{ended}") from None
                _write(fd, data)
                exc = None if exc is None else ValueError(exc)
            else:
                text, passed, exc = _block(line, lo, min(lo + block, n))
                text = head + text if lo == 0 and text else text
                if fd is None:
                    sys.stdout.write(text)
                else:
                    _write(fd, text.encode(*enc))
            if exc is not None:
                raise exc
            ok = ok and passed
        if pid:
            _ended(pid)
            pid = 0
        return ok
    finally:
        if pid is not None:
            pipe.close()
        if pid:  # not reaped: stop it first
            import signal

            os.kill(pid, signal.SIGKILL)
            _ended(pid)
