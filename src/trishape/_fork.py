"""Lines written to stdout in turn by the CLI process and one forked child.

``trace --format csv`` writes its rows, and ``selftest`` its check lines,
through :func:`write_rows`.  Each command's output, its order and its exit
code are those of one process.  The child leaves by ``os._exit``, so no
atexit hook and no buffered output of this process runs twice, and it is
reaped before the command returns.
"""
from __future__ import annotations

import os
import sys

#: lines in one block of ``trace``.  The processes hand stdout over once per
#: block, so smaller blocks spend more on the handoffs, and each process
#: holds one block's text: 250 ``trace`` rows are about 100 KB.
BLOCK = 250

#: what a process writes to the other to give it stdout; the child writes
#: ``_FAILED`` instead after a block with a line that was not ok
_TURN, _FAILED = b".", b"F"


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 65536):
        chunks.append(chunk)
    return b"".join(chunks)


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


def _child(fd: int, enc, recv: int, send: int, line, n: int, block: int) -> None:
    """The child's part of :func:`write_rows`: the odd blocks, each written
    to ``fd`` when ``recv`` hands it the turn, and the turn given back on
    ``send`` with whether the block was ok, or with what stopped it."""
    for lo in range(block, n, 2 * block):
        text, ok, exc = _block(line, lo, min(lo + block, n))
        if os.read(recv, 1) != _TURN:  # the parent has stopped
            return
        try:
            _write(fd, text.encode(*enc))
        except BrokenPipeError:
            os.write(send, b"P")
            return
        if exc is not None:
            os.write(send, b"V" + str(exc).encode())
            return
        os.write(send, _TURN if ok else _FAILED)


def write_rows(head: str, n: int, line, block: int = BLOCK) -> bool:
    """Write ``head`` and then the text of ``line(k)`` for k in range(n) to
    stdout, in blocks of ``block`` lines, and return whether every line was
    ok: ``line(k)`` returns ``(text, ok)``.  ``head`` waits for the first
    line.  A ``ValueError`` from ``line(k)`` is raised once the lines
    before it are written.

    Where stdout has a file descriptor, the platform forks and there is a
    second block, a child computes the odd blocks while this process
    computes the even ones.  Each writes its own block to the descriptor
    when the other hands it the turn, so no line passes between them.  If
    the child dies, this raises ``ValueError("no rows from <k>: …")``.
    """
    fd = pid = None
    if n > block and hasattr(os, "fork"):
        try:
            fd, enc = sys.stdout.fileno(), (sys.stdout.encoding, sys.stdout.errors)
        except (AttributeError, OSError, ValueError):  # io.UnsupportedOperation is both
            pass
    if fd is not None:
        sys.stdout.flush()
        down, up = os.pipe(), os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: write them all here
            for end in (*down, *up):
                os.close(end)
    if pid is None:
        ok = True
        for lo in range(0, n, block):
            text, passed, exc = _block(line, lo, min(lo + block, n))
            sys.stdout.write(head + text if lo == 0 and text else text)
            if exc is not None:
                raise exc
            ok = ok and passed
        return ok
    if pid == 0:
        status = 1
        try:
            os.close(down[1])
            os.close(up[0])
            _child(fd, enc, down[0], up[1], line, n, block)
            status = 0
        finally:
            os._exit(status)
    os.close(down[0])
    os.close(up[1])
    send, recv = down[1], up[0]

    def take_turn(lo: int) -> bool:
        """Wait until the child has written its block from line ``lo`` and
        say whether it was ok; raise what stopped the child instead."""
        nonlocal pid
        said = os.read(recv, 1)
        if said in (_TURN, _FAILED):
            return said == _TURN
        said += _read_all(recv)
        if said[:1] == b"P":
            raise BrokenPipeError
        if said[:1] == b"V":
            raise ValueError(said[1:].decode())
        ended, pid = _ended(pid), 0
        raise ValueError(f"no rows from {lo}: the row process ended with {ended}")

    ok = True
    try:
        for lo in range(0, n, 2 * block):
            text, passed, exc = _block(line, lo, min(lo + block, n))
            if lo:
                ok = take_turn(lo - block) and ok
            _write(fd, (head + text if lo == 0 and text else text).encode(*enc))
            if exc is not None:
                raise exc
            ok = ok and passed
            if lo + block < n:
                try:
                    os.write(send, _TURN)
                except BrokenPipeError:  # the child is gone: its turn says how
                    pass
        last = (n - 1) // block * block
        if last % (2 * block):  # the last block is the child's
            ok = take_turn(last) and ok
        _ended(pid)
        pid = 0
        return ok
    finally:
        os.close(send)
        os.close(recv)
        if pid:  # not reaped: stop it first
            import signal

            os.kill(pid, signal.SIGKILL)
            _ended(pid)
