"""Work shared between the CLI process and one forked child.

``selftest`` runs the second half of its checks in a child, and
``trace --format csv`` writes its rows in blocks that this process and a
child compute and write in turn.  Each command's output, its order and its
exit code are those of one process.  A child leaves by ``os._exit``, so no
atexit hook and no buffered output of this process runs twice, and it is
reaped before the command returns.
"""
from __future__ import annotations

import json
import os
import sys

#: rows in one block of :func:`write_rows`.  The processes hand stdout over
#: once per block, so smaller blocks spend more on the handoffs, and each
#: process holds one block's text: 250 ``trace`` rows are about 100 KB.
BLOCK = 250

#: what a process writes to the other to give it stdout
_TURN = b"."


def run_checks(checks):
    """(name, passed, detail) for each check, in order."""
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as exc:  # one broken check must not hide the others
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        yield name, passed, detail


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 65536):
        chunks.append(chunk)
    return b"".join(chunks)


class _Child:
    """A forked child that runs ``work(recv, send)`` and exits 0 when it
    returns, 1 when it raises.  The child reads from ``recv`` what this
    process writes to ``self.send``, and this process reads from
    ``self.recv`` what the child writes to ``send``.  Raises ``OSError``
    where no process can be forked."""

    def __init__(self, work) -> None:
        down, up = os.pipe(), os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (*down, *up):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(down[1])
                os.close(up[0])
                work(down[0], up[1])
                code = 0
            finally:
                os._exit(code)
        os.close(down[0])
        os.close(up[1])
        self.send, self.recv = down[1], up[0]

    def ended(self) -> str:
        """Reap the child; how it ended, "exit code N" or "signal N"."""
        pid, self.pid = self.pid, 0
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return f"exit code {code}" if code >= 0 else f"signal {-code}"

    def close(self) -> None:
        """Stop the child if it has not been reaped, and reap it."""
        os.close(self.send)
        os.close(self.recv)
        if self.pid:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            self.ended()


class ForkedChecks(_Child):
    """Checks run by a forked child, which writes one ``[passed, detail]``
    JSON line per check to its pipe."""

    def __init__(self, checks) -> None:
        self.checks = checks

        def work(recv: int, send: int) -> None:
            for _, passed, detail in run_checks(checks):
                os.write(send, (json.dumps([bool(passed), str(detail)]) + "\n").encode())

        super().__init__(work)

    def results(self):
        """(name, passed, detail) for each check once the child has ended; a
        check whose line never came fails with how the child ended."""
        lines = _read_all(self.recv).split(b"\n")[:-1]  # a cut last line is dropped
        ended = self.ended()
        for k, (name, _) in enumerate(self.checks):
            if k < len(lines):
                yield (name, *json.loads(lines[k]))
            else:
                yield name, False, f"no result: the check process ended with {ended}"


def _block(line, lo: int, n: int):
    """The text of rows lo to lo + BLOCK - 1 (to n - 1 at the end), and the
    ValueError that cut it short, if one did."""
    lines = []
    try:
        for k in range(lo, min(lo + BLOCK, n)):
            lines.append(line(k))
    except ValueError as exc:
        return "".join(lines), exc
    return "".join(lines), None


def _write(fd: int, text: str) -> None:
    data = memoryview(text.encode())
    while data:  # a pipe whose reader leaves takes only part of it
        data = data[os.write(fd, data):]


def write_rows(head: str, n: int, line) -> None:
    """Write ``head`` and then ``line(k)`` for k in range(n) to stdout, in
    blocks of ``BLOCK`` lines.  ``head`` waits for the first line.  A
    ``ValueError`` from ``line(k)`` is raised once the lines before it are
    written.

    Where stdout has a file descriptor, the platform forks and there is a
    second block, a child computes the odd blocks while this process
    computes the even ones.  Each writes its own block to the descriptor
    when the other hands it the turn, so no row passes between them.  The
    lines must be ASCII: they go to the descriptor as their own bytes.
    """
    fd = child = None
    if n > BLOCK and hasattr(os, "fork"):
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # io.UnsupportedOperation is both
            pass
    if fd is not None:
        sys.stdout.flush()

        def work(recv: int, send: int) -> None:
            for lo in range(BLOCK, n, 2 * BLOCK):
                text, exc = _block(line, lo, n)
                if os.read(recv, 1) != _TURN:  # this process has stopped
                    return
                try:
                    _write(fd, text)
                except BrokenPipeError:
                    os.write(send, b"P")
                    return
                if exc is not None:
                    os.write(send, b"V" + str(exc).encode())
                    return
                os.write(send, _TURN)

        try:
            child = _Child(work)
        except OSError:  # no process to spare: write them all here
            pass
    if child is None:
        for lo in range(0, n, BLOCK):
            text, exc = _block(line, lo, n)
            sys.stdout.write(head + text if lo == 0 and text else text)
            if exc is not None:
                raise exc
        return

    def take_turn(lo: int) -> None:
        """Wait until the child has written its block from row ``lo``;
        raise what stopped it instead."""
        said = os.read(child.recv, 1)
        if said == _TURN:
            return
        said += _read_all(child.recv)
        if said[:1] == b"P":
            raise BrokenPipeError
        if said[:1] == b"V":
            raise ValueError(said[1:].decode())
        raise ValueError(f"no rows from {lo}: the row process ended with "
                         f"{child.ended()}")

    try:
        for lo in range(0, n, 2 * BLOCK):
            text, exc = _block(line, lo, n)
            if lo:
                take_turn(lo - BLOCK)
            _write(fd, head + text if lo == 0 and text else text)
            if exc is not None:
                raise exc
            if lo + BLOCK < n:
                try:
                    os.write(child.send, _TURN)
                except BrokenPipeError:  # the child is gone: its turn says how
                    pass
        last = (n - 1) // BLOCK * BLOCK
        if last % (2 * BLOCK):  # the last block is the child's
            take_turn(last)
        child.ended()
    finally:
        child.close()
