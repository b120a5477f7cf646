"""``trace --format csv`` in blocks written in turn by two processes.

Where stdout has a file descriptor and ``os.fork`` exists, this process
computes the even blocks of ``_fork.BLOCK`` rows and a forked child the odd
ones.  Every byte, the exit code and stderr must be those of the same
command with ``os.fork`` deleted, which runs every row in one process; the
byte tests run the CLI as a subprocess, so stdout is a real pipe.
"""
from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys

import pytest

from trishape import families
from trishape.angles import PI
from trishape._fork import BLOCK
from trishape.cli import main

#: ``python -c`` programs that run the CLI with ``sys.argv[1:]``, with and
#: without ``os.fork``
_FORKED = "import sys; from trishape.cli import main; sys.exit(main(sys.argv[1:]))"
_ONE_PROCESS = "import os; del os.fork; " + _FORKED

_FAMILIES = {
    "poncelet": [],
    "inscribed": [],
    "constant-angle": ["--param", "1.0"],
    "constant-ratio": ["--param", "0.7"],
}

_PONCELET_10000_MD5 = "6efea75e90e14a0859ba27b87591a374"


@pytest.fixture(autouse=True)
def _no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(child_env, program, argv):
    proc = subprocess.run([sys.executable, "-c", program, "trace", *argv],
                          capture_output=True, env=child_env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("samples", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 10_000])
@pytest.mark.parametrize("family", list(_FAMILIES))
def test_forked_trace_writes_the_bytes_of_one_process(child_env, family, samples):
    argv = ["--family", family, *_FAMILIES[family], "--samples", str(samples),
            "--format", "csv"]
    forked = _run(child_env, _FORKED, argv)
    assert forked == _run(child_env, _ONE_PROCESS, argv)
    code, out, err = forked
    assert (code, err) == (0, b"")
    assert out.count(b"\n") == samples + 1
    if (family, samples) == ("poncelet", 10_000):
        assert hashlib.md5(out).hexdigest() == _PONCELET_10000_MD5


def test_trace_with_captured_stdout_runs_in_this_process(capsys, monkeypatch):
    def no_fork():
        pytest.fail("trace forked although stdout has no file descriptor")

    monkeypatch.setattr(os, "fork", no_fork)
    argv = ["trace", "--family", "poncelet", "--samples", "10000", "--format", "csv"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.md5(captured.out.encode()).hexdigest() == _PONCELET_10000_MD5


def test_the_child_computes_the_odd_blocks(capfd, monkeypatch, tmp_path):
    samples = 2 * BLOCK + 1
    argv = ["trace", "--family", "poncelet", "--samples", str(samples), "--format", "csv"]
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    # each row appends "pid theta" to one file
    log = os.open(tmp_path / "rows", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def logged(cfg, theta, _real=families._poncelet_vertices):
        os.write(log, f"{os.getpid()} {theta!r}\n".encode())
        return _real(cfg, theta)

    monkeypatch.setattr(families, "_poncelet_vertices", logged)
    try:
        assert main(argv) == 0
    finally:
        os.close(log)
        monkeypatch.undo()
    forked = capfd.readouterr()
    assert len(forks) == 1
    rows = {}
    for record in (tmp_path / "rows").read_text().splitlines():
        pid, theta = record.split()
        rows.setdefault(int(pid), []).append(round(float(theta) * samples / (2 * PI)))
    assert rows.pop(os.getpid()) == [*range(BLOCK), 2 * BLOCK]
    assert list(rows.values()) == [list(range(BLOCK, 2 * BLOCK))]
    monkeypatch.delattr(os, "fork")
    assert main(argv) == 0
    assert capfd.readouterr() == forked


@pytest.mark.parametrize("samples, block", [(1001, 0), (2001, 1), (10_000, 3), (5000, 4)],
                         ids=["block-0", "child-block-1", "child-block-3", "block-4"])
def test_a_domain_error_in_either_process_is_that_of_one_process(child_env, samples, block):
    # at this ratio only some samples fail: the first at row 42, 341, 760
    # and 1012 of these sample counts, which are picked for BLOCK = 250
    argv = ["--family", "constant-ratio", "--param", "4.5e6", "--samples", str(samples),
            "--format", "csv"]
    forked = _run(child_env, _FORKED, argv)
    assert forked == _run(child_env, _ONE_PROCESS, argv)
    code, out, err = forked
    assert code == 1
    assert err.startswith(b"error: side ratio 4500000.0 is lost to rounding at t = ")
    assert err.count(b"\n") == 1
    written = out.count(b"\n") - 1
    assert written // BLOCK == block
    assert out.startswith(b"t,class,x,y,z,p,q,r\n")


@pytest.mark.parametrize("samples, fail_at", [(2 * BLOCK, BLOCK + 10), (3 * BLOCK, 2 * BLOCK + 10)],
                         ids=["child-last-block", "parent-last-block"])
def test_a_failure_in_the_last_block_is_that_of_one_process(capfd, monkeypatch, samples,
                                                            fail_at):
    argv = ["trace", "--family", "poncelet", "--samples", str(samples), "--format", "csv"]
    bound = 2.0 * PI * (fail_at - 0.5) / samples

    def failing(cfg, theta, _real=families._poncelet_vertices):
        if theta > bound:
            raise ValueError("planted failure")
        return _real(cfg, theta)

    monkeypatch.setattr(families, "_poncelet_vertices", failing)
    assert main(argv) == 1
    forked = capfd.readouterr()
    assert forked.err == "error: planted failure\n"
    assert forked.out.count("\n") == fail_at + 1
    monkeypatch.delattr(os, "fork")
    assert main(argv) == 1
    assert capfd.readouterr() == forked


@pytest.mark.parametrize("die, ended", [
    (lambda: os._exit(3), "exit code 3"),
    (lambda: 1 / 0, "exit code 1"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {int(signal.SIGKILL)}"),
], ids=["exit", "raises", "killed"])
def test_a_dead_child_makes_trace_exit_1_and_say_how(capfd, monkeypatch, die, ended):
    argv = ["trace", "--family", "poncelet", "--samples", str(3 * BLOCK), "--format", "csv"]
    monkeypatch.delattr(os, "fork")
    assert main(argv) == 0
    whole = capfd.readouterr().out
    monkeypatch.undo()
    here = os.getpid()

    def dying(cfg, theta, _real=families._poncelet_vertices):
        if os.getpid() != here:
            die()
        return _real(cfg, theta)

    monkeypatch.setattr(families, "_poncelet_vertices", dying)
    assert main(argv) == 1
    captured = capfd.readouterr()
    assert captured.err == f"error: no rows from {BLOCK}: the row process ended with {ended}\n"
    assert captured.out == "".join(whole.splitlines(keepends=True)[:BLOCK + 1])


@pytest.mark.parametrize("lines", [1, BLOCK + 10], ids=["header", "in-child-block"])
def test_closed_stdout_exits_1_and_leaves_no_process(child_env, lines):
    # closed after the header, the parent's first write fails; closed ten
    # rows into block 1, most of the child's 100 KB block is still to come,
    # more than a 64 KiB pipe holds, so the child's write fails.  Its own
    # session, so that a child left running would still be found
    proc = subprocess.Popen(
        [sys.executable, "-m", "trishape.cli", "trace", "--family", "poncelet",
         "--samples", "10000", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env,
        start_new_session=True,
    )
    first = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first[0] == b"t,class,x,y,z,p,q,r\n"
    assert all(line.endswith(b"\n") for line in first)
    assert err == b""
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
