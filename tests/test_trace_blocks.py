"""Lines computed in blocks by two processes and written by one: the rows
of ``trace --format csv`` and the lines of ``selftest``.

Where stdout has a file descriptor and ``os.fork`` exists, this process
computes the even blocks and a forked child the odd ones, which it sends
through a pipe for this process to write: blocks of ``_fork.BLOCK`` rows
for ``trace``, and the first ceil(n/2) checks and the rest for
``selftest``.  Every byte, the exit code and stderr must be those
of the same command with ``os.fork`` deleted, which runs every line in one
process.  The byte tests run the CLI as a subprocess, so stdout is a real
pipe; the others capture stdout with ``capfd``, which keeps a descriptor,
since under ``capsys`` nothing forks.
"""
from __future__ import annotations

import hashlib
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

from trishape import checks, families
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

_PONCELET_10000 = ["trace", "--family", "poncelet", "--samples", "10000", "--format", "csv"]
_PONCELET_10000_MD5 = "7e01e8a2d42d132140048bd35e1f5d0d"
#: ``selftest``'s stdout, the same under Python 3.10 to 3.13
_SELFTEST_MD5 = "5a5dbd493daead415abc36a4f56f1535"

_COMMANDS = ["trace", "selftest"]


@pytest.fixture(autouse=True)
def _no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(child_env, program, argv):
    proc = subprocess.run([sys.executable, "-c", program, *argv],
                          capture_output=True, env=child_env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _planted(monkeypatch, command, hook):
    """(argv, lo, before): ``command`` with a hook that row or check k calls
    first, as ``hook(k)``; the first line of the child's first block; and
    how many lines are written before that block.  ``trace`` writes three
    blocks of poncelet rows, ``selftest`` five checks that pass."""
    if command == "trace":
        samples = 3 * BLOCK

        def planted(cfg, theta, _real=families._poncelet_vertices):
            hook(round(theta * samples / (2 * PI)))
            return _real(cfg, theta)

        monkeypatch.setattr(families, "_poncelet_vertices", planted)
        argv = ["trace", "--family", "poncelet", "--samples", str(samples), "--format", "csv"]
        return argv, BLOCK, BLOCK + 1

    def check(k):
        return lambda: (hook(k), (True, f"check {k}"))[1]

    monkeypatch.setattr(checks, "ALL_CHECKS", [(f"check-{k}", check(k)) for k in range(5)])
    return ["selftest"], 3, 3


@pytest.mark.parametrize("samples", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 10_000])
@pytest.mark.parametrize("family", list(_FAMILIES))
def test_forked_trace_writes_the_bytes_of_one_process(child_env, family, samples):
    argv = ["trace", "--family", family, *_FAMILIES[family], "--samples", str(samples),
            "--format", "csv"]
    forked = _run(child_env, _FORKED, argv)
    assert forked == _run(child_env, _ONE_PROCESS, argv)
    code, out, err = forked
    assert (code, err) == (0, b"")
    assert out.count(b"\n") == samples + 1
    if (family, samples) == ("poncelet", 10_000):
        assert hashlib.md5(out).hexdigest() == _PONCELET_10000_MD5


@pytest.mark.parametrize("command", _COMMANDS)
def test_captured_stdout_runs_in_this_process(capsys, monkeypatch, child_env, command):
    argv = _PONCELET_10000 if command == "trace" else ["selftest"]
    whole = _run(child_env, _ONE_PROCESS, argv)

    def no_fork():
        pytest.fail(f"{command} forked although stdout has no file descriptor")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (0, captured.out.encode(), captured.err.encode()) == whole


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


def _pid_check(passed):
    """A check that reports which process ran it."""
    return lambda: (passed, f"pid {os.getpid()}, \"quoted\" ≤ 1e-9")


@pytest.mark.parametrize("outcomes", [
    (True,), (True, True, True), (False, True, True), (True, True, True, False, True),
], ids=["1", "3", "3-parent-fails", "5-child-fails"])
def test_selftest_splits_the_registry_and_keeps_its_order(capfd, monkeypatch, outcomes):
    monkeypatch.setattr(checks, "ALL_CHECKS", [
        (f"check-{k}", _pid_check(passed)) for k, passed in enumerate(outcomes)])
    assert main(["selftest"]) == (0 if all(outcomes) else 1)
    out, err = capfd.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"{'PASS' if passed else 'FAIL'} check-{k}" for k, passed in enumerate(outcomes)]
    # the first ceil(n/2) run here, the rest in one other process
    half = (len(outcomes) + 1) // 2
    pids = [line.split(": pid ")[1].split(",")[0] for line in lines]
    assert set(pids[:half]) == {str(os.getpid())}
    assert len(set(pids[half:])) == (1 if len(outcomes) > 1 else 0)
    assert not set(pids[half:]) & set(pids[:half])
    assert all(line.endswith(', "quoted" ≤ 1e-9') for line in lines)


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "one-process"])
def test_selftest_reports_a_raising_check_and_runs_the_rest(capfd, monkeypatch, forked):
    def value_error():
        raise ValueError("bad sample")

    # two checks here and, where it forks, two in the child
    monkeypatch.setattr(checks, "ALL_CHECKS", [
        ("first", lambda: (True, "fine")),
        ("value", value_error),
        ("zero", lambda: 1 / 0),
        ("last", lambda: (True, "still run")),
    ])
    if not forked:
        monkeypatch.delattr(os, "fork")
    assert main(["selftest"]) == 1
    assert capfd.readouterr() == (
        "PASS first: fine\n"
        "FAIL value: ValueError: bad sample\n"
        "FAIL zero: ZeroDivisionError: division by zero\n"
        "PASS last: still run\n", "")


def test_selftest_lines_are_those_of_one_process(child_env):
    forked = _run(child_env, _FORKED, ["selftest"])
    assert forked == _run(child_env, _ONE_PROCESS, ["selftest"])
    code, out, err = forked
    assert (code, err) == (0, b"")
    assert [line.split(b":")[0] for line in out.splitlines()] == [
        f"PASS {name}".encode() for name, _ in checks.ALL_CHECKS]
    assert hashlib.md5(out).hexdigest() == _SELFTEST_MD5


def _other_interpreters() -> list[pathlib.Path]:
    """The python of each ``~/.pyenv/versions`` interpreter of at least 3.10,
    the least that pyproject.toml requires, other than the running one."""
    root, here = pathlib.Path.home() / ".pyenv" / "versions", pathlib.Path(sys.base_prefix)
    found = []
    for version in sorted(root.iterdir()) if root.is_dir() else ():
        m = re.match(r"(\d+)\.(\d+)\.", version.name)
        python = version / "bin" / "python"
        if (m and (int(m[1]), int(m[2])) >= (3, 10) and python.exists()
                and version.resolve() != here.resolve()):
            found.append(python)
    return found


def test_selftest_prints_the_same_bytes_under_every_interpreter(child_env):
    """The pinned selftest bytes under each other interpreter found; the
    children run together and need no pytest."""
    pythons = _other_interpreters()
    if not pythons:
        pytest.skip("no other Python 3.10+ under ~/.pyenv/versions")
    procs = [subprocess.Popen([str(python), "-m", "trishape.cli", "selftest"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env)
             for python in pythons]
    try:
        results = {str(python): (*proc.communicate(timeout=120), proc.returncode)
                   for python, proc in zip(pythons, procs)}
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    assert {python: (hashlib.md5(out).hexdigest(), err, code)
            for python, (out, err, code) in results.items()} == {
        str(python): (_SELFTEST_MD5, b"", 0) for python in pythons}


def _no_process():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("fork", [None, _no_process], ids=["no-fork", "fork-fails"])
@pytest.mark.parametrize("command", _COMMANDS)
def test_without_a_child_every_line_is_computed_here(capfd, monkeypatch, tmp_path,
                                                     command, fork):
    # each row or check appends its pid to one file
    log = os.open(tmp_path / "pids", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        argv, _, _ = _planted(monkeypatch, command,
                              lambda k: os.write(log, f"{os.getpid()}\n".encode()))
        assert main(argv) == 0
        forked = capfd.readouterr()
        first = (tmp_path / "pids").read_text().split()
        if fork is None:
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", fork)
        assert main(argv) == 0
        assert capfd.readouterr() == forked
    finally:
        os.close(log)
    second = (tmp_path / "pids").read_text().split()[len(first):]
    assert len(set(first)) == 2
    assert second == [str(os.getpid())] * len(first)


@pytest.mark.parametrize("samples, block", [(1001, 0), (2001, 1), (10_000, 3), (5000, 4)],
                         ids=["block-0", "child-block-1", "child-block-3", "block-4"])
def test_a_domain_error_in_either_process_is_that_of_one_process(child_env, samples, block):
    # at this ratio only some samples fail: the first at row 42, 341, 760
    # and 1012 of these sample counts, which are picked for BLOCK = 250
    argv = ["trace", "--family", "constant-ratio", "--param", "4.5e6", "--samples",
            str(samples), "--format", "csv"]
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


@pytest.mark.parametrize("command, die, ended", [
    ("trace", lambda: os._exit(3), "exit code 3"),
    ("trace", lambda: 1 / 0, "exit code 1"),
    ("trace", lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {int(signal.SIGKILL)}"),
    # a check that raises is a FAIL line, so selftest's child dies only so
    ("selftest", lambda: os._exit(3), "exit code 3"),
    ("selftest", lambda: os.kill(os.getpid(), signal.SIGKILL),
     f"signal {int(signal.SIGKILL)}"),
], ids=["trace-exit", "trace-raises", "trace-killed", "selftest-exit", "selftest-killed"])
def test_a_dead_child_makes_the_command_exit_1_and_say_how(capfd, monkeypatch, command,
                                                           die, ended):
    argv, lo, before = _planted(monkeypatch, command, lambda k: None)
    monkeypatch.delattr(os, "fork")
    assert main(argv) == 0
    whole = capfd.readouterr().out
    monkeypatch.undo()
    here = os.getpid()
    _planted(monkeypatch, command, lambda k: os.getpid() != here and die())
    assert main(argv) == 1
    captured = capfd.readouterr()
    assert captured.err == f"error: no rows from {lo}: the row process ended with {ended}\n"
    assert captured.out == "".join(whole.splitlines(keepends=True)[:before])


@pytest.mark.parametrize("command", _COMMANDS)
def test_an_interrupt_here_stops_and_reaps_the_child(capfd, monkeypatch, command):
    here = os.getpid()

    def hook(k):
        if os.getpid() != here:
            time.sleep(60)
        elif k == 0:
            raise KeyboardInterrupt

    argv, _, _ = _planted(monkeypatch, command, hook)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert time.perf_counter() - t0 < 30
    assert len(forks) == 1
    assert capfd.readouterr() == ("", "")


#: ``selftest`` with four checks whose lines are 200 KB each, far more than a
#: pipe holds
_BIG_CHECKS = ("from trishape import checks; checks.ALL_CHECKS = "
               "[(f'check-{k}', lambda: (True, 'x' * 200_000)) for k in range(4)]; " + _FORKED)


@pytest.mark.parametrize("command, lines, argv", [
    ("trace", 1, [_FORKED, *_PONCELET_10000]),
    ("trace", BLOCK + 10, [_FORKED, *_PONCELET_10000]),
    ("selftest", 1, [_BIG_CHECKS, "selftest"]),
    ("selftest", 3, [_BIG_CHECKS, "selftest"]),
    ("trace", 1, [_FORKED, *_PONCELET_10000[:4], str(BLOCK), "--format", "csv"]),
    ("trace", 9760, [_ONE_PROCESS, *_PONCELET_10000]),
], ids=["trace-header", "trace-in-child-block", "selftest-first", "selftest-in-child-block",
        "trace-only-block", "one-process-last-block"])
def test_closed_stdout_exits_1_and_leaves_no_process(child_env, command, lines, argv):
    # closed after the first line, this process's first write fails; closed
    # inside the child's first block, most of that block is still to come,
    # more than a 64 KiB pipe holds, so this process's write of it fails.
    # The only block, and the last block of one process, are each one large
    # write that the reader leaves while more than a pipe holds is still to
    # come, and that write's failure must still show.  Its own session, so
    # that a child left running would still be found
    proc = subprocess.Popen(
        [sys.executable, "-c", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env,
        start_new_session=True,
    )
    first = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first[0] == (b"t,class,x,y,z,p,q,r\n" if command == "trace"
                        else b"PASS check-0: " + b"x" * 200_000 + b"\n")
    assert all(line.endswith(b"\n") for line in first)
    assert err == b""
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
