"""Reports the peak resident set of each Python process the benchmark spawns.

The benchmark puts this directory on PYTHONPATH, so Python's site module
imports this file at start-up.  At exit it writes the process's own peak
resident set (VmHWM, in KiB) to stderr as its last line.  The ru_maxrss of
wait4 would not do: Linux carries the parent's peak over into a child at
fork and exec, so every child would report at least the harness's peak.
"""
import atexit
import sys

MARK = "perfbench peak_rss_kib "


def _report() -> None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    sys.stderr.write(MARK + line.split()[1] + "\n")
                    sys.stderr.flush()
                    return
    except (OSError, ValueError):
        pass


if __name__ == "sitecustomize":  # not when the harness imports MARK
    atexit.register(_report)
