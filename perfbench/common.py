"""Helpers shared by the benchmark's workloads and child processes."""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent

#: Set-ups per untraced run: the throw-away ones and the measured one.
#: ``setup_s`` is their median, so one slow start does not move it.
SETUPS = 5


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the tail of ``values``.

    The tail is the highest percentile that still has at least ten
    samples beyond it, and never below the median: with few samples it
    says how few there were instead of pretending to be a p99.
    """
    ordered = sorted(values)
    count = len(ordered)
    index = max(count - 11, count // 2)
    return ordered[index], 100.0 * (index + 1) / count, count


#: The CPUs this benchmark may use.  Each work process (library worker
#: or server) and the reference task beside it (``calibrate.py``) run on
#: the first, so the reference times the same core as the work: on a
#: shared host two cores can slow down by different amounts at the same
#: time.  The benchmark process itself keeps to the others.
CPUS = sorted(os.sched_getaffinity(0))
WORK_CPU = CPUS[0]


def keep_off_work_cpu() -> None:
    """Move this process off :data:`WORK_CPU`, if there is another."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS[1:])


def child_env(root: pathlib.Path) -> dict[str, str]:
    """The environment of a child process: the repo's ``src`` importable.

    ``REPRO_*`` settings are dropped, so the program runs with the
    defaults the benchmark states rather than whatever the caller's
    shell exports.
    """
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(root: pathlib.Path, script: str, *args: str,
          stdin=None) -> subprocess.Popen:
    """Start ``python3 perfbench/<script> args`` with stdout piped, on
    :data:`WORK_CPU`."""
    process = subprocess.Popen(
        [sys.executable, str(HERE / script), *args],
        cwd=root,
        env=child_env(root),
        stdin=stdin,
        stdout=subprocess.PIPE,
        text=True,
    )
    os.sched_setaffinity(process.pid, [WORK_CPU])
    return process


def stop(process: subprocess.Popen, timeout: float = 60.0,
         interrupt: bool = True) -> int:
    """Wait for a child (interrupting it first unless told not to);
    kill it if it has not ended within ``timeout`` seconds."""
    if interrupt and process.poll() is None:
        process.send_signal(signal.SIGINT)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        return process.wait()
    finally:
        for stream in (process.stdin, process.stdout):
            if stream is not None:
                stream.close()


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a live process has used (Linux).

    Unlike wall time, this leaves out the time the process waited for
    a core: with paravirtual steal accounting, the time the host gave
    the core to another tenant is not charged to the process either.
    """
    fields = pathlib.Path(f"/proc/{pid}/stat").read_text()
    # Fields after the command name, which may hold spaces: utime and
    # stime are fields 14 and 15 of the whole line.
    rest = fields.rsplit(")", 1)[1].split()
    return (int(rest[11]) + int(rest[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux units)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
