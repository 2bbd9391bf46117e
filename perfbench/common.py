"""Shared plumbing: environment record, timing statistics, host speed, work directory."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

K = 10


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(root: Path) -> dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": git_sha(root),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child.

    The child figure covers the program's pool workers that have ended
    and been waited for, so call this after every engine is closed and
    while the yardstick child still runs. A forked worker's figure
    includes the pages it shares with this process. Linux reports KiB.
    """
    reap_children()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def reap_children() -> None:
    """Wait for every child process; terminate any still running."""
    for child in multiprocessing.active_children():
        child.join(timeout=5)
        if child.is_alive():
            child.terminate()
            child.join(timeout=5)


class WorkDir:
    """A work directory under the checkout, removed on exit."""

    def __init__(self, root: Path, name: str):
        self.path = root / ".perfbench_work" / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Yardstick:
    """A child process that times a fixed piece of work on request.

    A shared host's speed drifts: on a 2-vCPU Xeon (2.1 GHz) host this
    yardstick took 7.7 ms in one hour and 11.5 ms in the next, and the
    workloads' rounds slowed by the same ratio. The work runs in its own
    process, started before any engine and importing only numpy, so load
    that the program leaves behind in the benchmark process (a busy
    thread, a held GIL) slows the program's rounds but not the yardstick,
    and cannot be divided out. Use as a context manager; leaving it stops
    the child and waits for it.
    """

    #: Timed samples per request: one sample is noisy at the scale of ms.
    REPEATS = 4

    def __init__(self) -> None:
        self._proc: subprocess.Popen[str] | None = None

    def __enter__(self) -> "Yardstick":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("yardstick.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc: object) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
            proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def times(self) -> list[float]:
        """Seconds the work took, :attr:`REPEATS` times in a row."""
        assert self._proc is not None, "yardstick not started"
        self._proc.stdin.write(f"{self.REPEATS}\n")
        self._proc.stdin.flush()
        return [float(x) for x in self._proc.stdout.readline().split()]


class HostSpeed:
    """Yardstick samples taken at chosen points, and times scaled by them.

    Workloads call :meth:`sample` outside every timed window and report
    times scaled to a host on which the yardstick takes
    :data:`REFERENCE_S`.
    """

    #: Yardstick time of the reference host.
    REFERENCE_S = 0.010

    def __init__(self, yardstick: Yardstick) -> None:
        self._yardstick = yardstick
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.extend(self._yardstick.times())

    @property
    def yardstick_s(self) -> float:
        """The median yardstick: the host's speed during the run."""
        return median(self.samples)

    def scale(self, seconds: float) -> float:
        """``seconds`` as they would read on the reference host."""
        return seconds * self.REFERENCE_S / self.yardstick_s
