"""Locating the program, the run directory, and recording provenance."""

from __future__ import annotations

import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Every durable write in the benchmark acknowledges only after fsync.
FSYNC_POLICY = "fsync=True (WAL, job queue, snapshots)"


class MissingProgramError(RuntimeError):
    """The checkout does not hold the program the benchmark drives."""


def bootstrap() -> None:
    """Put the checkout's ``src/`` and root on ``sys.path``; import the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgramError(
            f"no program sources at {SRC}/repro; run the benchmark from a "
            "checkout of the repository"
        )
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro  # noqa: F401  (fails loudly if the sources are broken)


def child_env() -> dict:
    """Environment for a child Python process that imports the program."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def make_run_dir(workload: str, seed: int) -> Path:
    """A fresh working directory inside the checkout for this run."""
    base = ROOT / ".perfbench_run"
    path = base / f"{workload}-{seed}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def filesystem_of(path: Path) -> str:
    """The filesystem type of the mount holding *path* (from /proc/mounts)."""
    target = str(Path(path).resolve())
    best, best_type = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount_point = fields[1].replace("\\040", " ")
                if target == mount_point or target.startswith(
                    mount_point.rstrip("/") + "/"
                ):
                    if len(mount_point) >= len(best):
                        best, best_type = mount_point, fields[2]
    except OSError:
        pass
    return best_type


def provenance(seed: int, run_dir: Path) -> dict:
    """What a reader needs to compare two results."""
    import numpy as np

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "run_dir_fs": filesystem_of(run_dir),
        "fsync_policy": FSYNC_POLICY,
    }


def peak_rss_mib_self() -> float:
    """This process's peak resident set size (VmHWM), in MiB."""
    return peak_rss_mib_of(os.getpid())


def peak_rss_mib_of(pid: int) -> float:
    """Peak resident set size of a live process, in MiB (Linux VmHWM)."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM line for pid {pid}")
