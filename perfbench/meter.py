"""Host-speed meter: one fixed piece of reference work, timed over and over.

On a shared host a vCPU's speed drifts by tens of percent over seconds and
minutes, and no median inside a run removes a slow minute. The benchmark runs
this script in a child process, on a CPU the timed work does not use, for as
long as it measures. It then scales each timed interval by how long the
reference work took during that interval:

    python3 perfbench/meter.py OUT_FILE CPU PARENT_PID

After each piece of work the script appends "start end" to OUT_FILE, both from
time.perf_counter, which is CLOCK_MONOTONIC and so comparable across
processes. CPU is the CPU to pin itself to, or -1 for none. It runs until it is
terminated, or until PARENT_PID is no longer its parent.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

MIN_PIECES = 3  # pieces a timed interval is scaled by, at least


def reference_work() -> float:
    """A fixed mix of interpreter and numpy work, like dropsplit's; returns a checksum."""
    rows: dict[str, list[float]] = {}
    for i in range(40000):
        rows.setdefault(f"S{i % 5000:06d},C{i % 97:03d}", []).append((i * 0.5) % 10.0)
    ordered = sorted(rows.items(), key=lambda kv: (len(kv[1]), kv[0]))
    total = sum(sum(v) / len(v) for _, v in ordered)
    rng = np.random.default_rng(0)
    X = rng.random((3000, 30))
    Q = rng.random((300, 30))
    dist = (Q * Q).sum(1)[:, None] - 2 * Q @ X.T + (X * X).sum(1)[None, :]
    total += float(np.argpartition(dist, 5, axis=1)[:, :5].sum())
    for _ in range(20):
        col = X[:, rng.integers(30)]
        total += float(np.cumsum(col[np.argsort(col, kind="stable")])[-1])
        total += float(np.unique(np.round(col * 50)).size)
    return total


def load(path: str | os.PathLike) -> np.ndarray:
    """The (start, end) of every finished piece; a line cut by termination is skipped."""
    pieces = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.split()
            if len(parts) == 2 and line.endswith("\n"):
                pieces.append((float(parts[0]), float(parts[1])))
    return np.array(pieces, dtype=np.float64).reshape(-1, 2)


def piece_s(pieces: np.ndarray, start: float, end: float) -> float:
    """Median time of a piece during [start, end].

    The pieces are those whose midpoint falls in the interval, or, when fewer
    than MIN_PIECES do, the MIN_PIECES nearest to its middle.
    """
    mid = pieces.mean(axis=1)
    inside = (mid >= start) & (mid <= end)
    if inside.sum() < MIN_PIECES:
        inside = np.zeros(len(mid), dtype=bool)
        inside[np.argsort(np.abs(mid - (start + end) / 2))[:MIN_PIECES]] = True
    return float(np.median(pieces[inside, 1] - pieces[inside, 0]))


def main(argv: list[str]) -> int:
    out, cpu, parent = argv[0], int(argv[1]), int(argv[2])
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    with open(out, "a", encoding="utf-8") as f:
        while os.getppid() == parent:
            started = time.perf_counter()
            reference_work()
            f.write(f"{started!r} {time.perf_counter()!r}\n")
            f.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
