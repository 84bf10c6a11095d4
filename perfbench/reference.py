"""A fixed reference kernel that gauges how fast the host runs right now.

The shared host this benchmark runs on changes speed by up to half again
over minutes, for every process alike. child.py times this kernel just
before and just after the `asgd run` it measures, and run.py divides the
run's times by it (see README.md, "Host-speed normalisation"). The kernel
mixes what asgd spends its time on: an interpreted event loop over a heap
and dicts, numpy calls on tiny point sets, and argsort, gather and mean
along an axis of a (2000, 8, 2) array, as in the batch driver. It imports
nothing from asgd, so no change to asgd can move it; it is deterministic,
so its work is the same in every run.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

# Its time on a calm host of the kind the pins were taken on; run.py
# reports normalised times in seconds of that host.
NOMINAL_S = 0.07


def _event_loop(steps: int) -> int:
    queue = [(0.0, i) for i in range(8)]
    state = {i: 0 for i in range(8)}
    x = 12345
    for _ in range(steps):
        now, who = heapq.heappop(queue)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        state[who] += x & 7
        heapq.heappush(queue, (now + 1.0 + (x & 15) / 16.0, who))
    return sum(state.values())


def _small_arrays(rounds: int) -> float:
    pts = np.linspace(0.0, 1.0, 12).reshape(6, 2)
    total = 0.0
    for _ in range(rounds):
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        i, j = divmod(int(np.argmax(d2)), d2.shape[0])
        mid = (pts[i] + pts[j]) / 2.0
        pts = pts * 0.999 + mid * 0.001
        total += float(mid[0])
    return total


def _wide_arrays(rounds: int) -> float:
    x = np.linspace(-1.0, 1.0, 32000).reshape(2000, 8, 2)
    for _ in range(rounds):
        keys = x[:, :, 0] * 3.0 - x[:, :, 1]
        order = np.argsort(keys, axis=1)[:, :4]
        picked = np.take_along_axis(x, order[:, :, None], axis=1)
        x = x - 0.01 * (x - picked.mean(axis=1, keepdims=True))
    return float(x.sum())


def run() -> float:
    """Seconds this call took to do the kernel's fixed work once."""
    start = time.perf_counter()
    _event_loop(24000)
    _small_arrays(2400)
    _wide_arrays(30)
    return time.perf_counter() - start
