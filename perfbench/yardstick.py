"""A fixed reference loop that tracks how fast the host runs right now.

The benchmark shares a small machine whose speed swings by up to twofold
for seconds to minutes at a time, and the same pass can take 3.4 s in one
minute and 6.7 s in the next.  So between the items of a pass the harness
runs rounds of this loop, a fixed share of the time the items took, and
rescales the pass's seconds by how long a round took against its nominal
time.  Slow phases of the host stretch both by about the same factor; a
slower program stretches only the items.

The loop does not import gallai_forge and must not change: every commit is
measured against the same rounds.  It mixes the two kinds of work the
package does, Python integer and bit operations with small containers (the
search) and NumPy operations on small arrays (the codec and decompose).
"""

from __future__ import annotations

import time

import numpy as np

# The nominal time of one round: about what a round takes on a quiet
# 2-vCPU Xeon VM, so that rescaled seconds read close to wall seconds there.
ROUND_SECONDS = 0.010

_PY_STEPS = 30_000
_NP_STEPS = 100
_BOARD = np.random.default_rng(20180927).integers(0, 7, size=(200, 200)).astype(np.int8)


def one_round() -> int:
    """One round of fixed work; returns a checksum so nothing is skipped."""
    acc = 0
    seen = {}
    for i in range(_PY_STEPS):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x >> 3
        if x & 7 == 0:
            seen[x & 1023] = i
    for i in range(_NP_STEPS):
        hits = _BOARD == (i % 7)
        acc += int(hits.sum()) + int(np.flatnonzero(hits[i]).size)
        acc += int(np.unique(_BOARD[i : i + 10 : 2, ::3]).size)
    return acc + len(seen)


class Yardstick:
    """Runs rounds after each stretch of measured work, ``share`` of its
    time, and turns the work's seconds into reference seconds."""

    def __init__(self, share: float):
        self.share = share
        self.reset()

    def reset(self) -> None:
        self._owed = 0.0
        self.rounds = 0
        self.seconds = 0.0

    def follow(self, busy_seconds: float) -> None:
        """Run rounds until ``share`` of all work followed so far is matched;
        the shortfall or excess carries over to the next call."""
        self._owed += self.share * busy_seconds
        while self._owed > 0:
            begin = time.perf_counter()
            one_round()
            took = time.perf_counter() - begin
            self._owed -= took
            self.seconds += took
            self.rounds += 1

    def scale(self) -> float:
        """Nominal over measured time per round since the last reset: below 1
        while the host runs slow.  Measured seconds times this are reference
        seconds."""
        return ROUND_SECONDS * self.rounds / self.seconds
