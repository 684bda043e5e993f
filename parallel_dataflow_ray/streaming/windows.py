"""Window assigners: tumbling, sliding, session.

A window is ``(start_us, end_us)`` half-open ``[start, end)`` in
event-time microseconds.  An assigner is a description — kind plus
size, slide or gap.  ``operators._window_runs`` maps each row to its
one ``gcd(size, slide)`` slice (a tumbling window is its own slice) and
a window merges its slices at close (Scotty, ICDE 2018); sessions are
dynamic and handled by interval-merging in ``SessionAggregateOp``.

These replace the reference's CFG successor structure: a row "notifies"
exactly one (key, slice) vertex, the way an updated block's out-value
notifies its CFG successors once (``impls/src/sequential.rs:45-47``).
"""

from __future__ import annotations


class TumblingWindows:
    kind = "tumbling"

    def __init__(self, size_us: int):
        assert size_us > 0
        self.size_us = self.slide_us = int(size_us)


class SlidingWindows:
    """Overlapping windows of ``size`` every ``slide`` (size % slide == 0
    not required), each merged from its ``gcd(size, slide)`` slices."""

    kind = "sliding"

    def __init__(self, size_us: int, slide_us: int):
        assert 0 < slide_us <= size_us
        self.size_us = int(size_us)
        self.slide_us = int(slide_us)


class SessionWindows:
    """Gap-based sessions.  A row opens the interval ``[ts, ts + gap)``;
    the stateful operator merges overlapping intervals (and their
    states) as rows arrive — merging is commutative & associative, so
    cross-partition partial merge is safe.
    """

    kind = "session"

    def __init__(self, gap_us: int):
        assert gap_us > 0
        self.gap_us = int(gap_us)
