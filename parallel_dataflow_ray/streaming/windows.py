"""Window assigners: tumbling, sliding (pane replication), session.

A window is ``(start_us, end_us)`` half-open ``[start, end)`` in
event-time microseconds.  An assigner is a description — kind plus
size, slide or gap; ``operators._window_runs`` computes each row's
window(s) from it by arithmetic on the ``event_ts`` column (sessions are
dynamic and handled by interval-merging in ``SessionAggregateOp``).

These replace the reference's CFG successor structure: a row "notifies"
exactly the (key, window) vertices it falls into, the way an updated
block's out-value notifies its CFG successors
(``impls/src/sequential.rs:45-47``).
"""

from __future__ import annotations


class TumblingWindows:
    kind = "tumbling"

    def __init__(self, size_us: int):
        assert size_us > 0
        self.size_us = int(size_us)


class SlidingWindows:
    """Overlapping windows of ``size`` every ``slide`` (size % slide == 0
    not required).  A row replicates into ``ceil(size/slide)`` panes."""

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
