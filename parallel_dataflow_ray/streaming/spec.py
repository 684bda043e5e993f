"""StreamOpSpec — the engine's pluggable operator surface.

Graft of the reference's ``DataflowSpec`` trait
(``utils/src/dataflow_spec.rs:5-31``): an analysis there is
``{reversed?, entry, init, meet, transfer, finish}`` over a generic
lattice value; a streaming operator here is
``{order, initial_state, merge, update_table, finish}`` over a generic
state, where ``update_table(state, table)`` folds one run of rows, an
Arrow table, into the state.

The semilattice contract is inherited verbatim and is THE correctness
invariant of the whole engine (reference ``blog/blog.md:91-103``):
``merge`` must be **commutative, associative and idempotent** over
states built from disjoint row sets, and ``update_table`` must commute
with ``merge`` up to final state equality, whatever the row order
inside a run.  That is exactly what makes (a) partial+final aggregation
across partitions safe, and (b) idempotent epoch replay (exactly-once)
safe.

Operators with ``order == "reverse"`` (the LiveVars analog, reference
``passes/src/live_vars.rs:11-13``) cannot fold incrementally under
out-of-order arrival; they set ``incremental = False`` and the runtime
keeps Arrow copies of their runs, then at window close dedupes the
union by ``offset`` (a multiset-union CRDT) and calls ``update_table``
once, in ``(event_ts, offset)`` order (descending for reverse), with
``event_ts`` as int64 microseconds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import pyarrow as pa


class _Top:
    """Lattice top sentinel (the reference's ``Value::Any`` /
    ``Set::Full`` — ``passes/src/const_prop.rs:5-9``,
    ``passes/src/available_expr.rs:12-18``)."""

    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "TOP"

    def __reduce__(self):  # pickle to the singleton
        return (_Top, ())


TOP = _Top()


class StreamOpSpec(ABC):
    """A keyed, windowed streaming operator."""

    #: registry / display name
    name: str = "op"

    #: "forward" folds rows in ascending (event_ts, offset);
    #: "reverse" in descending — reverse implies ``incremental = False``.
    order: str = "forward"

    #: if False the runtime buffers rows per (key, window) and calls
    #: ``update_table`` exactly once at window close with all rows in order.
    incremental: bool = True

    #: column the operator keys on
    key_column: str = "speaker_id"

    #: columns update_table() needs (engine prunes the rest before the shuffle)
    value_columns: tuple = ()

    @abstractmethod
    def initial_state(self) -> Any:
        """The lattice ``init`` value (reference ``dataflow_spec.rs:13-15``)."""

    def merge(self, a: Any, b: Any) -> Any:
        """The ``meet``: combine two partial states. Semilattice laws apply.
        Required of incremental specs only: the runtime merges a buffered
        spec's partials as unions of their row buffers."""
        raise NotImplementedError(f"{self.name}: merge is required of "
                                  "incremental specs")

    @abstractmethod
    def update_table(self, state: Any, table: pa.Table) -> Any:
        """The ``transfer``: fold a run of rows into ``state`` and return
        the new state.  Incremental specs get runs in no set order;
        buffered specs get their whole window once, in operator order."""

    def finish(self, key: Any, window: tuple, state: Any) -> dict | None:
        """Project the closed-window state to an output row (reference
        ``finish`` default at ``dataflow_spec.rs:28-30``).  Return None to
        emit nothing for this (key, window)."""
        return {"key": key, "window_start": window[0], "window_end": window[1],
                "state": repr(state)}


class CompositeSpec(StreamOpSpec):
    """Run SEVERAL kernels over one stream in ONE shuffle.

    N aggregates over the same keyed stream normally cost N engine runs
    — N scans, N shuffles.  The composite's state is a tuple of the
    sub-kernels' states folded side by side, so every sub-kernel sees
    exactly the rows it would have seen alone and the whole bundle
    pays ONE scan + ONE hash shuffle.  The semilattice laws hold
    componentwise, so everything built on them (partial+final merge,
    salting, map-side combine, replay idempotence) transfers.

    Contracts: all sub-specs must share ``key_column`` and forward
    order.  ``incremental`` is the AND of the subs (a buffered sub
    forces the buffered fold; incremental subs fold correctly there
    too — one ``update_table`` call with all rows is a legal fold).
    ``finish`` merges the subs' output rows, prefixing value columns
    with the sub-kernel's name on collision."""

    incremental = True
    order = "forward"

    def __init__(self, specs: list[StreamOpSpec], name: str = "composite"):
        assert specs, "composite needs at least one sub-spec"
        keys = {s.key_column for s in specs}
        assert len(keys) == 1, f"sub-specs must share key_column: {keys}"
        assert all(s.order == "forward" for s in specs), \
            "composite sub-specs must be forward-order"
        self.specs = list(specs)
        self.name = name
        self.key_column = specs[0].key_column
        self.incremental = all(s.incremental for s in specs)
        self.value_columns = tuple(dict.fromkeys(
            c for s in specs for c in s.value_columns))

    def initial_state(self) -> tuple:
        return tuple(s.initial_state() for s in self.specs)

    def merge(self, a: tuple, b: tuple) -> tuple:
        return tuple(s.merge(x, y)
                     for s, x, y in zip(self.specs, a, b))

    def update_table(self, state: tuple, table: pa.Table) -> tuple:
        return tuple(s.update_table(x, table)
                     for s, x in zip(self.specs, state))

    def finish(self, key: Any, window: tuple, state: tuple) -> dict | None:
        out: dict | None = None
        for s, x in zip(self.specs, state):
            row = s.finish(key, window, x)
            if row is None:
                continue
            if out is None:
                out = dict(row)
                continue
            for c, v in row.items():
                if c in out and out[c] == v:
                    continue  # shared key/window columns
                out[f"{s.name}_{c}" if c in out else c] = v
        return out
