"""OracleExecutor — single-threaded, in-order golden-output executor.

Graft of the reference's sequential worklist executor
(``impls/src/sequential.rs:13-66``): a deliberately simple, obviously
correct implementation whose output defines ground truth for every
differential test, exactly as "the first (Sequential) result becomes
the expectation" in the reference's conformance harness
(``impls/src/bin/test.rs:29-31``).  Never used at scale.

It consumes the SAME epoch framing and watermark schedule as the
parallel engine but processes rows one by one on the driver in arrival
order, with plain dict state and no partitioning, merging, actors, or
checkpoints — an algorithmically independent implementation of the
operator semantics.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .operators import make_operator
from .watermark import WatermarkClock


def _orderable(t: pa.DataType) -> bool:
    return not (pa.types.is_nested(t) or pa.types.is_dictionary(t))


def canonical_order(table: pa.Table) -> pa.Table:
    """Deterministic row order for engine-vs-oracle comparison: each
    epoch's emissions are an unordered set, so both sides sort by every
    orderable column (nested and dictionary columns aside), in
    column-name order, ``bytes`` included — one Arrow sort."""
    keys = [(c, "ascending") for c in sorted(table.column_names)
            if _orderable(table.schema.field(c).type)]
    if table.num_rows < 2 or not keys:
        return table
    return table.take(pc.sort_indices(table, sort_keys=keys))


def canonical_sort(rows: pa.Table | list[dict] | None) -> list[dict]:
    """:func:`canonical_order` as a list of row dicts (a list of dicts is
    turned into a table first), for comparisons in tests and tools."""
    if rows is None:
        return []
    if not isinstance(rows, pa.Table):
        rows = pa.Table.from_pylist(list(rows))
    return canonical_order(rows).to_pylist()


class OracleExecutor:
    """Runs one operator over an epoch-framed stream, driver-local."""

    def __init__(self, op_kind: str, op_kwargs: dict, allowed_lateness_us: int = 0,
                 capture_late: bool = False):
        # one un-partitioned operator instance holds ALL keys' state
        self.op = make_operator(op_kind, **op_kwargs)
        self.clock = WatermarkClock(allowed_lateness_us)
        self.op.capture_late = capture_late

    def run(self, epochs: list[pa.Table], ts_column: str = "event_ts",
            final_flush: bool = False) -> tuple[list[dict], dict]:
        """Returns (emitted rows in canonical order, metrics).

        ``final_flush`` appends a virtual end-of-stream epoch with
        watermark = +inf (the fixpoint-termination analog: worklist
        empty -> every remaining window closes and emits)."""
        from .partitioning import load_epoch

        emitted: list[dict] = []
        for epoch_idx, source in enumerate(epochs):
            table = load_epoch(source)
            wm_prev = self.clock.watermark
            if table.num_rows:
                # row-at-a-time, arrival order — the "FIFO worklist" spirit
                for i in range(table.num_rows):
                    self.op.apply(table.slice(i, 1), wm_prev)
                max_ts = pa.compute.max(
                    table[ts_column].cast(pa.int64())).as_py()
                self.clock.observe(max_ts)
            emitted.extend(canonical_sort(self.op.on_watermark(self.clock.watermark)))
        if final_flush:
            emitted.extend(canonical_sort(self.op.on_watermark(2**62)))
        metrics = {"late_rows": self.op.late_rows, "rows_seen": self.op.rows_seen,
                   "final_watermark": self.clock.watermark}
        if self.op.capture_late:
            # dead-letter ground truth for the engine's late side output
            metrics["late_table"] = self.op.take_late()
        return emitted, metrics
