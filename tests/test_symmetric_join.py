"""Symmetric hash join: engine-vs-oracle parity + PCM/transcript row parity.

The join is the north_star's flagship stateful operator: audio-clip
stream ⋈ transcript stream on clip_id, co-partitioned, watermark-evicted.
Row parity follows BASELINE.json input_hint: decoded-PCM SNR >= 30 dB
allclose + transcript string equality.
"""

from __future__ import annotations

import numpy as np

from parallel_dataflow_ray import fixtures
from parallel_dataflow_ray.functions import audio
from parallel_dataflow_ray.streaming import OracleExecutor, StreamEngine
from parallel_dataflow_ray.streaming.partitioning import (
    epochs_from_table, interleave_streams)

N = 400
LATENESS_US = 50_000
BOUND_US = 5_000_000

JOIN_KW = dict(key_column="clip_id", time_bound_us=BOUND_US,
               left_columns=("bytes", "codec", "sr_hz", "offset"),
               right_columns=("transcript",))


def _merged():
    clips = fixtures.clips_table(N, seed=42, lateness_ms=30, n_speakers=5)
    # drop the clips-side transcript so the joined transcript provably
    # comes from the right-hand stream
    clips = clips.drop_columns(["transcript"])
    events = fixtures.transcript_events_table(N, seed=42, lateness_ms=30)
    return interleave_streams(clips, events)


def test_join_engine_matches_oracle():
    epochs = epochs_from_table(_merged(), 71)
    oracle_rows, om = OracleExecutor("join", dict(JOIN_KW), LATENESS_US).run(epochs)
    eng = StreamEngine("join", dict(JOIN_KW), num_partitions=4,
                       allowed_lateness_us=LATENESS_US, key_column="clip_id")
    res = eng.run(epochs, collect=True)
    engine_rows = [r for ep in res["emitted"] for r in ep]
    assert engine_rows == oracle_rows
    assert len(oracle_rows) > 0


def test_join_row_parity_pcm_and_transcript():
    """Every joined row carries audio that decodes to the fixture's exact
    PCM (SNR >= 30 dB vs the synthesizer) and the right-stream transcript."""
    epochs = epochs_from_table(_merged(), 71)
    eng = StreamEngine("join", dict(JOIN_KW), num_partitions=4,
                       allowed_lateness_us=LATENESS_US, key_column="clip_id")
    res = eng.run(epochs, collect=True)
    rows = [r for ep in res["emitted"] for r in ep]
    assert rows
    checked = 0
    for r in rows[:50]:
        i = int(r["clip_id"].split("-")[1])
        ref_row = fixtures.clip_row(42, i)
        ref_pcm = audio.decode_clip(ref_row["bytes"], ref_row["codec"])
        got_pcm = audio.decode_clip(r["bytes"], r["codec"])
        assert audio.snr_db(ref_pcm, got_pcm) >= 30.0
        assert r["transcript"] == fixtures.transcript_for(42, i)
        checked += 1
    assert checked > 0


def test_join_dedupes_replayed_rows():
    """Re-applying an epoch's shard to the same operator state must not
    double-emit (offset-keyed idempotent ingest)."""
    from parallel_dataflow_ray.streaming.operators import SymmetricJoinOp

    merged = _merged()
    op = SymmetricJoinOp(**JOIN_KW)
    op.apply(merged, wm_prev=-(2**62))
    first = op.on_watermark(0)  # watermark far in past: nothing evicted
    stored = [len(st) for st in op.stores]
    op.apply(merged, wm_prev=-(2**62))  # replay identical rows
    second = op.on_watermark(0)
    assert len(first) > 0
    assert second.num_rows == 0
    assert [len(st) for st in op.stores] == stored


def test_join_sink_keeps_integer_payload_types(tmp_path):
    """Integer payload columns that are null on the other stream's rows
    (``sr_hz``, ``dur_ms``) reach the sink with the input's own type
    (int32), neither float64 nor widened to int64: the operator emits
    Arrow tables taken from each side's stored columns."""
    import pyarrow as pa

    from parallel_dataflow_ray.streaming.sink import ExactlyOnceSink

    kw = dict(JOIN_KW, left_columns=("bytes", "codec", "sr_hz", "dur_ms"))
    root = str(tmp_path / "sink")
    eng = StreamEngine("join", kw, num_partitions=2,
                       allowed_lateness_us=LATENESS_US, key_column="clip_id",
                       sink_root=root, sink_durable=False)
    eng.run(epochs_from_table(_merged(), 71))
    out = ExactlyOnceSink.read_all(root)
    assert out is not None and out.num_rows > 0
    merged = _merged()
    for col in ("sr_hz", "dur_ms"):
        assert merged.schema.field(col).type == pa.int32()
        assert out.schema.field(col).type == pa.int32(), out.schema


def test_join_state_is_bounded():
    """Rows age out of the join state.  Mid-stream, a snapshot is no
    bigger than the stored and pending rows' Arrow bytes plus a fixed
    pickling overhead per chunk and column — a store that kept slices of
    its input would pickle every input epoch's whole buffers — and after
    the final flush both stores hold no rows."""
    import pickle

    import pyarrow as pa
    import pyarrow.compute as pc

    from parallel_dataflow_ray.streaming.operators import SymmetricJoinOp

    op = SymmetricJoinOp(**dict(JOIN_KW, time_bound_us=100_000))

    def check_snapshot():
        live = [t for t in (*op.stores, *op.pending) if t is not None]
        chunks = sum(t.num_columns * t.column(0).num_chunks for t in live)
        live_bytes = sum(t.nbytes for t in live)
        assert len(op.snapshot()) < live_bytes + 400 * chunks + 1024

    wm, checked = -(2**62), 0
    for epoch in epochs_from_table(_merged(), 71):
        op.apply(epoch, wm)
        check_snapshot()  # the epoch's rows as stored, before eviction
        wm = max(wm, pc.max(epoch["event_ts"].cast(pa.int64())).as_py())
        op.on_watermark(wm)
        check_snapshot()
        live = [st for st in op.stores if st is not None]
        assert op.state_stats() == (sum(st.num_rows for st in live),
                                    sum(st.nbytes for st in live))
        assert op.state_stats()[0] < 71  # rows do age out
        checked += 1
    assert checked > 5
    op.on_watermark(2**62)
    assert [len(st) for st in op.stores] == [0, 0]
    assert op.state_stats() == (0, 0)
    assert not pickle.loads(op.snapshot())["pending"]


def test_join_metrics_report_state():
    """Every metrics row carries the operator's live state; the join's
    stored rows drop to 0 once the final flush passes every row."""
    epochs = epochs_from_table(_merged(), 71)
    eng = StreamEngine("join", dict(JOIN_KW), num_partitions=2,
                       allowed_lateness_us=LATENESS_US, key_column="clip_id")
    metrics = eng.run(epochs, final_flush=True)["metrics"]
    assert all(m["state_rows"] >= 0 and m["state_bytes"] >= 0
               for m in metrics)
    assert max(m["state_rows"] for m in metrics) > 0
    last = max(m["epoch"] for m in metrics)
    flushed = [m for m in metrics if m["epoch"] == last]
    assert len(flushed) == 2
    assert all(m["state_rows"] == 0 and m["state_bytes"] == 0
               for m in flushed)
