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
    op.apply(merged, wm_prev=-(2**62))  # replay identical rows
    second = op.on_watermark(0)
    assert len(first) > 0
    assert second == []


def test_join_sink_keeps_integer_payload_types(tmp_path):
    """Integer payload columns that are null on the other stream's rows
    (``sr_hz``, ``dur_ms``) reach the sink integer-typed, not float64.
    The row-dict emission still widens int32 to int64 (the sink schema
    comes from ``pa.Table.from_pylist``); that goes when the operator
    emits Arrow tables."""
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
    for col in ("sr_hz", "dur_ms"):
        assert pa.types.is_integer(out.schema.field(col).type), out.schema
