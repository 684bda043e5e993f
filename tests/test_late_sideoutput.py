"""Dead-letter side output for late rows (engine `late_root`).

The watermark contract says a row whose every covering pane already
closed is dropped from the aggregate — but at 100 TB "dropped" must
mean ROUTED, not lost: the engine commits late rows per epoch to a
second exactly-once sink so they can be audited or re-driven.  Ground
truth is the sequential oracle running the same operator with
``capture_late=True``; the invariant is the late row MULTISET (by
offset), identical for incremental and buffered window specs (both
folded map-side), session windows, the symmetric join, and kill/resume
replay.
"""

from __future__ import annotations

import pyarrow as pa
import pytest

from parallel_dataflow_ray import fixtures
from parallel_dataflow_ray.streaming import (
    OracleExecutor, SessionWindows, StreamEngine, TumblingWindows,
)
from parallel_dataflow_ray.streaming.kernels import KERNELS
from parallel_dataflow_ray.streaming.partitioning import (
    epochs_from_table, interleave_streams)
from parallel_dataflow_ray.streaming.sink import ExactlyOnceSink

N = 600
#: late rows need window size comparable to the arrival jitter: with
#: 2 s windows a 40 ms scramble can never cross a closed boundary
#: (watermarks stair-step per ~1 s epoch), so use 20 ms windows and
#: 5 ms allowed lateness — rows jittered back across an epoch edge
#: land in panes the frontier already closed
LATENESS_US = 5_000
WIN = TumblingWindows(20_000)
EPOCH_ROWS = 97


def _table() -> pa.Table:
    # 120 ms jitter >> 20 ms panes + 5 ms lateness -> real late rows
    return fixtures.clips_table(N, seed=42, lateness_ms=120, n_speakers=7,
                                dup_every=13)


def _offsets(tbl: pa.Table | None) -> list[int]:
    if tbl is None or tbl.num_rows == 0:
        return []
    return sorted(tbl["offset"].to_pylist())


def _oracle_late(op_kind: str, kw: dict) -> tuple[list[dict], list[int]]:
    o = OracleExecutor(op_kind, dict(kw), LATENESS_US, capture_late=True)
    rows, om = o.run(epochs_from_table(_table(), EPOCH_ROWS))
    assert om["late_rows"] > 0, "fixture must actually produce late rows"
    late = _offsets(om.get("late_table"))
    assert len(late) == om["late_rows"]  # capture agrees with the count
    return rows, late


def _engine_late(op_kind: str, kw: dict, tmp_path) -> tuple[list[dict], list[int]]:
    eng = StreamEngine(op_kind, dict(kw), num_partitions=4,
                       allowed_lateness_us=LATENESS_US,
                       sink_root=str(tmp_path / "sink"),
                       late_root=str(tmp_path / "late"))
    eng.run(epochs_from_table(_table(), EPOCH_ROWS))
    main = ExactlyOnceSink.read_all(str(tmp_path / "sink"))
    late = ExactlyOnceSink.read_all(str(tmp_path / "late"))
    rows = main.to_pylist() if main is not None else []
    return rows, _offsets(late)


@pytest.mark.parametrize("kernel", [
    "clip_stats",       # incremental: folded partial states
    "codec_funnel",     # buffered: run-buffer partials
])
def test_late_sink_matches_oracle(tmp_path, kernel):
    kw = {"spec": KERNELS[kernel](), "assigner": WIN}
    oracle_rows, oracle_late = _oracle_late("window", kw)
    engine_rows, engine_late = _engine_late("window", kw, tmp_path)
    assert engine_late == oracle_late
    from parallel_dataflow_ray.streaming.oracle import canonical_sort
    assert canonical_sort(engine_rows) == canonical_sort(oracle_rows)


def test_late_sink_session_windows(tmp_path):
    kw = {"spec": KERNELS["clip_stats"](), "assigner": SessionWindows(20_000)}
    _, oracle_late = _oracle_late("session", kw)
    _, engine_late = _engine_late("session", kw, tmp_path)
    assert engine_late == oracle_late


def test_late_sink_exactly_once_on_resume(tmp_path):
    """Kill mid-stream, resume from checkpoint: the late sink's epoch
    commits are idempotent, so replayed epochs neither duplicate nor
    lose late rows."""
    kw = {"spec": KERNELS["clip_stats"](), "assigner": WIN}
    _, oracle_late = _oracle_late("window", kw)
    epochs = epochs_from_table(_table(), EPOCH_ROWS)

    def eng():
        return StreamEngine("window",
                            {"spec": KERNELS["clip_stats"](),
                             "assigner": WIN},
                            num_partitions=4,
                            allowed_lateness_us=LATENESS_US,
                            sink_root=str(tmp_path / "sink"),
                            late_root=str(tmp_path / "late"),
                            ckpt_root=str(tmp_path / "ckpt"),
                            ckpt_interval=2)

    eng().run(epochs, stop_after_epoch=len(epochs) // 2)   # crash
    eng().run(epochs)                                      # resume
    late = ExactlyOnceSink.read_all(str(tmp_path / "late"))
    assert _offsets(late) == oracle_late


#: a 20 ms join bound against the same 120 ms jitter makes late rows
#: on both streams
JOIN_KW = dict(key_column="clip_id", time_bound_us=20_000,
               left_columns=("sr_hz",), right_columns=("transcript",))


def _join_epochs() -> list[pa.Table]:
    clips = fixtures.clips_table(N, seed=42, lateness_ms=120, n_speakers=7)
    events = fixtures.transcript_events_table(N, seed=42, lateness_ms=120)
    merged = interleave_streams(clips.drop_columns(["transcript"]), events)
    return epochs_from_table(merged, EPOCH_ROWS)


def _stream_offsets(tbl: pa.Table | None) -> list[tuple[int, int]]:
    if tbl is None or tbl.num_rows == 0:
        return []
    return sorted(zip(tbl["__stream"].to_pylist(), tbl["offset"].to_pylist()))


def test_late_sink_symmetric_join(tmp_path):
    """The join routes its late rows to the dead-letter sink too: the
    late sink holds exactly the oracle's late rows, by (stream, offset),
    and the main sink still matches the oracle."""
    epochs = _join_epochs()
    o = OracleExecutor("join", dict(JOIN_KW), LATENESS_US, capture_late=True)
    oracle_rows, om = o.run(epochs)
    oracle_late = _stream_offsets(om["late_table"])
    assert om["late_rows"] > 0 and len(oracle_late) == om["late_rows"]
    StreamEngine("join", dict(JOIN_KW), num_partitions=4,
                 allowed_lateness_us=LATENESS_US,
                 sink_root=str(tmp_path / "sink"),
                 late_root=str(tmp_path / "late")).run(epochs)
    late = ExactlyOnceSink.read_all(str(tmp_path / "late"))
    assert _stream_offsets(late) == oracle_late
    from parallel_dataflow_ray.streaming.oracle import canonical_sort
    main = ExactlyOnceSink.read_all(str(tmp_path / "sink"))
    assert oracle_rows and canonical_sort(main) == canonical_sort(oracle_rows)


def test_late_sink_refused_with_salted_join(tmp_path):
    """A salted join replicates a broadcast-side row to every salt
    route, so its late rows would reach the late sink once per route."""
    with pytest.raises(ValueError, match="salted_keys"):
        StreamEngine("join", dict(JOIN_KW), num_partitions=4,
                     salted_keys={"clip-00000001": 2},
                     late_root=str(tmp_path / "late"))
