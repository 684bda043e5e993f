"""Session windows have one boundary rule, whatever the batching.

Two rows of one key exactly ``gap`` apart share a session: the DuckDB
twin breaks a session only where the gap between successive rows is
``> gap``.  The engine (one ``apply`` per shard), the oracle (one
``apply`` per row) and DuckDB must agree when such a pair sits inside
one shard, across two blocks of one epoch, and across an epoch
boundary.  The last case also pins the close rule (a session closes
once ``end < wm``) and the late rule (a row is late once
``wm_prev > ts + gap``).
"""

from __future__ import annotations

import duckdb
import pyarrow as pa
import pytest

from parallel_dataflow_ray.streaming import (
    ExactlyOnceSink, OracleExecutor, SessionWindows, StreamEngine)
from parallel_dataflow_ray.streaming.kernels import KERNELS

GAP = 100_000
T0 = 1_000_000


def _rows(spec: list[tuple[str, int]], offset0: int = 0) -> pa.Table:
    """(speaker, ts offset from T0) pairs -> one arrival-ordered epoch."""
    n = len(spec)
    return pa.table({
        "speaker_id": [k for k, _ in spec],
        "event_ts": pa.array([T0 + t for _, t in spec], pa.int64()),
        "offset": pa.array(range(offset0, offset0 + n), pa.int64()),
        "dur_ms": pa.array([10 + i % 7 for i in range(n)], pa.int64()),
        "sr_hz": pa.array([8000 * (1 + i % 3) for i in range(n)], pa.int64()),
    })


def _one_shard() -> list[pa.Table]:
    return [_rows([("a", 0), ("b", 40_000), ("a", GAP), ("a", 2 * GAP + 1)])]


def _two_blocks() -> list[pa.Table]:
    # the engine cuts an epoch into 8,192-row blocks: "a"@0 opens the
    # first block and "a"@GAP opens the second
    filler = [(f"f{i % 5}", (i * 37) % (3 * GAP)) for i in range(8191)]
    return [_rows([("a", 0), *filler, ("a", GAP)])]


def _epoch_boundary() -> list[pa.Table]:
    # epoch 0 leaves wm == GAP: "a"'s session [0, GAP) ends exactly at
    # the watermark, so it stays open for "a"@GAP in epoch 1; "c"@0
    # arrives with wm_prev == 0 + GAP and is not late
    return [_rows([("a", 0), ("b", GAP)]),
            _rows([("a", GAP), ("c", 0), ("b", 3 * GAP)], offset0=2)]


def _duckdb(epochs: list[pa.Table]) -> list[dict]:
    events = pa.concat_tables(epochs)  # noqa: F841 (read by DuckDB)
    return duckdb.sql(f"""
        WITH f AS (SELECT *, CASE WHEN event_ts - LAG(event_ts) OVER w > {GAP}
                                   OR LAG(event_ts) OVER w IS NULL
                                  THEN 1 ELSE 0 END AS brk
                   FROM events
                   WINDOW w AS (PARTITION BY speaker_id ORDER BY event_ts)),
        g AS (SELECT *, SUM(brk) OVER (PARTITION BY speaker_id
                                       ORDER BY event_ts
                                       ROWS UNBOUNDED PRECEDING) AS sid
              FROM f)
        SELECT speaker_id AS key,
               CAST(MIN(event_ts) AS BIGINT) AS window_start,
               CAST(MAX(event_ts) + {GAP} AS BIGINT) AS window_end,
               CAST(COUNT(*) AS BIGINT) AS n_clips,
               CAST(SUM(dur_ms) AS BIGINT) AS total_dur_ms,
               CAST(MAX(sr_hz) AS BIGINT) AS max_sr_hz
        FROM g GROUP BY speaker_id, sid
        """).arrow().to_pylist()


def _key(r: dict) -> tuple:
    return (r["key"], r["window_start"])


@pytest.mark.parametrize("epochs", [_one_shard, _two_blocks, _epoch_boundary],
                         ids=["one_shard", "two_blocks", "epoch_boundary"])
def test_rows_gap_apart_share_a_session(epochs):
    epochs = epochs()
    kw = {"spec": KERNELS["clip_stats"](), "assigner": SessionWindows(GAP)}
    oracle_rows, om = OracleExecutor("session", dict(kw)).run(
        epochs, final_flush=True)
    res = StreamEngine("session", dict(kw), num_partitions=2).run(
        epochs, collect=True, final_flush=True)
    engine_rows = [r for ep in res["emitted"] for r in ep]
    want = sorted(_duckdb(epochs), key=_key)
    assert om["late_rows"] == 0
    assert sorted(oracle_rows, key=_key) == want
    assert sorted(engine_rows, key=_key) == want
    a = [r for r in want if r["key"] == "a"]
    assert (a[0]["window_start"], a[0]["window_end"]) == (T0, T0 + 2 * GAP)


def test_emitted_session_is_not_reopened(tmp_path):
    """A row at or before the end of a session its key already emitted
    is late: epoch 0 closes a's ``[1000, 1100)`` at wm 1150, and a@1060
    in epoch 1 would otherwise open ``[1060, 1160)`` over it."""
    epochs = [_rows([("a", 1000 - T0), ("b", 1150 - T0)]),
              _rows([("a", 1060 - T0)], offset0=2)]
    kw = {"spec": KERNELS["clip_stats"](), "assigner": SessionWindows(100)}
    oracle_rows, om = OracleExecutor("session", dict(kw),
                                     capture_late=True).run(
        epochs, final_flush=True)
    res = StreamEngine("session", dict(kw), num_partitions=2,
                       sink_root=str(tmp_path / "sink"),
                       late_root=str(tmp_path / "late")).run(
        epochs, final_flush=True)
    engine_rows = ExactlyOnceSink.read_all(str(tmp_path / "sink")).to_pylist()
    late = ExactlyOnceSink.read_all(str(tmp_path / "late")).to_pylist()
    for rows in (oracle_rows, engine_rows):
        a = [(r["window_start"], r["window_end"]) for r in rows
             if r["key"] == "a"]
        assert a == [(1000, 1100)]
    assert om["late_rows"] == 1
    assert om["late_table"].to_pylist() == late
    assert [(r["speaker_id"], r["event_ts"]) for r in late] == [("a", 1060)]
    last = {m["partition"]: m for m in res["metrics"]}
    assert sum(m["late_rows"] for m in last.values()) == 1


def test_snapshot_without_closed_ends_restores_and_reshards():
    """A session snapshot written before the operator kept per-key
    closed-session ends still restores and re-keys, with no such ends."""
    import pickle

    from parallel_dataflow_ray.streaming.operators import make_operator
    from parallel_dataflow_ray.streaming.reshard import reshard_snapshots

    kw = {"spec": KERNELS["clip_stats"](), "assigner": SessionWindows(GAP)}
    op = make_operator("session", **kw)
    op.apply(_rows([("a", 0), ("b", 40_000)]), wm_prev=0)
    d = pickle.loads(op.snapshot())
    del d["closed_ends"]
    old = pickle.dumps(d)
    fresh = make_operator("session", **kw)
    fresh.restore(old)
    assert fresh.closed_ends == {}
    assert fresh.sessions.keys() == op.sessions.keys()
    parts = [pickle.loads(b)
             for b in reshard_snapshots("session", kw, [old], 3)]
    assert all(p["closed_ends"] == {} for p in parts)
    assert sorted(k for p in parts for k in p["sessions"]) == ["a", "b"]
