"""The streaming-engine workloads: input generation, engine
configuration and the expected output computed apart from the engine.

Every input is a pure function of ``(workload, seed, scale)``.  Each
stream is cut into epochs and written as one parquet fragment per epoch,
so the engine reads it the way a production source would
(``partitioning.parquet_epochs``); the driver never holds a shard.
"""

from __future__ import annotations

import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from parallel_dataflow_ray.fixtures import _BASE_TS_US, clips_batch, transcript_for
from parallel_dataflow_ray.streaming import SlidingWindows
from parallel_dataflow_ray.streaming.kernels import AudioEnergy

#: generator jitter: a row's event time trails its arrival slot by up to this
JITTER_MS = 40
#: the engine's lateness bound; above the jitter, so no row is ever late
LATENESS_US = 50_000
#: clip arrival spacing of the fixture generator (10 ms per clip)
SLOT_US = 10_000
MINUTE_US = 60_000_000


class Workload:
    """One benchmark workload.  Subclasses fix the stream and operator."""

    name = ""
    why = ""
    op_kind = "window"
    #: clips per round at scale 1, and rows per epoch
    clips = 0
    epoch_rows = 0
    #: MB one run writes at scale 1 (input, and every round's sink and
    #: checkpoints, each deleted after its checks); the run refuses to
    #: start with less free space
    disk_mb = 0

    def n_clips(self, scale: float) -> int:
        return max(self.epoch_rows * 4, int(self.clips * scale))

    # -- input ------------------------------------------------------------
    def stream(self, seed: int, n: int) -> pa.Table:
        """The arrival-ordered input stream (``offset`` = arrival index)."""
        raise NotImplementedError

    def write_epochs(self, table: pa.Table, out_dir: str) -> None:
        """One parquet fragment per epoch."""
        os.makedirs(out_dir, exist_ok=True)
        for i in range(0, table.num_rows, self.epoch_rows):
            part = table.slice(i, self.epoch_rows)
            pq.write_table(part, os.path.join(out_dir, f"e{i:08d}.parquet"),
                           row_group_size=self.epoch_rows)

    # -- engine -----------------------------------------------------------
    def op_kwargs(self) -> dict:
        raise NotImplementedError

    def engine_kwargs(self) -> dict:
        return {}

    # -- expected output (computed apart from the engine) -------------------
    def expected(self, table: pa.Table) -> pa.Table:
        raise NotImplementedError

    #: columns compared between the sink and :meth:`expected`
    compare_columns: tuple = ()
    #: columns that identify one output row (must be unique in the sink)
    identity_columns: tuple = ()
    #: speakers whose output is also replayed through ``OracleExecutor``
    oracle_speakers = 0


def _audio_stream(seed: int, n: int) -> pa.Table:
    t = clips_batch(seed, 0, n, n_speakers=16, lateness_ms=JITTER_MS)
    # integer microseconds: footer statistics stay exact integers
    return t.set_column(t.schema.get_field_index("event_ts"), "event_ts",
                        t["event_ts"].cast(pa.int64()))


def _window_sql(assigner) -> str:
    """(key, window_start, window_end, row columns) for every pane a row
    falls into — written from the window definition, not the engine."""
    size, slide = assigner.size_us, assigner.slide_us
    panes = -(-size // slide)
    return f"""SELECT * FROM (
                 SELECT src.*, (event_ts // {slide}) * {slide} - j * {slide}
                        AS window_start,
                        (event_ts // {slide}) * {slide} - j * {slide} + {size}
                        AS window_end
                 FROM src, range(0, {panes}) r(j))
               WHERE window_start <= event_ts AND event_ts < window_end"""


def _samples_sql() -> str:
    return ("CASE codec WHEN 'pcm16' THEN octet_length(bytes) // 2 "
            "ELSE octet_length(bytes) END")


class SlideEnergy(Workload):
    name = "slide_energy"
    why = ("each row lands in 12 sliding panes, so pane replication in "
           "the fold dominates")
    clips, epoch_rows = 1024, 32
    disk_mb = 200
    compare_columns = ("key", "window_start", "window_end", "n_clips",
                       "n_samples")
    identity_columns = ("key", "window_start")
    oracle_speakers = 1

    def stream(self, seed, n):
        return _audio_stream(seed, n)

    def op_kwargs(self):
        return {"spec": AudioEnergy(),
                "assigner": SlidingWindows(MINUTE_US, 5_000_000)}

    def expected(self, table):
        src = table.select(["speaker_id", "event_ts", "codec", "bytes"])
        con = duckdb.connect()
        con.register("src", src)
        return con.execute(f"""
            SELECT speaker_id AS key, window_start, window_end,
                   count(*) AS n_clips, sum({_samples_sql()}) AS n_samples
            FROM ({_window_sql(self.op_kwargs()['assigner'])})
            GROUP BY ALL""").arrow()


class JoinPayload(Workload):
    """Clips (with their audio payload) joined with a transcript stream
    on ``clip_id`` within ``TIME_BOUND_US``.

    The clip side re-issues every ``DUP_EVERY``-th row under an earlier
    ``clip_id`` (the fixture's ``dup_every``).  The transcript side holds
    one transcript per clip plus a revised transcript for every
    ``REVISE_EVERY``-th clip, delayed uniformly in ``[0, 2 * bound]``:
    those keys match twice when the revision falls inside the bound, and
    the bound rejects the pair otherwise."""

    name = "join_payload"
    why = ("payload join on the row path: join state, row-dict emission, "
           "payload shuffle and checkpoints of the join state dominate")
    op_kind = "join"
    clips, epoch_rows = 800, 50
    disk_mb = 1500
    TIME_BOUND_US = 2_000_000
    DUP_EVERY = 10
    REVISE_EVERY = 7
    LEFT = ("bytes", "codec", "sr_hz", "dur_ms")
    RIGHT = ("transcript",)
    compare_columns = ("clip_id", "ts_left", "ts_right", "codec", "sr_hz",
                       "dur_ms", "transcript", "payload_hash")
    identity_columns = ("clip_id", "ts_left", "ts_right", "transcript")

    def stream(self, seed, n):
        clips = clips_batch(seed, 0, n, n_speakers=16, lateness_ms=JITTER_MS,
                            dup_every=self.DUP_EVERY)
        rng = np.random.default_rng([seed, 7])
        ids = np.arange(n)
        rev = ids[ids % self.REVISE_EVERY == 3]
        tr_ids = np.concatenate([ids, rev])
        delay = np.concatenate([
            np.zeros(n, np.int64),
            rng.integers(0, 2 * self.TIME_BOUND_US + 1, rev.size)])
        tr_nominal = _BASE_TS_US + tr_ids * SLOT_US + 3_000 + delay
        tr_ts = tr_nominal - rng.integers(0, JITTER_MS * 1000 + 1, tr_ids.size)
        texts = [transcript_for(seed, int(i)) + (" (revised)" if d else "")
                 for i, d in zip(tr_ids, delay)]
        left = pa.table({
            "clip_id": clips["clip_id"],
            **{c: clips[c] for c in self.LEFT},
            "transcript": pa.nulls(n, pa.string()),
            "event_ts": clips["event_ts"].cast(pa.int64()),
            "__stream": pa.array(np.zeros(n, np.int8)),
        })
        right = pa.table({
            "clip_id": pa.array([f"clip-{int(i):08d}" for i in tr_ids]),
            **{c: pa.nulls(tr_ids.size, left[c].type) for c in self.LEFT},
            "transcript": pa.array(texts),
            "event_ts": pa.array(tr_ts.astype(np.int64)),
            "__stream": pa.array(np.ones(tr_ids.size, np.int8)),
        })
        # arrival order = nominal slot order (clips before transcripts on
        # a tie); offset = position in the merged arrival order
        nominal = np.concatenate([_BASE_TS_US + ids * SLOT_US, tr_nominal])
        side = np.concatenate([np.zeros(n), np.ones(tr_ids.size)])
        order = np.lexsort((side, nominal))
        merged = pa.concat_tables([left, right]).take(pa.array(order))
        return merged.append_column(
            "offset", pa.array(np.arange(merged.num_rows, dtype=np.int64)))

    def op_kwargs(self):
        return {"key_column": "clip_id", "time_bound_us": self.TIME_BOUND_US,
                "left_columns": self.LEFT, "right_columns": self.RIGHT}

    def engine_kwargs(self):
        return {"key_column": "clip_id",
                "shuffle_columns": ["clip_id", "event_ts", "offset",
                                    *self.LEFT, *self.RIGHT]}

    def expected(self, table):
        con = duckdb.connect()
        con.register("src", table)
        return con.execute(f"""
            SELECT l.clip_id, l.event_ts AS ts_left, r.event_ts AS ts_right,
                   l.codec, l.sr_hz, l.dur_ms, r.transcript,
                   hash(l.bytes) AS payload_hash
            FROM (SELECT * FROM src WHERE __stream = 0) l
            JOIN (SELECT * FROM src WHERE __stream = 1) r
              ON l.clip_id = r.clip_id
             AND abs(l.event_ts - r.event_ts) <= {self.TIME_BOUND_US}
            """).arrow()


WORKLOADS = {w.name: w for w in (SlideEnergy(), JoinPayload())}
