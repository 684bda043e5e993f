"""Per-block dispatch of the row operators (join, session).

A small block skips the shuffle-map task: every partition actor reads
it and keeps its own rows (``partitioning.route_rows``).  A large one
goes to the map task (``partitioning.split_by_partition``).  Both paths
must hand each partition the same rows in the same order, so the engine
must equal ``OracleExecutor`` on both sides of ``INLINE_READ_BYTES``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray

import test_join_exactly_once as join_eo
import test_join_salted as join_salted
import test_late_sideoutput as late
import test_rescale_resume as rescale
import test_streaming_differential as diff
import test_symmetric_join as join
from parallel_dataflow_ray import fixtures
from parallel_dataflow_ray.streaming import (
    ExactlyOnceSink, OracleExecutor, SessionWindows, StreamEngine,
    TumblingWindows)
from parallel_dataflow_ray.streaming import engine as engine_mod
from parallel_dataflow_ray.streaming.kernels import KERNELS
from parallel_dataflow_ray.streaming.oracle import canonical_sort
from parallel_dataflow_ray.streaming.partitioning import (
    dataset_epochs, epochs_from_table, parquet_epochs, route_rows,
    split_by_partition)

#: INLINE_READ_BYTES per side: 0 sends every non-empty block to the map
#: task, a huge value lets the actors read every block
SIDES = {"task": 0, "inline": 2**60}


@pytest.fixture(params=sorted(SIDES))
def side(request, monkeypatch):
    monkeypatch.setattr(engine_mod, "INLINE_READ_BYTES", SIDES[request.param])
    return request.param


# -- one routing function ---------------------------------------------------

def _random_two_stream(rng, n: int) -> pa.Table:
    return pa.table({
        "k": pa.array(rng.integers(0, 12, n)),
        "offset": pa.array(rng.permutation(n).astype(np.int64)),
        "v": pa.array(rng.random(n)),
        "__stream": pa.array(rng.integers(0, 2, n).astype(np.int8))})


@pytest.mark.parametrize("P", [1, 2, 3, 8])
@pytest.mark.parametrize("salted", [False, True], ids=["plain", "salted"])
@pytest.mark.parametrize("bside", [0, 1])
def test_route_rows_matches_split(P, salted, bside):
    """Concatenating each partition's ``take(row_idx[pids == p])`` gives
    exactly ``split_by_partition``'s shards: same rows, same order,
    replicated broadcast rows included."""
    rng = np.random.default_rng([P, salted, bside])
    for n in (0, 1, 37, 500):
        table = _random_two_stream(rng, n)
        salted_keys = {3: 3, 7: 2, 99: 4} if salted else None
        kw = dict(key_column="k", num_partitions=P, salted_keys=salted_keys,
                  join_broadcast_side=bside if salted else None)
        shards = split_by_partition(table, **kw)
        row_idx, pids = route_rows(table, **kw)
        own = [table.take(pa.array(row_idx[pids == p])) for p in range(P)]
        assert [s.to_pylist() for s in own] == [s.to_pylist() for s in shards]
        if salted and n == 500:
            assert sum(s.num_rows for s in own) > n  # replicas present


# -- engine == oracle on both sides of the threshold ------------------------

def test_join_plain(side):
    join.test_join_engine_matches_oracle()


def test_join_salted(side):
    join_salted.test_salted_join_parity_with_unsalted()
    join_salted.test_salted_join_broadcast_side_zero_parity()


def test_join_late_root(side, tmp_path):
    late.test_late_sink_symmetric_join(tmp_path)


@pytest.mark.parametrize("kernel", ["clip_stats", "reverse_live_words"])
def test_session_differential(side, kernel):
    diff.test_session_window_parity(kernel)


def test_join_kill_resume(side, tmp_path):
    join_eo.test_join_kill_resume_exactly_once(tmp_path)


def test_salted_join_kill_resume(side, tmp_path):
    join_eo.test_salted_join_kill_resume_exactly_once(tmp_path)


def test_session_kill_resume(side, tmp_path):
    kw = {"spec": KERNELS["clip_stats"](), "assigner": SessionWindows(300_000)}
    epochs = epochs_from_table(rescale._table(), rescale.EPOCH_ROWS)
    oracle = rescale._oracle_rows("session", kw, flush=True)
    rescale._engine(tmp_path, "session", kw, 3).run(
        epochs, stop_after_epoch=len(epochs) // 2, commit_partitions={0})
    res = rescale._engine(tmp_path, "session", kw, 3).run(
        epochs, final_flush=True)
    assert res["start_epoch"] > 0
    assert rescale._sink_rows(tmp_path / "sink") == oracle


def test_session_rescale(side, tmp_path):
    rescale.test_rescale_session_exactly_once(tmp_path)


def test_join_rescale(side, tmp_path):
    rescale.test_rescale_join_exactly_once(tmp_path)


# -- the dispatch rule -------------------------------------------------------

@pytest.mark.parametrize("P", [1, 2, 4, 8])
def test_dispatch_follows_block_size(P):
    """A row operator's block is read by the actors up to
    ``INLINE_READ_BYTES`` whatever P; a larger block, one of unknown
    size and every window block go to the map task."""
    limit = engine_mod.INLINE_READ_BYTES
    eng = StreamEngine("join", dict(JOIN_KW), num_partitions=P)
    assert eng._reads_inline({"bytes": limit})
    assert not eng._reads_inline({"bytes": limit + 1})
    assert not eng._reads_inline({"bytes": None})
    small = pa.table({"x": pa.array(np.zeros(8, np.int64))})
    assert eng._reads_inline(small)
    window = StreamEngine("window", {"spec": KERNELS["clip_stats"](),
                                     "assigner": TumblingWindows(100_000)},
                          num_partitions=P)
    assert not window._reads_inline(small)


# -- a small epoch launches no map task --------------------------------------

def _no_map_task(*args, **kwargs):
    raise AssertionError("a small row-operator block launched a map task")


def _join_epochs() -> list[pa.Table]:
    # 40 rows of payload join are ~1 MiB, under INLINE_READ_BYTES
    return epochs_from_table(join._merged(), 40)


def _session_epochs() -> list[pa.Table]:
    # 25 clips, audio included, are at most ~1.4 MiB, under
    # INLINE_READ_BYTES
    return epochs_from_table(fixtures.clips_table(300, seed=7), 25)


JOIN_KW = dict(join.JOIN_KW)
SESSION_KW = {"spec": KERNELS["clip_stats"](),
              "assigner": SessionWindows(30_000)}


def _sources(kind: str, epochs: list[pa.Table], tmp_path) -> list:
    if kind == "table":
        return epochs
    if kind == "fragment":
        import pyarrow.parquet as pq

        d = tmp_path / "frag"
        d.mkdir()
        for i, t in enumerate(epochs):
            pq.write_table(t, str(d / f"e{i:04d}.parquet"))
        return parquet_epochs(str(d))
    return dataset_epochs(ray.data.from_arrow(epochs))


@pytest.mark.parametrize("source", ["table", "fragment", "dataset"])
@pytest.mark.parametrize("op_kind", ["join", "session"])
def test_small_epoch_launches_no_map_task(op_kind, source, tmp_path,
                                          monkeypatch):
    monkeypatch.setattr(engine_mod, "_split_block", _no_map_task)
    epochs, kw = ((_join_epochs(), JOIN_KW) if op_kind == "join"
                  else (_session_epochs(), SESSION_KW))
    assert max(t.nbytes for t in epochs) <= engine_mod.INLINE_READ_BYTES
    want, _ = OracleExecutor(op_kind, dict(kw), 50_000).run(
        epochs, final_flush=True)
    res = StreamEngine(op_kind, dict(kw), num_partitions=3,
                       allowed_lateness_us=50_000,
                       sink_root=str(tmp_path / "sink")).run(
        _sources(source, epochs, tmp_path), final_flush=True)
    assert want
    assert canonical_sort(ExactlyOnceSink.read_all(
        str(tmp_path / "sink"))) == canonical_sort(want)
    assert sum(m["load_s"] for m in res["metrics"]) > 0


# -- the epoch ledger's load_s -----------------------------------------------

@pytest.mark.parametrize("op_kind", ["join", "session", "window"])
def test_load_s_within_elapsed(side, op_kind):
    """Every metrics row: 0 <= load_s <= elapsed_s and wait_s + load_s <=
    elapsed_s; load_s is 0 where every block went to a map task."""
    if op_kind == "join":
        epochs, kw = _join_epochs(), JOIN_KW
    else:
        epochs = _session_epochs()
        kw = (SESSION_KW if op_kind == "session" else
              {"spec": KERNELS["clip_stats"](),
               "assigner": TumblingWindows(100_000)})
    res = StreamEngine(op_kind, dict(kw), num_partitions=2,
                       allowed_lateness_us=50_000).run(epochs,
                                                       final_flush=True)
    rows = res["metrics"]
    for m in rows:
        assert 0 <= m["load_s"] <= m["elapsed_s"], m
        assert m["wait_s"] + m["load_s"] <= m["elapsed_s"], m
    inline = side == "inline" and op_kind != "window"
    assert (sum(m["load_s"] for m in rows) > 0) == inline


# -- a block is sized by the columns the actors read -------------------------

@pytest.mark.parametrize("source", ["table", "fragment"])
def test_block_sized_by_columns_read(source, tmp_path, monkeypatch):
    """A ``clip_stats`` session reads ``dur_ms`` and ``sr_hz`` (plus key,
    time and offset), not the audio: its 50-clip epochs are over
    ``INLINE_READ_BYTES`` in all columns but far under in the ones read,
    so the actors read them and no map task starts."""
    epochs = epochs_from_table(fixtures.clips_table(300, seed=7), 50)
    assert min(t.nbytes for t in epochs) > engine_mod.INLINE_READ_BYTES
    sources = _sources(source, epochs, tmp_path)
    if source == "fragment":
        assert all(sum(s["column_bytes"].values()) == s["bytes"]
                   for s in sources)
        assert min(s["bytes"] for s in sources) \
            > engine_mod.INLINE_READ_BYTES
    monkeypatch.setattr(engine_mod, "_split_block", _no_map_task)
    want, _ = OracleExecutor("session", dict(SESSION_KW), 50_000).run(
        epochs, final_flush=True)
    res = StreamEngine("session", dict(SESSION_KW), num_partitions=3,
                       allowed_lateness_us=50_000,
                       sink_root=str(tmp_path / "sink")).run(
        sources, final_flush=True)
    assert want
    assert canonical_sort(ExactlyOnceSink.read_all(
        str(tmp_path / "sink"))) == canonical_sort(want)
    assert all(m["load_s"] > 0 for m in res["metrics"]
               if m["epoch"] < len(epochs))
