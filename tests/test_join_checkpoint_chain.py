"""Delta checkpoints of the symmetric join: each checkpoint writes only
the state chunks added since the previous one, and its record names the
older files that hold the rest.  A resume from such a chain must equal
a resume from a full snapshot of the same state, and checkpoint GC must
keep every file a retained record names.

Both tests drive one operator and one ``CheckpointStore`` in-process,
the calls a partition actor makes per epoch."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

from parallel_dataflow_ray import fixtures
from parallel_dataflow_ray.streaming.checkpoint import (CheckpointStore,
                                                       _read_record)
from parallel_dataflow_ray.streaming.operators import SymmetricJoinOp
from parallel_dataflow_ray.streaming.oracle import canonical_order
from parallel_dataflow_ray.streaming.partitioning import (
    epochs_from_table, interleave_streams)
from parallel_dataflow_ray.streaming.watermark import MIN_TS

N = 300
JOIN_KW = dict(key_column="clip_id", time_bound_us=1_500_000,
               left_columns=("bytes", "codec", "sr_hz"),
               right_columns=("transcript",))


def _epochs():
    clips = fixtures.clips_table(N, seed=42, lateness_ms=30, n_speakers=5)
    events = fixtures.transcript_events_table(N, seed=42, lateness_ms=30)
    return epochs_from_table(
        interleave_streams(clips.drop_columns(["transcript"]), events), 37)


def _watermarks(epochs):
    wms, wm = [], MIN_TS
    for t in epochs:
        wm = max(wm, pc.max(t["event_ts"].cast(pa.int64())).as_py())
        wms.append(wm)
    return wms


def _run(op, epochs, wms, start, store=None, ckpt_every=1):
    """Epochs ``start..`` plus the final flush through ``op``; returns
    each epoch's emitted table in canonical order."""
    out = []
    for e in range(start, len(epochs)):
        op.apply(epochs[e], wms[e - 1] if e else MIN_TS)
        out.append(canonical_order(op.on_watermark(wms[e])))
        if store is not None and e % ckpt_every == ckpt_every - 1:
            store.save(e, op.snapshot(), wms[e], -1)
    out.append(canonical_order(op.on_watermark(2**62)))
    return out


def _restored(blob):
    op = SymmetricJoinOp(**JOIN_KW)
    op.restore(blob)
    return op


def _assert_same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.equals(y, check_metadata=True), (x.schema, y.schema)


def test_resume_from_delta_chain_equals_full_snapshot(tmp_path):
    epochs = _epochs()
    wms = _watermarks(epochs)
    k = 9  # resume point: the 5th checkpoint of an every-2-epochs chain

    # the chain: checkpoints at epochs 1, 3, 5, 7, 9, rows evicted between
    chain = CheckpointStore(str(tmp_path / "chain"), 0)
    op = SymmetricJoinOp(**JOIN_KW)
    whole = _run(op, epochs, wms, 0, chain, ckpt_every=2)
    sizes = {e: os.path.getsize(os.path.join(chain.dir, f"e{e:06d}.ckpt"))
             for e in (1, 3, 5, 7, 9)}

    # a full snapshot of the same state: one operator, one checkpoint
    full = CheckpointStore(str(tmp_path / "full"), 0)
    ref = SymmetricJoinOp(**JOIN_KW)
    for e in range(k + 1):
        ref.apply(epochs[e], wms[e - 1] if e else MIN_TS)
        ref.on_watermark(wms[e])
    full.save(k, ref.snapshot(), wms[k], -1)

    rec = CheckpointStore(str(tmp_path / "chain"), 0).load(k)
    head = rec["op"].head
    # a real chain: the record names older files, and chunks were
    # evicted (dropped or cut) between its checkpoints
    named = set(_read_record(os.path.join(chain.dir, f"e{k:06d}.ckpt"))
                ["files"].values())
    assert len(named) >= 3 and k in named
    live = [cid for side in head["chunks"] for cid, _ in side]
    assert min(live) > 0  # the first chunks are gone
    assert sizes[k] < sum(sizes.values()) / 2  # a delta, not the state

    from_chain, from_full = _restored(rec["op"]), _restored(
        CheckpointStore(str(tmp_path / "full"), 0).load(k)["op"])
    for side in (0, 1):
        assert from_chain.stores[side].equals(from_full.stores[side])
    assert from_chain.state_stats() == from_full.state_stats()
    a = _run(from_chain, epochs, wms, k + 1)
    b = _run(from_full, epochs, wms, k + 1)
    _assert_same(a, b)
    _assert_same(a, whole[k + 1:])
    assert sum(t.num_rows for t in a) > 0


def test_gc_keeps_files_named_by_retained_records(tmp_path):
    epochs = _epochs()
    wms = _watermarks(epochs)
    root = str(tmp_path / "ckpt")
    store = CheckpointStore(root, 0)
    op = SymmetricJoinOp(**JOIN_KW)
    stop = len(epochs) - 3
    whole = _run(SymmetricJoinOp(**JOIN_KW), epochs, wms, 0)
    for e in range(stop + 1):  # a checkpoint every epoch, then a crash
        op.apply(epochs[e], wms[e - 1] if e else MIN_TS)
        op.on_watermark(wms[e])
        store.save(e, op.snapshot(), wms[e], -1)

    def ckpts():
        return sorted(int(f[1:-5]) for f in os.listdir(store.dir)
                      if f.endswith(".ckpt"))

    named = set(_read_record(os.path.join(store.dir, f"e{stop:06d}.ckpt"))
                ["files"].values())
    assert min(named) < stop - 1  # older than the keep margin below
    before = ckpts()
    stats = CheckpointStore.gc(root, 1, keep=1)
    after = ckpts()
    assert stats["resume_epoch"] == stop
    assert stats["removed"] > 0 and len(after) == len(before) - stats["removed"]
    # every file the retained records name survives; nothing else old
    assert named <= set(after)
    assert set(after) == named | {stop - 1, stop} | set(
        _read_record(os.path.join(store.dir, f"e{stop - 1:06d}.ckpt"))
        ["files"].values())
    assert CheckpointStore.gc(root, 1, keep=1)["removed"] == 0

    resumed = _restored(CheckpointStore(root, 0).load(stop)["op"])
    _assert_same(_run(resumed, epochs, wms, stop + 1), whole[stop + 1:])
