"""Kill/resume + idempotent-commit conformance (SURVEY.md §5 item 4).

north_star: "a killed job resumes and still emits exactly the rows the
reference produces for the same input stream and watermark" — here the
"reference" is our sequential oracle; parity = byte-identical sink
contents after crash + resume, including a crash that commits only a
subset of partitions for its final epoch.
"""

from __future__ import annotations

import pyarrow as pa
import pytest

from parallel_dataflow_ray import fixtures
from parallel_dataflow_ray.streaming import (
    ExactlyOnceSink, OracleExecutor, SlidingWindows, StreamEngine,
    TumblingWindows,
)
from parallel_dataflow_ray.streaming.kernels import KERNELS
from parallel_dataflow_ray.streaming.oracle import canonical_sort
from parallel_dataflow_ray.streaming.partitioning import epochs_from_table

N = 500
LATENESS_US = 50_000
WIN = TumblingWindows(1_000_000)
SLIDE = SlidingWindows(5_000_000, 2_000_000)  # size % slide != 0
EPOCH_ROWS = 83
P = 4


def _table():
    # dup_every exercises FirstSeen's dedup under replay
    return fixtures.clips_table(N, seed=42, lateness_ms=40, n_speakers=7,
                                dup_every=13)


def _sink_rows(root) -> list[dict]:
    t = ExactlyOnceSink.read_all(str(root))
    return canonical_sort(t.to_pylist()) if t is not None else []


def _oracle_rows(kernel="clip_stats", win=WIN, flush=False):
    epochs = epochs_from_table(_table(), EPOCH_ROWS)
    rows, _ = OracleExecutor(
        "window", {"spec": KERNELS[kernel](), "assigner": win},
        LATENESS_US).run(epochs, final_flush=flush)
    return canonical_sort(rows)


def _engine(tmp, kernel="clip_stats", win=WIN, **kw):
    return StreamEngine("window",
                        {"spec": KERNELS[kernel](), "assigner": win},
                        num_partitions=P, allowed_lateness_us=LATENESS_US,
                        sink_root=str(tmp / "sink"), ckpt_root=str(tmp / "ckpt"),
                        ckpt_interval=2, **kw)


def test_uninterrupted_sink_matches_oracle(tmp_path):
    epochs = epochs_from_table(_table(), EPOCH_ROWS)
    _engine(tmp_path).run(epochs)
    assert _sink_rows(tmp_path / "sink") == _oracle_rows()


@pytest.mark.parametrize("kernel", ["clip_stats", "first_seen",
                                    "content_dedup", "codec_funnel",
                                    "codec_kleene", "vocab_sketch"])
@pytest.mark.parametrize("partial", [False, True], ids=["clean-kill", "partial-commit"])
def test_kill_and_resume_exactly_once(tmp_path, partial, kernel):
    _kill_and_resume(tmp_path, partial, kernel, WIN, flush=False)


@pytest.mark.parametrize("kernel", ["clip_stats", "codec_funnel"])
@pytest.mark.parametrize("partial", [False, True], ids=["clean-kill", "partial-commit"])
def test_kill_and_resume_sliding(tmp_path, partial, kernel):
    """The checkpoint holds slices that closed windows already read and
    open windows still need: none may be emitted twice or lost.  The
    stream is about one window long, so the end-of-stream flush emits
    the windows still open at the crash."""
    _kill_and_resume(tmp_path, partial, kernel, SLIDE, flush=True)


def _kill_and_resume(tmp_path, partial, kernel, win, flush):
    epochs = epochs_from_table(_table(), EPOCH_ROWS)
    kill_at = len(epochs) // 2
    # crash: stop after epoch kill_at; optionally only partitions {0,1}
    # managed to commit that epoch (a mid-epoch crash)
    _engine(tmp_path, kernel, win).run(
        epochs, stop_after_epoch=kill_at,
        commit_partitions={0, 1} if partial else None)
    partial_rows = _sink_rows(tmp_path / "sink")
    oracle = _oracle_rows(kernel, win, flush)
    assert len(partial_rows) < len(oracle)  # genuinely interrupted mid-stream

    # resume: same engine config, same input — restores from checkpoints,
    # replays uncommitted epochs; replayed commits are absorbed
    res = _engine(tmp_path, kernel, win).run(epochs, final_flush=flush)
    assert res["start_epoch"] > 0  # proves it resumed, not re-ran
    assert _sink_rows(tmp_path / "sink") == oracle

    # replaying the ENTIRE job a third time must change nothing (idempotence)
    _engine(tmp_path, kernel, win).run(epochs, final_flush=flush)
    assert _sink_rows(tmp_path / "sink") == oracle


def test_lineage_records(tmp_path):
    epochs = epochs_from_table(_table(), EPOCH_ROWS)
    res = _engine(tmp_path).run(epochs)
    # commit and checkpoint time are reported beside elapsed_s; on this
    # durable run an epoch that emits writes and fsyncs a fragment
    for m in res["metrics"]:
        assert m["commit_s"] >= 0 and m["ckpt_s"] >= 0, m
        assert m["state_rows"] >= 0 and m["state_bytes"] >= 0, m
        if m["emitted"]:
            assert m["commit_s"] > 0, m
    assert any(m["emitted"] for m in res["metrics"])
    assert any(m["state_rows"] and m["state_bytes"] for m in res["metrics"])
    lin = ExactlyOnceSink.lineage(str(tmp_path / "sink"))
    assert {r["partition"] for r in lin} == set(range(P))
    for r in lin:
        assert {"epoch", "rows", "max_offset", "watermark", "elapsed_s"} <= r.keys()
    # every partition recorded every epoch exactly once
    seen = {(r["partition"], r["epoch"]) for r in lin}
    assert len(seen) == len(lin) == P * len(epochs)


def test_checkpoint_gc_keeps_resume_exact(tmp_path):
    """GC'ing dead checkpoints (below the global resume point) must not
    change what a resume emits; file count genuinely shrinks; GC is
    idempotent and keeps LATEST consistent."""
    def eng():
        return StreamEngine("window",
                            {"spec": KERNELS["clip_stats"](),
                             "assigner": WIN},
                            num_partitions=P,
                            allowed_lateness_us=LATENESS_US,
                            sink_root=str(tmp_path / "sink"),
                            ckpt_root=str(tmp_path / "ckpt"),
                            ckpt_interval=1)

    _gc_and_resume(tmp_path, eng, epochs_from_table(_table(), EPOCH_ROWS),
                   _oracle_rows())


def test_join_checkpoint_gc_keeps_resume_exact(tmp_path):
    """The same for the symmetric join, whose checkpoints are deltas:
    GC removes dead files yet keeps the older files that the retained
    records name as holding live chunks."""
    from parallel_dataflow_ray.streaming.partitioning import (
        interleave_streams)

    kw = dict(key_column="clip_id", time_bound_us=2_000_000,
              left_columns=("sr_hz", "dur_ms"), right_columns=("transcript",))
    clips = fixtures.clips_table(N, seed=42, lateness_ms=40, n_speakers=7)
    events = fixtures.transcript_events_table(N, seed=42, lateness_ms=40)
    epochs = epochs_from_table(interleave_streams(
        clips.drop_columns(["transcript", "bytes"]), events), EPOCH_ROWS)
    rows, _ = OracleExecutor("join", kw, LATENESS_US).run(epochs)

    def eng():
        return StreamEngine("join", dict(kw), num_partitions=P,
                            allowed_lateness_us=LATENESS_US,
                            key_column="clip_id",
                            sink_root=str(tmp_path / "sink"),
                            ckpt_root=str(tmp_path / "ckpt"),
                            ckpt_interval=1)

    _gc_and_resume(tmp_path, eng, epochs, canonical_sort(rows))


def _gc_and_resume(tmp_path, eng, epochs, oracle):
    import os

    from parallel_dataflow_ray.streaming.checkpoint import CheckpointStore

    kill_at = len(epochs) - 2
    eng().run(epochs, stop_after_epoch=kill_at)

    def n_ckpts():
        total = 0
        for p in range(P):
            d = tmp_path / "ckpt" / f"p{p:05d}"
            total += len([f for f in os.listdir(d)
                          if f.endswith(".ckpt")])
        return total

    before = n_ckpts()
    stats = CheckpointStore.gc(str(tmp_path / "ckpt"), P, keep=1)
    assert stats["removed"] > 0 and n_ckpts() == before - stats["removed"]
    # the resume point survives GC by construction
    assert CheckpointStore.resume_epoch(str(tmp_path / "ckpt"), P) \
        == stats["resume_epoch"]
    # idempotent
    again = CheckpointStore.gc(str(tmp_path / "ckpt"), P, keep=1)
    assert again["removed"] == 0

    # resume after GC: byte-identical to the oracle, still a true resume
    res = eng().run(epochs)
    assert res["start_epoch"] > 0
    assert _sink_rows(tmp_path / "sink") == oracle


# -- write-behind: each epoch's commit and checkpoint run on the actor's
# writer thread while the next epoch loads and applies ----------------------

def _lineage_pairs(root) -> set[tuple[int, int]]:
    lin = ExactlyOnceSink.lineage(str(root))
    pairs = {(r["partition"], r["epoch"]) for r in lin}
    assert len(pairs) == len(lin)           # no pair committed twice
    return pairs


def test_ledger_rows_carry_writer_times(tmp_path):
    """Every (partition, epoch) row gets the commit and checkpoint times
    its writer measured, the end-of-stream flush epoch included, plus
    how long the epoch waited for the previous epoch's writes."""
    epochs = epochs_from_table(_table(), EPOCH_ROWS)
    res = _engine(tmp_path, win=SLIDE).run(epochs, final_flush=True)
    rows = res["metrics"]
    assert [(m["partition"], m["epoch"]) for m in rows] == [
        (p, e) for e in range(len(epochs) + 1) for p in range(P)]
    for m in rows:
        assert "persisted" not in m
        assert m["persist_wait_s"] >= 0, m
        assert m["commit_s"] > 0, m       # every epoch writes its manifest
        # checkpoint epochs (interval 2) are timed; the others write none
        assert (m["ckpt_s"] > 0) == (m["epoch"] % 2 == 1), m
    final = [m for m in rows if m["epoch"] == len(epochs)]
    assert any(m["emitted"] for m in final)


@pytest.mark.parametrize("partial", [False, True],
                         ids=["clean-stop", "partial-commit"])
def test_run_returns_after_every_commit(tmp_path, partial):
    """When ``run`` returns, the sink's lineage holds exactly the
    (partition, epoch) pairs the call committed, and exactly their
    metrics rows carry the writer's commit time: the last epoch's writes
    were waited for, not left to race the actors' kill.  A partition
    that does not commit the last epoch writes nothing for it."""
    epochs = epochs_from_table(_table(), EPOCH_ROWS)
    k = len(epochs) // 2
    cp = {0, 2} if partial else None
    res = _engine(tmp_path).run(epochs, stop_after_epoch=k,
                                commit_partitions=cp)
    want = {(p, e) for p in range(P) for e in range(k)}
    want |= {(p, k) for p in (cp if partial else range(P))}
    assert _lineage_pairs(tmp_path / "sink") == want
    assert {(m["partition"], m["epoch"]) for m in res["metrics"]
            if m["commit_s"] > 0} == want


def test_persistent_pool_streams_do_not_share_writes(tmp_path):
    """On a ``keep_workers`` pool, two streams with ``reset_state``
    between them give identical sinks, and each is complete when its
    ``run`` returns (perfbench's pattern): the writer carries no epoch
    over into the next stream."""
    epochs = epochs_from_table(_table(), EPOCH_ROWS)
    eng = _engine(tmp_path, win=SLIDE)
    eng.keep_workers = True
    sinks = []
    try:
        for i in range(2):
            if i:   # the pool exists from the first run on
                eng.reset_state(new_sink_root=str(tmp_path / f"sink{i}"),
                                new_ckpt_root=str(tmp_path / f"ckpt{i}"))
            eng.run(epochs, final_flush=True)
            sink = eng.sink_root
            assert _lineage_pairs(sink) == {
                (p, e) for p in range(P) for e in range(len(epochs) + 1)}
            sinks.append(_sink_rows(sink))
    finally:
        eng.close()
    assert sinks[0] == sinks[1] == _oracle_rows(win=SLIDE, flush=True)
