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
        if m["emitted"]:
            assert m["commit_s"] > 0, m
    assert any(m["emitted"] for m in res["metrics"])
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
    import os

    from parallel_dataflow_ray.streaming.checkpoint import CheckpointStore

    def eng():
        return StreamEngine("window",
                            {"spec": KERNELS["clip_stats"](),
                             "assigner": WIN},
                            num_partitions=P,
                            allowed_lateness_us=LATENESS_US,
                            sink_root=str(tmp_path / "sink"),
                            ckpt_root=str(tmp_path / "ckpt"),
                            ckpt_interval=1)

    epochs = epochs_from_table(_table(), EPOCH_ROWS)
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
    assert _sink_rows(tmp_path / "sink") == _oracle_rows()
