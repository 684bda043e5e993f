"""Rescaled checkpoint resume (streaming/reshard.py).

north_rule: the job runs on fixed N-node and 4N-node clusters — a
checkpoint taken at one parallelism must restore at another.  Parity
bar is the same as the kill/resume matrix: after crash at P_old and
resume at P_new, the sink holds EXACTLY the oracle rows — state re-keyed
by the new hash partitioning, output past the checkpoint revoked and
re-emitted under the new layout.
"""

from __future__ import annotations

import pytest

from parallel_dataflow_ray import fixtures
from parallel_dataflow_ray.streaming import (
    ExactlyOnceSink, OracleExecutor, SessionWindows, SlidingWindows,
    StreamEngine, TumblingWindows,
)
from parallel_dataflow_ray.streaming.kernels import KERNELS
from parallel_dataflow_ray.streaming.oracle import canonical_sort
from parallel_dataflow_ray.streaming.partitioning import epochs_from_table

N = 500
LATENESS_US = 50_000
WIN = TumblingWindows(1_000_000)
EPOCH_ROWS = 83


def _table():
    return fixtures.clips_table(N, seed=42, lateness_ms=40, n_speakers=7,
                                dup_every=13)


def _sink_rows(root) -> list[dict]:
    t = ExactlyOnceSink.read_all(str(root))
    return canonical_sort(t.to_pylist()) if t is not None else []


def _oracle_rows(kind, op_kwargs, flush=False):
    epochs = epochs_from_table(_table(), EPOCH_ROWS)
    rows, _ = OracleExecutor(kind, op_kwargs, LATENESS_US).run(
        epochs, final_flush=flush)
    return canonical_sort(rows)


def _engine(tmp, kind, op_kwargs, p):
    return StreamEngine(kind, op_kwargs, num_partitions=p,
                        allowed_lateness_us=LATENESS_US,
                        sink_root=str(tmp / "sink"),
                        ckpt_root=str(tmp / "ckpt"), ckpt_interval=2)


@pytest.mark.parametrize("p_old,p_new", [(4, 2), (2, 4), (4, 1)],
                         ids=["scale-down", "scale-up", "to-one"])
@pytest.mark.parametrize("kernel", ["clip_stats", "content_dedup"])
def test_rescale_window_exactly_once(tmp_path, p_old, p_new, kernel):
    _rescale_window(tmp_path, p_old, p_new,
                    {"spec": KERNELS[kernel](), "assigner": WIN}, flush=False)


@pytest.mark.parametrize("p_old,p_new", [(4, 2), (2, 4)],
                         ids=["scale-down", "scale-up"])
@pytest.mark.parametrize("kernel", ["clip_stats", "codec_funnel"])
def test_rescale_sliding_exactly_once(tmp_path, p_old, p_new, kernel):
    """Slices re-keyed by the new P keep the closed watermark: windows
    closed before the checkpoint are not emitted again, and open ones
    are built from the re-keyed slices.  The stream is about one window
    long, so the end-of-stream flush emits the windows still open at the
    crash."""
    _rescale_window(tmp_path, p_old, p_new,
                    {"spec": KERNELS[kernel](),
                     "assigner": SlidingWindows(5_000_000, 2_000_000)},
                    flush=True)


def _rescale_window(tmp_path, p_old, p_new, kw, flush):
    epochs = epochs_from_table(_table(), EPOCH_ROWS)
    kill_at = len(epochs) // 2
    _engine(tmp_path, "window", kw, p_old).run(epochs,
                                               stop_after_epoch=kill_at)
    oracle = _oracle_rows("window", kw, flush)
    assert len(_sink_rows(tmp_path / "sink")) < len(oracle)

    res = _engine(tmp_path, "window", kw, p_new).run(epochs,
                                                     final_flush=flush)
    assert res["start_epoch"] > 0          # resumed, not re-ran
    assert _sink_rows(tmp_path / "sink") == oracle

    # a third full replay at the NEW parallelism changes nothing
    _engine(tmp_path, "window", kw, p_new).run(epochs, final_flush=flush)
    assert _sink_rows(tmp_path / "sink") == oracle


def test_rescale_session_exactly_once(tmp_path):
    kw = {"spec": KERNELS["clip_stats"](),
          "assigner": SessionWindows(300_000)}
    epochs = epochs_from_table(_table(), EPOCH_ROWS)
    _engine(tmp_path, "session", kw, 4).run(
        epochs, stop_after_epoch=len(epochs) // 2)
    oracle = _oracle_rows("session", kw)
    res = _engine(tmp_path, "session", kw, 2).run(epochs)
    assert res["start_epoch"] > 0
    assert _sink_rows(tmp_path / "sink") == oracle


def test_rescale_join_exactly_once(tmp_path):
    from parallel_dataflow_ray.streaming.partitioning import (
        interleave_streams,
    )

    left = fixtures.clips_table(N, seed=42, lateness_ms=40,
                                n_speakers=7).drop_columns(["transcript"])
    right = fixtures.transcript_events_table(N, seed=42, lateness_ms=40)
    merged = interleave_streams(left, right)
    epochs = epochs_from_table(merged, EPOCH_ROWS)
    kw = {"key_column": "clip_id", "time_bound_us": 2_000_000,
          "left_columns": ("dur_ms",), "right_columns": ("transcript",)}
    _engine(tmp_path, "join", kw, 4).run(
        epochs, stop_after_epoch=len(epochs) // 2)
    rows, _ = OracleExecutor("join", kw, LATENESS_US).run(epochs)
    oracle = canonical_sort(rows)
    res = _engine(tmp_path, "join", kw, 2).run(epochs)
    assert res["start_epoch"] > 0
    assert _sink_rows(tmp_path / "sink") == oracle


def test_rescale_partial_commit_crash(tmp_path):
    """The hardest case: crash where only partitions {0,1} committed the
    final epoch, then resume at a different P — the revoke must clear
    the partially-committed epoch before replay re-emits it."""
    kw = {"spec": KERNELS["clip_stats"](), "assigner": WIN}
    epochs = epochs_from_table(_table(), EPOCH_ROWS)
    _engine(tmp_path, "window", kw, 4).run(
        epochs, stop_after_epoch=len(epochs) // 2,
        commit_partitions={0, 1})
    oracle = _oracle_rows("window", kw)
    res = _engine(tmp_path, "window", kw, 3).run(epochs)
    assert res["start_epoch"] > 0
    assert _sink_rows(tmp_path / "sink") == oracle
