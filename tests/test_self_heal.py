"""Self-healing runs (engine.run recovery loop).

A partition actor lost mid-run (simulated by a one-shot hard exit
injected into `process_epoch`) must not fail the job: the engine
re-enters the run body, restores from the last complete checkpoint,
replays forward, and the epoch-idempotent sink absorbs re-emissions —
the sink ends bit-identical to the oracle, same bar as the kill/resume
matrix.
"""

from __future__ import annotations

import pytest
import ray

from parallel_dataflow_ray import fixtures
from parallel_dataflow_ray.streaming import (
    ExactlyOnceSink, OracleExecutor, StreamEngine, TumblingWindows,
)
from parallel_dataflow_ray.streaming.kernels import KERNELS
from parallel_dataflow_ray.streaming.oracle import canonical_sort
from parallel_dataflow_ray.streaming.partitioning import epochs_from_table

N = 500
LATENESS_US = 50_000
WIN = TumblingWindows(1_000_000)
EPOCH_ROWS = 83


def _epochs():
    t = fixtures.clips_table(N, seed=42, lateness_ms=40, n_speakers=7,
                             dup_every=13)
    return epochs_from_table(t, EPOCH_ROWS)


def _oracle(kw):
    rows, _ = OracleExecutor("window", kw, LATENESS_US).run(_epochs())
    return canonical_sort(rows)


def _sink_rows(root):
    t = ExactlyOnceSink.read_all(str(root))
    return canonical_sort(t.to_pylist()) if t is not None else []


def test_actor_loss_self_heals(tmp_path):
    kw = {"spec": KERNELS["clip_stats"](), "assigner": WIN}
    eng = StreamEngine(
        "window", kw, num_partitions=4, allowed_lateness_us=LATENESS_US,
        sink_root=str(tmp_path / "sink"), ckpt_root=str(tmp_path / "ckpt"),
        ckpt_interval=2,
        failure_injection={"partition": 1, "epoch": 3,
                           "marker": str(tmp_path / "killed")})
    res = eng.run(_epochs())
    assert (tmp_path / "killed").exists()      # the fault really fired
    assert res["recoveries"] == 1
    assert _sink_rows(tmp_path / "sink") == _oracle(kw)


def test_without_checkpoints_the_loss_is_fatal(tmp_path):
    kw = {"spec": KERNELS["clip_stats"](), "assigner": WIN}
    eng = StreamEngine(
        "window", kw, num_partitions=4, allowed_lateness_us=LATENESS_US,
        sink_root=str(tmp_path / "sink"),
        failure_injection={"partition": 1, "epoch": 3,
                           "marker": str(tmp_path / "killed")})
    with pytest.raises(ray.exceptions.RayActorError):
        eng.run(_epochs())


def test_loss_before_first_checkpoint_replays_from_zero(tmp_path):
    # ckpt_interval larger than the failing epoch: no checkpoint exists
    # yet, so recovery replays the whole stream; the sink still ends
    # exactly-once (committed epochs absorb their replays)
    kw = {"spec": KERNELS["clip_stats"](), "assigner": WIN}
    eng = StreamEngine(
        "window", kw, num_partitions=4, allowed_lateness_us=LATENESS_US,
        sink_root=str(tmp_path / "sink"), ckpt_root=str(tmp_path / "ckpt"),
        ckpt_interval=100,
        failure_injection={"partition": 2, "epoch": 1,
                           "marker": str(tmp_path / "killed")})
    res = eng.run(_epochs())
    assert res["recoveries"] == 1
    assert _sink_rows(tmp_path / "sink") == _oracle(kw)
