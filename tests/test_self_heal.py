"""Self-healing runs (engine.run recovery loop).

A partition actor lost mid-run (simulated by a one-shot hard exit
injected at the start of `process_epoch`, or on the actor's writer
thread between an epoch's sink commit and its checkpoint) must not fail
the job: the engine re-enters the run body, restores from the last
complete checkpoint, replays forward, and the epoch-idempotent sink
absorbs re-emissions — the sink ends bit-identical to the oracle, same
bar as the kill/resume matrix.
"""

from __future__ import annotations

import pytest
import ray

import test_join_exactly_once as join_eo
from parallel_dataflow_ray import fixtures
from parallel_dataflow_ray.streaming import (
    ExactlyOnceSink, OracleExecutor, StreamEngine, TumblingWindows,
)
from parallel_dataflow_ray.streaming.checkpoint import CheckpointStore
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


# -- a crash with an epoch's writes in flight ---------------------------------

@pytest.mark.parametrize("op_kind", ["window", "join"])
def test_crash_between_commit_and_checkpoint(tmp_path, op_kind):
    """The actor hard-exits on its writer thread after epoch 3's sink
    commit and before epoch 3's checkpoint: the crashed run leaves the
    sink ahead of the checkpoint, and the resumed run still ends equal
    to ``OracleExecutor`` with every row and every (partition, epoch)
    once."""
    if op_kind == "window":
        kw, epochs = {"spec": KERNELS["clip_stats"](), "assigner": WIN}, _epochs()
    else:
        kw, epochs = dict(join_eo.JOIN_KW), join_eo._epochs()
    want, _ = OracleExecutor(op_kind, dict(kw), LATENESS_US).run(epochs)
    marker = tmp_path / "killed"

    def engine(max_recoveries):
        return StreamEngine(
            op_kind, dict(kw), num_partitions=3,
            allowed_lateness_us=LATENESS_US, sink_root=str(tmp_path / "sink"),
            ckpt_root=str(tmp_path / "ckpt"), ckpt_interval=2,
            max_recoveries=max_recoveries,
            failure_injection={"partition": 1, "epoch": 3, "step": "write",
                               "marker": str(marker)})

    with pytest.raises(ray.exceptions.RayActorError):
        engine(0).run(epochs)
    assert marker.exists()
    committed = {r["epoch"] for r in ExactlyOnceSink.lineage(
        str(tmp_path / "sink")) if r["partition"] == 1}
    # the commit of epoch 3 landed, its checkpoint did not
    assert 3 in committed
    assert CheckpointStore(str(tmp_path / "ckpt"), 1).latest_epoch() == 1

    res = engine(2).run(epochs)
    assert res["start_epoch"] == 2 and res["recoveries"] == 0
    assert want and _sink_rows(tmp_path / "sink") == canonical_sort(want)
    lin = ExactlyOnceSink.lineage(str(tmp_path / "sink"))
    assert len({(r["partition"], r["epoch"]) for r in lin}) == len(lin) \
        == 3 * len(epochs)


def test_write_crash_self_heals(tmp_path):
    """The same crash point inside one ``run``: the engine heals it."""
    kw = {"spec": KERNELS["clip_stats"](), "assigner": WIN}
    eng = StreamEngine(
        "window", kw, num_partitions=4, allowed_lateness_us=LATENESS_US,
        sink_root=str(tmp_path / "sink"), ckpt_root=str(tmp_path / "ckpt"),
        ckpt_interval=2,
        failure_injection={"partition": 1, "epoch": 3, "step": "write",
                           "marker": str(tmp_path / "killed")})
    res = eng.run(_epochs())
    assert (tmp_path / "killed").exists()
    assert res["recoveries"] == 1
    assert _sink_rows(tmp_path / "sink") == _oracle(kw)


def test_failed_commit_leaves_no_later_checkpoint(tmp_path):
    """A sink commit that raises (a disk error, say) on the writer thread
    fails the run, and the partition writes nothing for any later epoch:
    no checkpoint at or past the lost epoch, so a resume replays it.  The
    pool is kept, so every epoch already queued on the actors runs before
    the checks; after ``reset_state`` the same pool runs a clean stream."""
    kw = {"spec": KERNELS["clip_stats"](), "assigner": WIN}
    epochs = _epochs()

    def engine(sink):
        return StreamEngine(
            "window", dict(kw), num_partitions=3,
            allowed_lateness_us=LATENESS_US, sink_root=str(tmp_path / sink),
            ckpt_root=str(tmp_path / f"{sink}-ckpt"), ckpt_interval=2)

    # an even epoch that emits on some partition, with two checkpoint
    # epochs (odd, interval 2) after it
    engine("ref").run(epochs)
    p, e = min((r["partition"], r["epoch"])
               for r in ExactlyOnceSink.lineage(str(tmp_path / "ref"))
               if r["rows"] and r["epoch"] % 2 == 0
               and 2 <= r["epoch"] <= len(epochs) - 4)
    # the fragment's temp path is a directory, so that commit raises
    block = tmp_path / "sink" / "data" / f"p{p:05d}-e{e:06d}.parquet.tmp"
    block.mkdir(parents=True)

    eng = engine("sink")
    eng.keep_workers = True
    try:
        with pytest.raises(OSError):
            eng.run(epochs)
        store = CheckpointStore(str(tmp_path / "sink-ckpt"), p)
        assert store.latest_epoch() == e - 1
        assert not [f for f in (tmp_path / "sink-ckpt" / f"p{p:05d}").iterdir()
                    if f.suffix == ".ckpt" and int(f.stem[1:]) >= e]
        committed = {r["epoch"] for r in ExactlyOnceSink.lineage(
            str(tmp_path / "sink")) if r["partition"] == p}
        assert committed == set(range(e))

        eng.reset_state(new_sink_root=str(tmp_path / "clean"),
                        new_ckpt_root=str(tmp_path / "clean-ckpt"))
        eng.run(epochs)
        assert _sink_rows(tmp_path / "clean") == _oracle(kw)
    finally:
        eng.close()

    block.rmdir()
    res = engine("sink").run(epochs)
    assert res["start_epoch"] == e
    assert _sink_rows(tmp_path / "sink") == _oracle(kw)
    lin = ExactlyOnceSink.lineage(str(tmp_path / "sink"))
    assert len({(r["partition"], r["epoch"]) for r in lin}) == len(lin) \
        == 3 * len(epochs)
