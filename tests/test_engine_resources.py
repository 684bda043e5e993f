"""The engine's CPU reservations: P partition actors at
``PARTITION_CPUS`` each, plus at least one ``MAP_TASK_CPUS`` shuffle-map
task, must fit the cluster.  A partition count that cannot fit is
refused up front, before any actor starts, instead of leaving every map
task queued behind the actors forever."""

from __future__ import annotations

import threading

import pytest
import ray

from parallel_dataflow_ray import fixtures
from parallel_dataflow_ray.streaming import (
    SessionWindows, StreamEngine, TumblingWindows)
from parallel_dataflow_ray.streaming import engine as engine_mod
from parallel_dataflow_ray.streaming.engine import (
    MAP_TASK_CPUS, PARTITION_CPUS)
from parallel_dataflow_ray.streaming.kernels import KERNELS
from parallel_dataflow_ray.streaming.partitioning import epochs_from_table


def _engine(op_kind: str, P: int) -> StreamEngine:
    assigner = (TumblingWindows(2_000_000) if op_kind == "window"
                else SessionWindows(20_000))
    return StreamEngine(op_kind, {"spec": KERNELS["clip_stats"](),
                                  "assigner": assigner}, num_partitions=P)


def _epochs():
    return epochs_from_table(fixtures.clips_table(200, seed=42), 50)


def test_unschedulable_partition_count_is_refused():
    cpus = ray.cluster_resources()["CPU"]
    # one actor more than fits next to a map task: each map task would
    # wait forever behind the actors' reservations
    P = int((cpus - MAP_TASK_CPUS) / PARTITION_CPUS) + 1
    eng = _engine("window", P)
    out: dict = {}

    def run():
        try:
            out["res"] = eng.run(_epochs())
        except ValueError as e:
            out["err"] = e

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive(), "the engine hung instead of refusing"
    assert "err" in out, "the engine ran with an unschedulable P"
    msg = str(out["err"])
    assert f"num_partitions={P}" in msg and f"{cpus:g} CPUs" in msg
    assert eng._workers is None


@pytest.mark.parametrize("op_kind", ["window", "session"])
def test_refusal_boundary(op_kind, monkeypatch):
    """On a 1-CPU cluster one actor (0.25) and one map task (0.75) fit
    exactly; a second actor does not."""
    monkeypatch.setattr(engine_mod.ray, "cluster_resources",
                        lambda: {"CPU": 1.0})
    with pytest.raises(ValueError, match="num_partitions=2"):
        _engine(op_kind, 2).run(_epochs())
    res = _engine(op_kind, 1).run(_epochs(), final_flush=True)
    assert sum(m["emitted"] for m in res["metrics"]) > 0
