"""Traced replay: one workload's epochs driven through each layer's
public functions in this process, one span per call.

The replay makes the calls a ``PartitionWorker`` and a split task make
for each epoch (load, split or map-side fold, operator apply, watermark
close, canonical sort, Arrow conversion, sink commit, checkpoint), with
the engine's own configuration and watermark schedule, for every
partition in turn.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from parallel_dataflow_ray.streaming.checkpoint import CheckpointStore
from parallel_dataflow_ray.streaming.engine import END_WM
from parallel_dataflow_ray.streaming.kernels import (AudioEnergy, AudioSpectral,
                                                     ClipStats)
from parallel_dataflow_ray.streaming.operators import (combine_window_block,
                                                       make_operator)
from parallel_dataflow_ray.streaming.oracle import canonical_sort
from parallel_dataflow_ray.streaming.partitioning import (load_epoch,
                                                          split_by_partition)
from parallel_dataflow_ray.streaming.sink import ExactlyOnceSink
from parallel_dataflow_ray.streaming.watermark import MIN_TS

#: span names by layer (the layer is the module the function lives in);
#: "ray" holds the runtime-floor probes, which the layer sum leaves out
LAYERS = ("engine", "oracle", "partitioning", "operators", "kernels", "sink",
          "checkpoint", "ray")


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, epoch: int | None):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload, "epoch": epoch,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_ms(self) -> dict[str, float]:
        """Per layer: span time minus the time of its child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            out[layer] += (s["end"] - s["start"] - child[s["id"]]) * 1e3
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class _TracedSpec:
    """Delegates to a spec; its ``update_table`` calls become kernel spans."""

    def __init__(self, spec, tracer: Tracer, epoch: list):
        self._spec, self._tracer, self._epoch = spec, tracer, epoch

    def __getattr__(self, name):
        return getattr(self._spec, name)

    def update_table(self, state, table):
        with self._tracer.span("kernels.update_table", self._epoch[0]):
            return self._spec.update_table(state, table)


def _state_size(op) -> int:
    if hasattr(op, "states"):
        return len(op.states)
    return sum(len(s) for s in op.stores if s is not None)


def replay(eng, epochs: list, tracer: Tracer, root: str) -> dict:
    """Drive ``epochs`` through the layers the way ``eng`` would, with
    sink and checkpoints under ``root``.  Returns the layer counters."""
    P = eng.P
    epoch_ref = [0]
    kw = dict(eng.op_kwargs)
    if eng.combine:
        kw["spec"] = _TracedSpec(kw["spec"], tracer, epoch_ref)
    ops = [make_operator(eng.op_kind, **kw) for _ in range(P)]
    sinks = [ExactlyOnceSink(os.path.join(root, "sink"), p,
                             durable=eng.sink_durable) for p in range(P)]
    ckpts = [CheckpointStore(os.path.join(root, "ckpt"), p) for p in range(P)]
    sched = eng._schedule(epochs, "event_ts")
    cols = (list(eng.shuffle_columns) + ["__stream"]
            if eng.shuffle_columns else None)
    c = {"shuffle_bytes": 0, "rows_in": 0, "pane_rows": 0, "state_peak": 0,
         "part_rows": np.zeros(P, np.int64), "sink_bytes": 0,
         "ckpt_bytes": 0, "snapshot_peak": 0}
    for e in range(len(epochs) + 1):
        epoch_ref[0] = e
        flush = e == len(epochs)
        wm_prev = sched[e - 1] if e > 0 else MIN_TS
        wm = END_WM if flush else sched[e]
        if not flush:
            with tracer.span("partitioning.load_epoch", e):
                table = load_epoch(epochs[e], columns=cols)
            c["rows_in"] += table.num_rows
            if eng.combine:
                # the map-side fold is the split task's body on this path,
                # so its span (kernel calls aside) is partitioning's, like
                # split_by_partition on the row path
                with tracer.span("partitioning.combine_window_block", e):
                    payloads = combine_window_block(
                        table, kw["spec"], kw["assigner"], "event_ts",
                        wm_prev, P)
                c["shuffle_bytes"] += sum(len(pickle.dumps(p))
                                          for p in payloads)
                for p, payload in enumerate(payloads):
                    c["part_rows"][p] += payload["rows"]
                    c["pane_rows"] += sum(s["n_clips"] for _k, _w, s
                                          in payload["partials"])
                    with tracer.span("operators.ingest_partials", e):
                        ops[p].ingest_partials(payload)
            else:
                with tracer.span("partitioning.split_by_partition", e):
                    shards = split_by_partition(table, eng.key_column, P)
                c["shuffle_bytes"] += sum(s.nbytes for s in shards)
                for p, shard in enumerate(shards):
                    c["part_rows"][p] += shard.num_rows
                    before = ops[p].rows_seen - ops[p].late_rows
                    with tracer.span("operators.apply", e):
                        ops[p].apply(shard, wm_prev)
                    c["pane_rows"] += ops[p].rows_seen - ops[p].late_rows - before
        c["state_peak"] = max(c["state_peak"],
                              sum(_state_size(op) for op in ops))
        for p, op in enumerate(ops):
            with tracer.span("operators.on_watermark", e):
                if hasattr(op, "on_watermark_split"):
                    rows, _partials = op.on_watermark_split(wm)
                else:
                    rows = op.on_watermark(wm)
            with tracer.span("oracle.canonical_sort", e):
                emitted = canonical_sort(rows)
            with tracer.span("engine.rows_to_arrow", e):
                out = pa.Table.from_pylist(emitted) if emitted else None
            with tracer.span("sink.commit", e):
                sinks[p].commit(e, out, watermark=wm, max_offset=-1)
            frag = sinks[p].manifest["epochs"][str(e)]["fragment"]
            c["sink_bytes"] += os.path.getsize(sinks[p].manifest_path) + (
                os.path.getsize(os.path.join(sinks[p].data_dir, frag))
                if frag else 0)
            if e % eng.ckpt_interval == eng.ckpt_interval - 1:
                with tracer.span("checkpoint.snapshot", e):
                    blob = op.snapshot()
                with tracer.span("checkpoint.save", e):
                    ckpts[p].save(e, blob, wm, -1)
                c["snapshot_peak"] = max(c["snapshot_peak"], len(blob))
                c["ckpt_bytes"] += os.path.getsize(
                    os.path.join(ckpts[p].dir, f"e{e:06d}.ckpt"))
    c["manifest_bytes"] = sum(os.path.getsize(s.manifest_path) for s in sinks)
    return c


def ray_floor(tracer: Tracer) -> dict:
    """The runtime's floor on the host: a no-op actor round trip, a
    cross-process Arrow get, and an identity ``map_batches``."""

    @ray.remote(num_cpus=0)
    class Noop:
        def ping(self):
            return None

        def table(self, n):
            return pa.table({"x": np.arange(n, dtype=np.int64)})

    a = Noop.remote()
    ray.get(a.ping.remote())
    with tracer.span("ray.actor_call", None):
        for _ in range(100):
            ray.get(a.ping.remote())
    ref = a.table.remote(1 << 22)
    ray.wait([ref])
    with tracer.span("ray.get", None):
        got = ray.get(ref)
        pc.sum(got["x"])  # touch every byte, not just the mapping
    ray.kill(a)
    ray.data.DataContext.get_current().enable_progress_bars = False
    ds = ray.data.from_arrow(pa.table({"x": np.arange(1 << 16)}))
    with tracer.span("ray.map_batches", None):
        rows = ds.map_batches(lambda b: b, batch_format="pyarrow",
                              batch_size=4096).count()
    if rows != 1 << 16:
        raise RuntimeError(f"identity map_batches returned {rows} rows")
    (call_s,), (get_s,), (mb_s,) = (tracer.durations(f"ray.{n}") for n in
                                    ("actor_call", "get", "map_batches"))
    return {"ray.actor_call_ms": call_s / 100 * 1e3,
            "ray.get_gbps": got["x"].nbytes / get_s / 1e9,
            "ray.map_batches_ms": mb_s * 1e3}


def kernel_ms_per_kclip(sample: pa.Table) -> dict:
    """Each kernel's ``update_table`` over a fixed clip sample."""
    out = {}
    for name, spec in (("spectral", AudioSpectral()), ("energy", AudioEnergy()),
                       ("stats", ClipStats())):
        t0 = time.perf_counter()
        spec.update_table(spec.initial_state(), sample)
        out[f"kernels.{name}_ms_per_kclip"] = (
            (time.perf_counter() - t0) * 1e3 / sample.num_rows * 1000)
    return out


def layer_metrics(tracer: Tracer, c: dict, replay_s: float,
                  untraced_s: float, untraced_cpu_s: float) -> tuple[dict, dict]:
    """(per-layer metrics, trace summary) from one traced replay.

    The runtime's share is the session's CPU time during the untraced
    round minus the layer sum: the partitions run in parallel, so wall
    time alone would undercount what the layers cost."""
    def ms(name: str) -> float:
        return sum(tracer.durations(name)) * 1e3

    commits = tracer.durations("sink.commit")
    tenth = max(1, len(commits) // 10)
    first = statistics.median(commits[:tenth]) * 1e3
    last = statistics.median(commits[-tenth:]) * 1e3
    part = c["part_rows"]
    self_ms = tracer.self_ms()
    layer_sum = sum(v for k, v in self_ms.items() if k != "ray")
    m = {
        "engine.rows_to_arrow_ms": ms("engine.rows_to_arrow"),
        "oracle.canonical_sort_ms": ms("oracle.canonical_sort"),
        "partitioning.load_epoch_ms": ms("partitioning.load_epoch"),
        "partitioning.shuffle_map_ms": (
            ms("partitioning.split_by_partition")
            + ms("partitioning.combine_window_block")),
        "partitioning.shuffle_mb": c["shuffle_bytes"] / 2**20,
        "partitioning.partition_rows_max": int(part.max()),
        "partitioning.partition_rows_mean": float(part.mean()),
        "partitioning.partition_skew": float(part.max() / part.mean()),
        "operators.apply_ms": (ms("operators.ingest_partials")
                               + ms("operators.apply")),
        "operators.close_ms": ms("operators.on_watermark"),
        "operators.state_peak": c["state_peak"],
        "operators.pane_rows_per_row": c["pane_rows"] / c["rows_in"],
        "sink.commit_ms": statistics.median(commits) * 1e3,
        "sink.commit_first_ms": first,
        "sink.commit_last_ms": last,
        "sink.commit_growth": last / first,
        "sink.manifest_kb": c["manifest_bytes"] / 1024,
        "sink.mb_written": c["sink_bytes"] / 2**20,
        "checkpoint.save_ms": (ms("checkpoint.snapshot")
                               + ms("checkpoint.save")),
        "checkpoint.snapshot_mb_peak": c["snapshot_peak"] / 2**20,
        "checkpoint.mb_written": c["ckpt_bytes"] / 2**20,
        "trace.runtime_gap_ms": untraced_cpu_s * 1e3 - layer_sum,
        "trace.overhead_ms": (replay_s - untraced_s) * 1e3,
    }
    for layer in ("partitioning", "operators"):
        m[f"{layer}.self_ms"] = self_ms[layer]
    summary = {"self_ms": self_ms, "layer_sum_ms": layer_sum,
               "untraced_wall_ms": untraced_s * 1e3,
               "untraced_cpu_ms": untraced_cpu_s * 1e3,
               "traced_wall_ms": replay_s * 1e3,
               "runtime_gap_ms": m["trace.runtime_gap_ms"],
               "overhead_ms": m["trace.overhead_ms"],
               "spans": len(tracer.spans)}
    return m, summary
