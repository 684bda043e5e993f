"""StreamEngine — the epoch-batched parallel executor.

Graft of the reference's frontier-batched parallel worklist executor
(``impls/src/parallel.rs:14-91``): there, each round takes the whole
dirty frontier, fans it to a rayon pool against a state snapshot, then
merges results and builds the next frontier.  Here one **epoch** is one
round, executed as a BSP superstep in two phases:

  phase 1 — INGEST: stateless split tasks hash-partition the epoch's
    Arrow blocks on the operator key (one Ray task per block,
    ``num_returns=P`` object refs; rows move through the object store,
    never the driver).  P partition actors fold their shards into their
    key-window state stores and close windows the (precomputed,
    input-deterministic) watermark passed.  Closed windows of *salted*
    hot keys yield partial states instead of rows.

  phase 2 — FINALIZE: partials are routed to each key's owner partition
    (``stable_hash(key) % P``), merged via the operator spec's
    semilattice ``merge``, finished, appended to the epoch's emissions,
    committed to the exactly-once sink, and checkpointed.

Unlike the reference, whose merge phase is single-threaded and is
explicitly called out as the bottleneck (``blog/blog.md:47``), both
phases here are partition-parallel; the driver only moves epoch
metadata (refs, watermarks, partial-state envelopes for hot keys).

Skew: ``salted_keys = {key: n_salts}`` routes a hot key's rows across
``n_salts`` partitions (the blog's skew finding, ``blog/blog.md:84``,
is the motivation; semilattice merge is the correctness argument,
``blog/blog.md:91-103``).  The windowed aggregate ships partial states
to the key's owner; the symmetric join uses the salt-one-side /
broadcast-the-other decomposition instead (``join_broadcast_side``):
each hot-key pair meets on exactly one partition, so matches stay
final and no merge phase exists.

Scale notes: actors are long-lived (state amortized across epochs);
shards are shipped as object refs so Ray can spill under pressure; the
shuffle prunes to the columns the operator declares
(``spec.value_columns``) before anything moves.  On a real cluster the
same topology runs unchanged via ``ray job submit``.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa
import pyarrow.compute as pc
import ray

from .checkpoint import CheckpointStore
from .oracle import canonical_order
from .partitioning import partition_ids, split_by_partition
from .sink import ExactlyOnceSink
from .spec import StreamOpSpec
from .watermark import MIN_TS
from .operators import concat_nonempty, make_operator

END_WM = 2**62


def _do_split(source, key_column: str, num_partitions: int,
              salted_keys: dict | None, columns: list | None = None,
              combine: dict | None = None,
              join_broadcast_side: int | None = None):
    """Shuffle-map body: one input block (in-memory table or a parquet
    fragment descriptor — read HERE, so ingest I/O scales with the
    cluster) -> P hash shards.

    With ``combine`` set ({"spec", "assigner", "ts_column", "wm_prev"}),
    the block is folded map-side into per-(key, window) PARTIAL states
    and only those (plus row/late accounting) ship — the raw value
    payload (e.g. PCM bytes) never enters the object store.  This is
    the streaming analog of map-side combine before a groupby."""
    from .partitioning import load_epoch

    cols = list(columns) + ["__stream"] if columns else None
    table = load_epoch(source, columns=cols)
    if columns:
        keep = [c for c in columns if c in table.column_names]
        if "__stream" in table.column_names:
            keep.append("__stream")
        table = table.select(keep)
    if combine is not None:
        from .operators import combine_window_block

        payloads = combine_window_block(
            table, combine["spec"], combine["assigner"],
            combine["ts_column"], combine["wm_prev"], num_partitions,
            capture_late=combine.get("capture_late", False))
        if num_partitions == 1:
            return payloads[0]
        return tuple(payloads)
    shards = split_by_partition(table, key_column, num_partitions,
                                salted_keys=salted_keys,
                                join_broadcast_side=join_broadcast_side)
    if num_partitions == 1:
        return shards[0]
    return tuple(shards)


@ray.remote
def _split_block(source, key_column, num_partitions, salted_keys,
                 columns=None, combine=None, join_broadcast_side=None):
    """Stateless task variant (kept for one-shot runs)."""
    return _do_split(source, key_column, num_partitions, salted_keys,
                     columns, combine, join_broadcast_side)


@ray.remote(num_cpus=0)
class SplitWorker:
    """Long-lived shuffle-map worker.  Splits run on a persistent actor
    pool rather than stateless tasks: Ray culls idle TASK workers beyond
    the CPU soft limit, and respawning them (process fork + imports) in
    the middle of a stream showed up as multi-second ingest stalls.
    Long-lived map-side workers are also the production shape — the
    reader processes of a streaming source are pinned, not ephemeral.
    In combine mode this pool carries the operator's fold compute, so
    the engine sizes it to the CPU count instead of the prefetch depth."""

    def split(self, source, key_column, num_partitions, salted_keys,
              columns=None, combine=None, join_broadcast_side=None):
        return _do_split(source, key_column, num_partitions, salted_keys,
                         columns, combine, join_broadcast_side)


@ray.remote(num_cpus=0.25)
class PartitionWorker:
    """One hash partition's stateful executor: operator + sink + ckpt."""

    def __init__(self, partition: int, op_kind: str, op_kwargs: dict,
                 sink_root: str | None, ckpt_root: str | None,
                 partial_keys: frozenset = frozenset(),
                 sink_durable: bool = True, track_keys: bool = False,
                 late_root: str | None = None,
                 fail_at: dict | None = None):
        import time
        self._time = time
        #: test-only one-shot fault: hard-exit this actor at (partition,
        #: epoch) unless the marker file already records the kill
        self._fail_at = fail_at
        self.partition = partition
        if op_kind == "window" and partial_keys:
            op_kwargs = dict(op_kwargs, partial_keys=partial_keys)
        self.op_kind = op_kind
        self._op_kwargs = op_kwargs
        self.op = make_operator(op_kind, **op_kwargs)
        self._sink_durable = sink_durable
        self.sink = (ExactlyOnceSink(sink_root, partition, durable=sink_durable)
                     if sink_root else None)
        #: dead-letter side output: rows the watermark already closed out
        #: are committed per epoch to a SECOND exactly-once sink — same
        #: epoch-idempotent protocol, so crash/replay never duplicates or
        #: loses a late row
        self.late_sink = (ExactlyOnceSink(late_root, partition,
                                          durable=sink_durable)
                          if late_root else None)
        if self.late_sink is not None and hasattr(self.op, "capture_late"):
            self.op.capture_late = True
        self.ckpt = CheckpointStore(ckpt_root, partition) if ckpt_root else None
        self.max_offset = -1
        self._pending: list[pa.Table] = []  # this epoch's emitted tables
        self._ingest_s = 0.0
        #: running per-key row counts (heavy-hitter detection feed): an
        #: unsalted key's rows all land here, so this partition's count
        #: IS the key's global count — no extra shuffle needed
        self._track_keys = track_keys
        self._key_counts: dict = {}

    def set_partial_keys(self, keys: frozenset) -> None:
        """Mid-stream re-salt: mark keys whose closed windows must ship
        PARTIAL state for owner-side merge from now on (epochs already
        in this actor's queue were enqueued first — FIFO actor order
        makes the switch land exactly between epochs)."""
        if hasattr(self.op, "partial_keys"):
            self.op.partial_keys = frozenset(keys)

    def restore(self, epoch: int) -> int:
        d = self.ckpt.load(epoch)
        self.op.restore(d["op"])
        self.max_offset = d["max_offset"]
        return epoch

    def reload_sink(self) -> None:
        """Re-read sink manifests from disk — required after a rescaled
        resume revokes epochs (the actor cached the manifest at
        construction, before the revoke rewrote it)."""
        if self.sink is not None:
            self.sink.manifest = self.sink._load_manifest()
        if self.late_sink is not None:
            self.late_sink.manifest = self.late_sink._load_manifest()

    def reset(self, sink_root: str | None, ckpt_root: str | None,
              late_root: str | None = None) -> None:
        """Fresh stream on the same (warm) process: rebuild operator state
        and re-point sink/checkpoint roots."""
        self.op = make_operator(self.op_kind, **self._op_kwargs)
        self.sink = (ExactlyOnceSink(sink_root, self.partition,
                                     durable=self._sink_durable)
                     if sink_root else None)
        self.late_sink = (ExactlyOnceSink(late_root, self.partition,
                                          durable=self._sink_durable)
                          if late_root else None)
        if self.late_sink is not None and hasattr(self.op, "capture_late"):
            self.op.capture_late = True
        self.ckpt = (CheckpointStore(ckpt_root, self.partition)
                     if ckpt_root else None)
        self.max_offset = -1
        self._pending = []
        self._key_counts = {}

    def ingest_epoch(self, epoch: int, wm_prev: int, wm: int,
                     shards: list) -> list[tuple]:
        """Phase 1: fold shards, close windows; buffer finished rows and
        return partial states (salted keys) for owner-side merge."""
        if (self._fail_at is not None
                and self.partition == self._fail_at["partition"]
                and epoch == self._fail_at["epoch"]):
            import os as _os
            marker = self._fail_at["marker"]
            if not _os.path.exists(marker):
                with open(marker, "w") as f:
                    f.write("killed")
                _os._exit(1)        # simulate an abrupt actor loss
        t0 = self._time.perf_counter()
        # shards arrive as ObjectRefs inside a list (deliberately NOT
        # top-level args, so Ray does not copy them into the actor queue);
        # ray.get is zero-copy for Arrow tables in the local object store.
        if shards and isinstance(shards[0], ray.ObjectRef):
            shards = ray.get(list(shards))
        self._wait_s = self._time.perf_counter() - t0
        for shard in shards:
            if isinstance(shard, dict):
                # map-side-combined payload: partial states + accounting
                if shard["max_offset"] > self.max_offset:
                    self.max_offset = shard["max_offset"]
                self.op.ingest_partials(shard)
                continue
            if shard.num_rows:
                mo = pc.max(shard["offset"]).as_py()
                if mo is not None and mo > self.max_offset:
                    self.max_offset = mo
                if self._track_keys:
                    kc = self.op.spec.key_column if hasattr(self.op, "spec") \
                        else getattr(self.op, "key_column", None)
                    if kc is not None:
                        vc = pc.value_counts(shard[kc])
                        for item in vc.to_pylist():
                            k = item["values"]
                            self._key_counts[k] = (self._key_counts.get(k, 0)
                                                   + item["counts"])
                self.op.apply(shard, wm_prev)
        if hasattr(self.op, "on_watermark_split"):
            rows, partials = self.op.on_watermark_split(wm)
        else:
            rows, partials = self.op.on_watermark(wm), []
        self._pending.append(rows)
        self._ingest_s = self._time.perf_counter() - t0
        return partials

    def process_epoch(self, epoch: int, wm_prev: int, wm: int, shards: list,
                      *, checkpoint: bool, collect: bool,
                      commit: bool = True) -> dict:
        """Single-phase superstep (no salted keys): ingest + close +
        commit in one actor call.  Lets the driver pipeline epochs —
        actor message order guarantees per-partition epoch order, so no
        driver barrier is needed between epochs."""
        partials = self.ingest_epoch(epoch, wm_prev, wm, shards)
        groups: dict = {}
        for key, w_, s in partials:  # only non-empty if salting misused
            groups.setdefault((key, w_), []).append(s)
        return self.finalize_epoch(epoch, wm, groups, checkpoint=checkpoint,
                                   collect=collect, commit=commit)

    def finalize_epoch(self, epoch: int, wm: int, partial_groups: dict,
                       *, checkpoint: bool, collect: bool,
                       commit: bool = True) -> dict:
        """Phase 2: merge partials owned by this partition, order the
        epoch's emitted tables with one Arrow sort, commit them
        idempotently, checkpoint.  The metrics row carries the live
        state (``state_rows``, ``state_bytes``) after the epoch."""
        t0 = self._time.perf_counter()
        if partial_groups:
            self._pending.append(self.op.merge_partials(partial_groups))
        table = concat_nonempty(self._pending)
        self._pending = []
        table = canonical_order(table) if table.num_rows else None
        t_commit = self._time.perf_counter()
        elapsed = self._ingest_s + (t_commit - t0)
        if self.sink is not None and commit:
            self.sink.commit(epoch, table, watermark=wm,
                             max_offset=self.max_offset, elapsed_s=elapsed)
        if self.late_sink is not None and commit:
            late_tbl = (self.op.take_late()
                        if hasattr(self.op, "take_late") else None)
            self.late_sink.commit(epoch, late_tbl, watermark=wm,
                                  max_offset=self.max_offset,
                                  elapsed_s=elapsed)
        t_ckpt = self._time.perf_counter()
        if self.ckpt is not None and checkpoint and commit:
            self.ckpt.save(epoch, self.op.snapshot(), wm, self.max_offset)
        t_end = self._time.perf_counter()
        # elapsed_s is ingest + close + emit; the sink commits and the
        # checkpoint (fsync included) are timed on their own
        state_rows, state_bytes = self.op.state_stats()
        out = {"partition": self.partition, "epoch": epoch,
               "emitted": table.num_rows if table is not None else 0,
               "late_rows": self.op.late_rows,
               "rows_seen": self.op.rows_seen, "elapsed_s": elapsed,
               "commit_s": t_ckpt - t_commit,
               "ckpt_s": t_end - t_ckpt,
               "wait_s": getattr(self, "_wait_s", 0.0),
               "state_rows": state_rows, "state_bytes": state_bytes}
        if self._track_keys and self._key_counts:
            import heapq as _hq
            top = _hq.nlargest(8, self._key_counts.items(), key=lambda kv: kv[1])
            out["key_counts"] = dict(top)
        if collect:
            out["emitted_rows"] = table
        return out


class StreamEngine:
    """Drives one operator over an epoch-framed stream.

    Parameters mirror a ``ray job submit`` job config: operator kind +
    kwargs, partition count P, lateness, salted hot keys, sink /
    checkpoint roots, checkpoint interval.
    """

    def __init__(self, op_kind: str, op_kwargs: dict, *, num_partitions: int = 8,
                 allowed_lateness_us: int = 0, sink_root: str | None = None,
                 ckpt_root: str | None = None, ckpt_interval: int = 4,
                 key_column: str | None = None, actor_num_cpus: float = 0.25,
                 salted_keys: dict[Any, int] | None = None,
                 shuffle_columns: list[str] | None = None,
                 sink_durable: bool = True,
                 hot_key_config: dict | None = None,
                 map_side_combine: bool | str = "auto",
                 join_broadcast_side: int = 1,
                 late_root: str | None = None,
                 max_recoveries: int = 2,
                 failure_injection: dict | None = None):
        self.op_kind = op_kind
        self.op_kwargs = op_kwargs
        self.P = num_partitions
        self.lateness = allowed_lateness_us
        self.sink_root = sink_root
        #: dead-letter root: when set, rows that arrive after their
        #: window closed are routed (full rows, not just counts) to a
        #: second per-partition exactly-once sink under this directory
        self.late_root = late_root
        self.ckpt_root = ckpt_root
        self.ckpt_interval = max(1, ckpt_interval)
        self.sink_durable = sink_durable
        spec = op_kwargs.get("spec")
        if key_column is None:
            key_column = (spec.key_column if isinstance(spec, StreamOpSpec)
                          else op_kwargs.get("key_column", "clip_id"))
        self.key_column = key_column
        self.actor_num_cpus = actor_num_cpus
        #: unsalted epochs pipeline through the actors with this many
        #: in-flight (bounded for backpressure); per-actor message order
        #: keeps per-partition epoch order correct
        self.pipeline_depth = 4
        #: shuffle-map tasks are launched this many epochs ahead of the
        #: actor pipeline so ingest never waits on a split
        self.split_prefetch = 8
        #: keep the actor pool alive across run() calls (long-lived
        #: production actors; avoids paying worker-process spawn + import
        #: on every stream) — pair with reset_state() between streams
        self.keep_workers = False
        self._workers = None
        self._splitters: list = []
        self._split_rr = 0
        #: self-healing: an actor lost mid-run (OOM kill, node loss) is
        #: recovered INSIDE run() by falling back to the proven
        #: checkpoint-resume path — up to this many times per run()
        self.max_recoveries = max_recoveries
        #: test-only deterministic fault: {"partition": p, "epoch": e,
        #: "marker": path} — that partition's actor hard-exits once at
        #: that epoch (the marker file makes the injection one-shot)
        self.failure_injection = failure_injection
        self.salted_keys = dict(salted_keys) if salted_keys else None
        if self.op_kind not in ("window", "join") and self.salted_keys:
            raise ValueError("salted_keys applies to the windowed aggregate "
                             "(partial-state owner merge) and the symmetric "
                             "join (salt-one-side / broadcast-the-other)")
        #: symmetric-join skew shape: rows of a salted key on THIS
        #: ``__stream`` side replicate to every salt route; the other
        #: side's rows spread across the routes, so each pair meets on
        #: exactly one partition (no owner merge, matches stay final and
        #: the pipelined path applies).  Pick the lighter stream as the
        #: broadcast side.  Static per run: joins must keep the same
        #: salted_keys across resume (state co-location is routing-
        #: determined), which is why runtime hot-key re-salting stays
        #: window-only.
        self.join_broadcast_side = (int(join_broadcast_side)
                                    if self.op_kind == "join" and
                                    self.salted_keys else None)
        #: mid-stream heavy-hitter re-salting (the blog's skew finding,
        #: blog/blog.md:84, detected at RUNTIME instead of an epoch-0
        #: pre-scan): {"threshold_frac": f, "min_rows": n}.  Partition
        #: actors feed running per-key counts through the epoch metrics;
        #: a key crossing the threshold is added to salted_keys and the
        #: actors switch it to partial-state mode between epochs.
        if hot_key_config is not None and self.op_kind != "window":
            raise ValueError("hot_key_config applies to the windowed aggregate")
        self.hot_key_config = dict(hot_key_config) if hot_key_config else None
        self._pkc: dict[int, dict] = {}    # partition -> {key: cum count}
        self._last_rows: dict[int, int] = {}
        self._cur_workers: list | None = None
        #: map-side combine: fold per-(key, window) partials in the
        #: split task and ship ONLY partials — legal exactly when salted
        #: splitting is legal (semilattice merge over disjoint row
        #: subsets).  "auto" turns it on for incremental tumbling/
        #: sliding window specs, unless skew salting / runtime hot-key
        #: detection is in play (combining already collapses a hot key
        #: to <=1 partial per block, so those row-shipping modes are
        #: kept as-is for their own tests).
        assigner = op_kwargs.get("assigner")
        combinable = (op_kind == "window" and isinstance(spec, StreamOpSpec)
                      and spec.incremental
                      and getattr(assigner, "kind", None) in ("tumbling",
                                                              "sliding"))
        if map_side_combine == "auto":
            self.combine = (combinable and not self.salted_keys
                            and not self.hot_key_config)
        else:
            self.combine = bool(map_side_combine)
            if self.combine and not combinable:
                raise ValueError("map_side_combine requires an incremental "
                                 "tumbling/sliding window spec")
            if self.combine and (self.salted_keys or self.hot_key_config):
                raise ValueError("map_side_combine subsumes skew salting; "
                                 "configure one or the other")
        self._combine_info = ({"spec": spec, "assigner": assigner}
                              if self.combine else None)
        #: target rows per combine-mode split task (fold granularity)
        self.combine_split_rows = 1000
        #: logical CPUs per combine fold task: fractional so the task
        #: count mildly oversubscribes the free cores (8-CPU node with
        #: P=6 light partition actors -> 8 concurrent folds, not 6),
        #: hiding each task's read phase behind another's compute
        self.combine_task_cpus = 0.75
        # shuffle column pruning: key + time + lineage + what the spec reads
        if shuffle_columns is None and isinstance(spec, StreamOpSpec) and spec.value_columns:
            shuffle_columns = list(dict.fromkeys(
                [key_column, "event_ts", "offset", *spec.value_columns]))
        self.shuffle_columns = shuffle_columns

    # -- watermark schedule: pure function of (input, framing, lateness) --
    def _schedule(self, epochs: list, ts_column: str) -> list[int]:
        wms, mx = [], MIN_TS
        for t in epochs:
            if isinstance(t, dict):  # fragment descriptor: footer stats
                mx = max(mx, t["max_ts_us"])
            elif t.num_rows:
                m = pc.max(t[ts_column].cast(pa.int64())).as_py()
                mx = max(mx, m)
            wms.append(mx - self.lateness if mx != MIN_TS else MIN_TS)
        return wms

    def run(self, epochs: list[pa.Table], *, ts_column: str = "event_ts",
            collect: bool = False, stop_after_epoch: int | None = None,
            commit_partitions: set[int] | None = None,
            final_flush: bool = False) -> dict:
        """Run to stream end (or simulate a crash via ``stop_after_epoch``
        / a partial final-epoch commit via ``commit_partitions``).

        Returns {"emitted": rows-per-epoch if collect, "metrics": ...,
        "start_epoch": resumed-from, "recoveries": actor-losses healed,
        "watermarks": schedule}.  Resume is automatic when the
        checkpoint root holds a complete epoch.

        SELF-HEALING: a partition actor lost mid-run (OOM kill, node
        failure) does not fail the job — when a checkpoint root is
        configured, the engine tears the pool down and re-enters the
        run body, which restores every partition from the last complete
        checkpoint and replays forward; the epoch-idempotent sink
        absorbs any re-emissions (the exact machinery the kill/resume
        matrix verifies).  The sink contract is unaffected; in
        ``collect`` mode only the final attempt's replayed epochs are
        collected — read the sink for the full stream.
        """
        recoveries = 0
        while True:
            try:
                res = self._run_once(
                    epochs, ts_column=ts_column, collect=collect,
                    stop_after_epoch=stop_after_epoch,
                    commit_partitions=commit_partitions,
                    final_flush=final_flush)
                res["recoveries"] = recoveries
                return res
            except ray.exceptions.RayActorError:
                if not self.ckpt_root or recoveries >= self.max_recoveries:
                    raise
                recoveries += 1
                self.close()

    def _run_once(self, epochs: list[pa.Table], *,
                  ts_column: str = "event_ts",
                  collect: bool = False, stop_after_epoch: int | None = None,
                  commit_partitions: set[int] | None = None,
                  final_flush: bool = False) -> dict:
        wm_sched = self._schedule(epochs, ts_column)
        reuse = self._workers is not None
        if not reuse and self.P == 0:
            # adaptive dispatch (the MixedExecutor analog, reference
            # impls/src/mixed.rs:32-38): tiny streams run on one
            # partition (no shuffle/actor overhead), large ones fan out.
            # Unlike the reference's per-CFG block-count threshold (which
            # the blog found could LOSE, blog/blog.md:70) this keys on
            # total rows vs a per-partition floor, so parallelism never
            # exceeds useful work.
            total = sum(t["rows"] if isinstance(t, dict) else t.num_rows
                        for t in epochs)
            import ray as _ray
            cpus = int(_ray.cluster_resources().get("CPU", 4))
            self.P = max(1, min(cpus, total // 2000)) if total >= 4000 else 1
        if reuse:
            # persistent pool (long-lived actors — the production shape):
            # same processes, state freshly reset via reset_state()
            workers = self._workers
        else:
            # combine mode: the fold lives in the split tasks, so the
            # partition actors (merge partials + sink) need only a light
            # reservation — otherwise P idle actors would hold the CPUs
            # the fold tasks should be running on
            part_cpus = (min(self.actor_num_cpus, 0.25) if self.combine
                         else self.actor_num_cpus)
            workers = [
                PartitionWorker.options(num_cpus=part_cpus)
                .remote(p, self.op_kind, self.op_kwargs, self.sink_root,
                        self.ckpt_root,
                        frozenset(self.salted_keys) if self.salted_keys else frozenset(),
                        self.sink_durable, self.hot_key_config is not None,
                        self.late_root, self.failure_injection)
                for p in range(self.P)
            ]
            # zero-CPU actors: concurrency is bounded by the pool size, and
            # a zero logical footprint can never deadlock against the
            # partition actors' reservations on a small node.  (Combine
            # mode bypasses this pool — see _split_epoch.)
            n_split = max(2, min(self.split_prefetch, self.P))
            self._splitters = [SplitWorker.remote() for _ in range(n_split)]
            self._split_rr = 0
        self._cur_workers = workers
        start_epoch = 0
        if self.ckpt_root and not reuse:
            from .reshard import (list_checkpoint_partitions,
                                  reshard_snapshots,
                                  revoke_sink_epochs_after)

            p_old = list_checkpoint_partitions(self.ckpt_root)
            if p_old and p_old != self.P:
                # RESCALED resume (Flink-style): re-key the old layout's
                # state to this run's P, persist the new layout at the
                # same epoch, revoke sink output past the checkpoint so
                # replay re-emits it under the new partitioning exactly
                # once (see streaming/reshard.py)
                re = CheckpointStore.resume_epoch(self.ckpt_root, p_old)
                if re is not None:
                    import os as _os
                    import shutil as _sh

                    olds = [CheckpointStore(self.ckpt_root, p).load(re)
                            for p in range(p_old)]
                    blobs = reshard_snapshots(
                        self.op_kind, self.op_kwargs,
                        [d["op"] for d in olds], self.P)
                    wm = max(d["watermark"] for d in olds)
                    moff = max(d["max_offset"] for d in olds)
                    for p in range(self.P):
                        CheckpointStore(self.ckpt_root, p).save(
                            re, blobs[p], wm, moff)
                    for p in range(self.P, p_old):
                        _sh.rmtree(_os.path.join(self.ckpt_root,
                                                 f"p{p:05d}"),
                                   ignore_errors=True)
                    if self.sink_root:
                        revoke_sink_epochs_after(self.sink_root, re)
                    if self.late_root:
                        revoke_sink_epochs_after(self.late_root, re)
                    ray.get([w.reload_sink.remote() for w in workers])
                    ray.get([w.restore.remote(re) for w in workers])
                    start_epoch = re + 1
            else:
                re = CheckpointStore.resume_epoch(self.ckpt_root, self.P)
                if re is not None:
                    ray.get([w.restore.remote(re) for w in workers])
                    start_epoch = re + 1

        per_epoch_emitted: list[list[dict]] = []
        metrics: list[dict] = []
        inflight: list[tuple[int, list]] = []  # pipelined (epoch, futures)

        def drain(upto: int) -> None:
            while len(inflight) > upto:
                _, fs = inflight.pop(0)
                self._absorb(ray.get(fs), collect, per_epoch_emitted, metrics)

        try:
            schedule = list(range(start_epoch, len(epochs)))
            if stop_after_epoch is not None:
                schedule = [e for e in schedule if e <= stop_after_epoch]
            split_cache: dict[int, list] = {}  # epoch -> per-part shard refs
            for i, e in enumerate(schedule):
                is_last = (stop_after_epoch is not None and e == stop_after_epoch)
                cp = commit_partitions if is_last else None
                wm_prev = wm_sched[e - 1] if e > 0 else MIN_TS
                # prefetch shuffle-map tasks ahead of the actor pipeline so
                # actors never stall waiting for a split (combine mode:
                # the splits ARE the compute, so prefetch at least the
                # full split pool's width to keep every worker busy)
                prefetch = self.split_prefetch
                if self.combine:
                    prefetch = max(prefetch, len(self._splitters) + 4)
                for ee in schedule[i:i + prefetch]:
                    if ee not in split_cache:
                        wp = wm_sched[ee - 1] if ee > 0 else MIN_TS
                        split_cache[ee] = self._split_epoch(
                            epochs[ee], wm_prev=wp, ts_column=ts_column)
                per_part = split_cache.pop(e)
                if self.salted_keys and self.op_kind == "window":
                    # two-phase path needs a barrier to route partials
                    # (join matches are final at their salt partition —
                    # salted joins stay on the pipelined path below)
                    drain(0)
                    self._superstep(e, per_part, wm_prev, wm_sched[e],
                                    workers, collect, per_epoch_emitted,
                                    metrics, cp)
                else:
                    # pipelined path: per-actor message order already
                    # serializes epochs per partition; keep a bounded
                    # in-flight window for backpressure
                    futs = self._launch_epoch(e, per_part, wm_prev,
                                              wm_sched[e], workers, collect, cp)
                    inflight.append((e, futs))
                    drain(self.pipeline_depth)
            drain(0)
            if final_flush and stop_after_epoch is None:
                # end-of-stream: watermark -> +inf closes every open window
                # (the fixpoint-termination analog: the frontier empties)
                wm_last = wm_sched[-1] if wm_sched else MIN_TS
                self._superstep(len(epochs), self._split_epoch(None), wm_last,
                                END_WM, workers, collect, per_epoch_emitted,
                                metrics, None)
        finally:
            if self.keep_workers:
                self._workers = workers
            else:
                for w in workers + self._splitters:
                    ray.kill(w, no_restart=True)
                self._splitters = []
        return {"emitted": per_epoch_emitted if collect else None,
                "metrics": metrics, "start_epoch": start_epoch,
                "watermarks": wm_sched}

    def reset_state(self, new_sink_root: str | None = None,
                    new_ckpt_root: str | None = None) -> None:
        """Reset operator state on a persistent pool (fresh stream, same
        processes).  Optionally point the pool at new sink/ckpt roots."""
        if self._workers is None:
            return
        if new_sink_root is not None:
            self.sink_root = new_sink_root
        if new_ckpt_root is not None:
            self.ckpt_root = new_ckpt_root
        ray.get([w.reset.remote(self.sink_root, self.ckpt_root,
                                self.late_root)
                 for w in self._workers])

    def close(self) -> None:
        if self._workers is not None:
            for w in self._workers + self._splitters:
                ray.kill(w, no_restart=True)
            self._workers = None
            self._splitters = []

    def _split_epoch(self, source, wm_prev: int = MIN_TS,
                     ts_column: str = "event_ts") -> list[list]:
        per_part: list[list] = [[] for _ in range(self.P)]
        if source is None:
            return per_part
        if isinstance(source, dict):
            # fragment: the split worker reads it itself.  In combine
            # mode the split task IS the fold, so one task per fragment
            # caps intra-epoch parallelism at 1 — fan the fragment into
            # row-group-range sub-tasks (~combine_split_rows rows each;
            # the pruned read loads only those row groups' column
            # chunks), the Lance/parquet analog of task-per-row-group.
            ngs = source.get("num_row_groups", 1)
            if self.combine and ngs > 1 and "rg_start" not in source:
                rows = source.get("rows", 0) or 1
                per = max(1, round(ngs * self.combine_split_rows / rows))
                blocks = [dict(source, rg_start=g,
                               rg_count=min(per, ngs - g))
                          for g in range(0, ngs, per)]
            else:
                blocks = [source]
        elif source.num_rows == 0:
            return per_part
        else:
            blocks = self._blocks(source)
        combine = (dict(self._combine_info, ts_column=ts_column,
                        wm_prev=wm_prev,
                        capture_late=self.late_root is not None)
                   if self._combine_info is not None else None)
        nr = 1 if self.P == 1 else self.P
        split_refs = []
        for b in blocks:
            if combine is not None:
                # combine fold = real compute: a stateless num_cpus=1
                # task on the CENTRAL queue, so Ray load-balances across
                # whatever cores the light partition reservations leave
                # free — round-robin over a fixed actor pool would pin
                # variable-duration folds to queues and create stragglers
                split_refs.append(
                    _split_block.options(num_cpus=self.combine_task_cpus,
                                         num_returns=nr)
                    .remote(b, self.key_column, self.P, self.salted_keys,
                            self.shuffle_columns, combine,
                            self.join_broadcast_side))
                continue
            s = self._splitters[self._split_rr % len(self._splitters)]
            self._split_rr += 1
            split_refs.append(
                s.split.options(num_returns=nr)
                .remote(b, self.key_column, self.P, self.salted_keys,
                        self.shuffle_columns, combine,
                        self.join_broadcast_side))
        for refs in split_refs:
            if self.P == 1:
                per_part[0].append(refs)
            else:
                for p, r in enumerate(refs):
                    per_part[p].append(r)
        return per_part

    def _launch_epoch(self, e: int, per_part: list[list], wm_prev: int,
                      wm: int, workers, collect, commit_partitions) -> list:
        futs = []
        for p, w in enumerate(workers):
            commit = True if commit_partitions is None else (p in commit_partitions)
            futs.append(w.process_epoch.remote(
                e, wm_prev, wm, per_part[p],
                checkpoint=(e % self.ckpt_interval == self.ckpt_interval - 1),
                collect=collect, commit=commit))
        return futs

    def _absorb(self, results, collect, per_epoch_emitted, metrics) -> None:
        metrics.extend({k: v for k, v in r.items()
                        if k not in ("emitted_rows", "key_counts")}
                       for r in results)
        if self.hot_key_config:
            for r in results:
                if "key_counts" in r:
                    self._pkc[r["partition"]] = r["key_counts"]
                self._last_rows[r["partition"]] = r.get("rows_seen", 0)
            self._maybe_resalt()
        if collect:
            table = concat_nonempty([r["emitted_rows"] for r in results
                                    if r.get("emitted_rows") is not None])
            per_epoch_emitted.append(canonical_order(table).to_pylist())

    def _maybe_resalt(self) -> None:
        """Promote runtime heavy hitters to salted keys between epochs.
        Routing of already-split epochs stays valid (unsalted routes send
        the key's rows to its owner, which then ships partial state to
        itself), so no prefetched split is invalidated."""
        cfg = self.hot_key_config
        total = sum(self._last_rows.values())
        if total < cfg.get("min_rows", 2000) or self._cur_workers is None:
            return
        thresh = cfg.get("threshold_frac", 0.15)
        current = self.salted_keys or {}
        new = {}
        for counts in self._pkc.values():
            for k, c in counts.items():
                frac = c / total
                if frac > thresh and k not in current:
                    new[k] = int(min(self.P, max(2, round(frac * self.P * 2))))
        if new:
            self.salted_keys = {**current, **new}
            ray.get([w.set_partial_keys.remote(frozenset(self.salted_keys))
                     for w in self._cur_workers])

    def _superstep(self, e: int, per_part: list[list], wm_prev: int, wm: int,
                   workers, collect, per_epoch_emitted, metrics,
                   commit_partitions) -> None:
        """Barrier superstep (salted path): ingest -> route partials to
        owners -> finalize."""
        # phase 1: ingest + close; collect partial states of salted keys
        partials_nested = ray.get([
            w.ingest_epoch.remote(e, wm_prev, wm, per_part[p])
            for p, w in enumerate(workers)])
        # route partials to the OWNER partition (unsalted hash)
        owner_groups: list[dict] = [{} for _ in range(self.P)]
        for plist in partials_nested:
            for key, w_, state in plist:
                owner = int(partition_ids([key], self.P)[0])
                owner_groups[owner].setdefault((key, w_), []).append(state)
        # phase 2: merge + commit + checkpoint
        futs = []
        for p, w in enumerate(workers):
            commit = True if commit_partitions is None else (p in commit_partitions)
            futs.append(w.finalize_epoch.remote(
                e, wm, owner_groups[p],
                checkpoint=(e % self.ckpt_interval == self.ckpt_interval - 1),
                collect=collect, commit=commit))
        self._absorb(ray.get(futs), collect, per_epoch_emitted, metrics)

    @staticmethod
    def _blocks(table: pa.Table, target_rows: int = 8192) -> list[pa.Table]:
        if table.num_rows <= target_rows:
            return [table]
        return [table.slice(i, target_rows)
                for i in range(0, table.num_rows, target_rows)]
