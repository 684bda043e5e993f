"""StreamEngine — the epoch-batched parallel executor.

Graft of the reference's frontier-batched parallel worklist executor
(``impls/src/parallel.rs:14-91``): there, each round takes the whole
dirty frontier, fans it to a rayon pool against a state snapshot, then
merges results and builds the next frontier.  Here one **epoch** is one
round:

  map side — decided once per Arrow block, the reference's
    ``MixedExecutor`` rule (``impls/src/mixed.rs:32-38``: small work
    inline, large work fanned out).  A tumbling or sliding window's
    block always goes to one stateless shuffle-map task that FOLDS it
    into per-(key, slice) partial states
    (:func:`operators.combine_window_block`; ``num_returns=P`` object
    refs, data moves through the object store, never the driver), and
    only those ship: the fold is real work and shrinks what moves.  A
    join's or session's block is only routed, not reduced, so a small
    one (``bytes <= INLINE_READ_BYTES``) skips the task: each
    partition actor reads the block itself and keeps its own rows
    (:func:`partitioning.route_rows`; co-partitioning makes a
    partition's slice a pure function of the key).  A large one, or one
    of unknown size, goes to the map task, which ships hash shards
    (:func:`partitioning.split_by_partition`, the same routing).

  partition side — P long-lived partition actors merge their partials
    (or apply their row shards: join, session), close what the
    (precomputed, input-deterministic) watermark passed and snapshot
    their state in one call (``PartitionWorker.process_epoch``).  The
    epoch's exactly-once sink commit and checkpoint then run on the
    actor's one writer thread, in that order, while the actor loads and
    applies the next epoch (write-behind, after Carbone et al.'s
    asynchronous snapshots): each call waits for the previous epoch's
    writes before it queues its own, so at most one epoch's are in
    flight and a failed commit stops the partition before any later
    checkpoint; ``run`` flushes every writer before it returns.

Unlike the reference, whose merge phase is single-threaded and is
explicitly called out as the bottleneck (``blog/blog.md:47``), both
sides here are partition-parallel, and per-actor message order keeps
each partition's epochs in order, so epochs pipeline with no driver
barrier; the driver only moves epoch metadata (refs and watermarks).

Skew (the blog's finding, ``blog/blog.md:84``): a window needs no
option — every block is a salt, so a hot key costs its owner at most
one partial per (block, slice), merged by the spec's semilattice
``merge`` (``blog/blog.md:91-103``).  The symmetric join takes
``salted_keys = {key: n_salts}`` and the salt-one-side /
broadcast-the-other decomposition (``join_broadcast_side``): each
hot-key pair meets on exactly one partition, so matches stay final and
no merge phase exists.

Scale notes: partition actors are long-lived (state amortized across
epochs) and reserve ``PARTITION_CPUS`` each; map tasks reserve
``MAP_TASK_CPUS`` on Ray's central queue, so they load-balance over
whatever cores the actors leave free; shards are shipped as object refs
so Ray can spill under pressure; the shuffle prunes to the columns the
operator declares (``spec.value_columns``) before anything moves, and a
block an actor reads itself is pruned the same way.  On a real cluster
the same topology runs unchanged via ``ray job submit``.
"""

from __future__ import annotations

from functools import partial
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc
import ray

from .checkpoint import CheckpointStore
from .oracle import canonical_order
from .partitioning import load_epoch, route_rows, split_by_partition
from .sink import ExactlyOnceSink
from .spec import StreamOpSpec
from .watermark import MIN_TS
from .operators import combine_window_block, concat_nonempty, make_operator

END_WM = 2**62


def _load_block(source, columns: list | None, use_threads: bool = True):
    """One input block — an in-memory table, a block ref, or a parquet
    fragment descriptor, read HERE, so ingest I/O scales with the
    cluster — pruned to ``columns`` (plus ``__stream`` when present)."""
    cols = list(columns) + ["__stream"] if columns else None
    table = load_epoch(source, columns=cols, use_threads=use_threads)
    if columns:
        keep = [c for c in columns if c in table.column_names]
        if "__stream" in table.column_names:
            keep.append("__stream")
        table = table.select(keep)
    return table


#: logical CPUs per partition actor: light, since map tasks do the
#: row-proportional work.  The writer thread needs no more: its sink
#: commits and checkpoints are mostly Arrow encoding and file I/O, which
#: run without the GIL
PARTITION_CPUS = 0.25
#: logical CPUs per shuffle-map task: fractional so the task count mildly
#: oversubscribes the free cores, hiding one task's read behind
#: another's compute
MAP_TASK_CPUS = 0.75
#: a join's or session's block is read by every partition actor itself,
#: with no map task, when its decoded size is at most this.  The actor's
#: read sits on its epoch's critical path, while a map task reads ahead
#: on a free core.  Measured, not modelled, on a 4-core host (a payload
#: join and an audio session over 10 parquet epochs, five interleaved
#: pairs per point): at 1 MiB blocks the actor read tied the task in
#: wall time (P = 1 and 2) and used 34-45 % less CPU; from 2 MiB at
#: P = 1, 6.3 MiB at P = 2 and 8.4 MiB at P = 8 it took 7-67 % longer.
#: The crossover moves with P and free cores (at P = 4 the actor read
#: still won at 4 MiB), so this is the smallest one seen.
INLINE_READ_BYTES = 3 * 2**19  # 1.5 MiB


@ray.remote
def _split_block(source, columns: list | None, split):
    """The shuffle-map body of every operator: one block -> the P
    payloads ``split`` makes of it — a window's per-(key, slice) partial
    states (:func:`operators.combine_window_block`; the raw value
    payload, e.g. PCM bytes, never enters the object store) or a join's
    or session's hash shards (:func:`partitioning.split_by_partition`).
    A stateless task: each block's split is a pure function of its
    keys, so no map-side state needs a long-lived owner."""
    payloads = split(_load_block(source, columns))
    return payloads[0] if len(payloads) == 1 else tuple(payloads)


def _own_rows(source, partition: int, columns: list | None, route):
    """A partition actor's read of a small row-operator block: load it
    (pruned to ``columns``), route it (``route``, a bound
    :func:`partitioning.route_rows`) and copy out only this partition's
    rows — the rows, in the order, the map task's shard would hold.
    The block is read on the actor's own thread: all P actors read it
    side by side, beside their writer threads, so Arrow's pool would
    only add contention (a map task, which reads larger blocks ahead
    of the actors, keeps Arrow's threads)."""
    table = _load_block(source, columns, use_threads=False)
    row_idx, pids = route(table)
    return table.take(pa.array(row_idx[pids == partition]))


@ray.remote(num_cpus=PARTITION_CPUS)
class PartitionWorker:
    """One hash partition's stateful executor: operator + sink + ckpt,
    and one writer thread that persists each epoch behind the next."""

    def __init__(self, partition: int, op_kind: str, op_kwargs: dict,
                 sink_root: str | None, ckpt_root: str | None,
                 sink_durable: bool = True,
                 late_root: str | None = None,
                 fail_at: dict | None = None,
                 read_block=None):
        import time
        self._time = time
        #: a small block's actor-side read (a bound :func:`_own_rows`;
        #: None for windows, whose blocks always go to the map task)
        self._read_block = read_block
        #: test-only one-shot fault: hard-exit this actor at (partition,
        #: epoch) unless the marker file already records the kill; at the
        #: epoch's start, or with ``"step": "write"`` on the writer
        #: thread between the epoch's sink commit and its checkpoint
        self._fail_at = fail_at
        self.partition = partition
        self.op_kind = op_kind
        self._op_kwargs = op_kwargs
        self._sink_durable = sink_durable
        #: the writer (one thread, made on first use) and the future of
        #: the last epoch handed to it
        self._writer = None
        self._pending = None
        #: a writer job's error: once set, every later epoch and flush
        #: raises it, so nothing is committed or checkpointed past an
        #: epoch whose output was lost, until reset or restore
        self._failed = None
        self.reset(sink_root, ckpt_root, late_root)

    def restore(self, epoch: int) -> int:
        self._discard_writes()
        d = self.ckpt.load(epoch)
        self.op.restore(d["op"])
        self.max_offset = d["max_offset"]
        return epoch

    def reload_sink(self) -> None:
        """Re-read sink manifests from disk — required after a rescaled
        resume revokes epochs (the actor cached the manifest at
        construction, before the revoke rewrote it)."""
        self.flush()
        if self.sink is not None:
            self.sink.manifest = self.sink._load_manifest()
        if self.late_sink is not None:
            self.late_sink.manifest = self.late_sink._load_manifest()

    def reset(self, sink_root: str | None, ckpt_root: str | None,
              late_root: str | None = None) -> None:
        """Fresh stream: build operator state and point the sink,
        dead-letter sink and checkpoint store at their roots (also run
        on a warm process between streams)."""
        self._discard_writes()
        self.op = make_operator(self.op_kind, **self._op_kwargs)
        self.sink = (ExactlyOnceSink(sink_root, self.partition,
                                     durable=self._sink_durable)
                     if sink_root else None)
        #: dead-letter side output: rows the watermark already closed out
        #: are committed per epoch to a SECOND exactly-once sink — same
        #: epoch-idempotent protocol, so crash/replay never duplicates or
        #: loses a late row
        self.late_sink = (ExactlyOnceSink(late_root, self.partition,
                                          durable=self._sink_durable)
                          if late_root else None)
        self.op.capture_late = self.late_sink is not None
        self.ckpt = (CheckpointStore(ckpt_root, self.partition)
                     if ckpt_root else None)
        self.max_offset = -1

    def _fault(self, epoch: int, step: str) -> None:
        """Fire the test-only fault if it is set for this (epoch, step)."""
        fa = self._fail_at
        if (fa is None or fa.get("step", "start") != step
                or (self.partition, epoch) != (fa["partition"], fa["epoch"])):
            return
        import os as _os
        if _os.path.exists(fa["marker"]):
            return
        if step == "start":
            self.flush()    # every epoch before this one is durable
        with open(fa["marker"], "w") as f:
            f.write("killed")
        _os._exit(1)        # simulate an abrupt actor loss

    def process_epoch(self, epoch: int, wm_prev: int, wm: int, shards: list,
                      *, checkpoint: bool, collect: bool,
                      commit: bool = True) -> dict:
        """One epoch on this partition: merge partials or apply row
        shards, close what ``wm`` passed, order the emitted table with
        one Arrow sort, wait for the PREVIOUS epoch's writes, then hand
        this epoch's sink commits and checkpoint to the writer thread and
        return — epoch e's writes overlap epoch e+1's load and apply.  A
        failed write raises here and in every later call, so no epoch
        after it is committed or checkpointed.  Actor message order keeps
        each partition's epochs in order, so the driver pipelines epochs
        without a barrier.

        The metrics row carries the actor's own time (``elapsed_s``:
        ingest, close, order and the snapshot), the live state
        (``state_rows``, ``state_bytes``) after the epoch, the wait for
        map-task payloads (``wait_s``), the actor's own read and routing
        of small blocks (``load_s``, 0 when every block went to a map
        task) and the wait for the previous epoch's writes
        (``persist_wait_s``).  Its ``commit_s`` and ``ckpt_s`` are timed
        on the writer and arrive later: ``persisted`` is the previous
        job's ``(epoch, commit_s, ckpt_s)`` (None if there was none),
        and :meth:`flush` returns the last one."""
        if self._failed is not None:
            raise self._failed
        self._fault(epoch, "start")
        t0 = self._time.perf_counter()
        # map-task payloads arrive as ObjectRefs inside a list
        # (deliberately NOT top-level args, so Ray does not copy them into
        # the actor queue); ray.get is zero-copy for Arrow tables in the
        # local object store.  Any other entry is a small block's source,
        # which this actor reads and routes itself, in block order.
        is_ref = [isinstance(s, ray.ObjectRef) for s in shards]
        got = iter(ray.get([s for s, r in zip(shards, is_ref) if r]))
        t_load = self._time.perf_counter()
        wait_s = t_load - t0
        shards = [next(got) if r else self._read_block(s, self.partition)
                  for s, r in zip(shards, is_ref)]
        load_s = (0.0 if all(is_ref)
                  else self._time.perf_counter() - t_load)
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
                self.op.apply(shard, wm_prev)
        table = self.op.on_watermark(wm)
        table = canonical_order(table) if table.num_rows else None
        # the state moves on in the next epoch, so what the writer
        # persists (late rows, snapshot) is taken here, on this thread
        late = (self.op.take_late()
                if commit and self.late_sink is not None else None)
        snap = (self.op.snapshot()
                if commit and checkpoint and self.ckpt is not None else None)
        elapsed = self._time.perf_counter() - t0
        # the previous epoch's writes must have succeeded before this
        # epoch's are queued: a failed commit leaves no later checkpoint
        t_wait = self._time.perf_counter()
        persisted = self.flush()
        persist_wait_s = self._time.perf_counter() - t_wait
        if commit and (self.sink is not None or self.late_sink is not None
                       or snap is not None):
            if self._writer is None:
                from concurrent.futures import ThreadPoolExecutor
                self._writer = ThreadPoolExecutor(max_workers=1)
            self._pending = self._writer.submit(
                self._persist, epoch, table, late, snap, wm,
                self.max_offset, elapsed)
        state_rows, state_bytes = self.op.state_stats()
        out = {"partition": self.partition, "epoch": epoch,
               "emitted": table.num_rows if table is not None else 0,
               "late_rows": self.op.late_rows,
               "rows_seen": self.op.rows_seen, "elapsed_s": elapsed,
               "commit_s": 0.0, "ckpt_s": 0.0,
               "wait_s": wait_s, "load_s": load_s,
               "persist_wait_s": persist_wait_s,
               "state_rows": state_rows, "state_bytes": state_bytes,
               "persisted": persisted}
        if collect:
            out["emitted_rows"] = table
        return out

    def _persist(self, epoch, table, late, snap, wm, max_offset,
                 elapsed) -> tuple[int, float, float]:
        """The writer's job for one epoch, in the write-ahead order: sink
        commit, dead-letter commit, then checkpoint.  Returns ``(epoch,
        commit_s, ckpt_s)``.  The sinks and the store are only swapped
        (:meth:`reset`) after a :meth:`flush`."""
        t0 = self._time.perf_counter()
        if self.sink is not None:
            self.sink.commit(epoch, table, watermark=wm,
                             max_offset=max_offset, elapsed_s=elapsed)
        if self.late_sink is not None:
            self.late_sink.commit(epoch, late, watermark=wm,
                                  max_offset=max_offset, elapsed_s=elapsed)
        commit_s = self._time.perf_counter() - t0
        self._fault(epoch, "write")
        if snap is None:
            return epoch, commit_s, 0.0
        t0 = self._time.perf_counter()
        self.ckpt.save(epoch, snap, wm, max_offset)
        return epoch, commit_s, self._time.perf_counter() - t0

    def flush(self) -> tuple[int, float, float] | None:
        """Wait for the writer's last job: its ``(epoch, commit_s,
        ckpt_s)``, or None if every epoch was already handed back.
        Raises the error of a failed job, now and on every later call."""
        if self._failed is not None:
            raise self._failed
        fut, self._pending = self._pending, None
        try:
            return fut.result() if fut is not None else None
        except Exception as exc:
            self._failed = exc
            raise

    def _discard_writes(self) -> None:
        """Let the writer finish and forget its result or error: the
        state about to be built or restored does not follow from it."""
        try:
            self.flush()
        except Exception:
            pass
        self._failed = None


class StreamEngine:
    """Drives one operator over an epoch-framed stream.

    Parameters mirror a ``ray job submit`` job config: operator kind +
    kwargs, partition count P, lateness, sink / checkpoint roots,
    checkpoint interval, and a join's salted hot keys.
    """

    def __init__(self, op_kind: str, op_kwargs: dict, *, num_partitions: int = 8,
                 allowed_lateness_us: int = 0, sink_root: str | None = None,
                 ckpt_root: str | None = None, ckpt_interval: int = 4,
                 key_column: str | None = None,
                 salted_keys: dict[Any, int] | None = None,
                 shuffle_columns: list[str] | None = None,
                 sink_durable: bool = True,
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
        #: epochs pipeline through the actors with this many
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
        #: self-healing: an actor lost mid-run (OOM kill, node loss) is
        #: recovered INSIDE run() by falling back to the proven
        #: checkpoint-resume path — up to this many times per run()
        self.max_recoveries = max_recoveries
        #: test-only deterministic fault: {"partition": p, "epoch": e,
        #: "marker": path} — that partition's actor hard-exits once at
        #: that epoch's start (the marker file makes the injection
        #: one-shot); with "step": "write", on its writer thread between
        #: the epoch's sink commit and its checkpoint
        self.failure_injection = failure_injection
        self.salted_keys = dict(salted_keys) if salted_keys else None
        if self.salted_keys and self.op_kind != "join":
            raise ValueError(
                "salted_keys applies to the symmetric join (salt one side, "
                "broadcast the other); windows always combine map-side, "
                "one partial per (block, slice), so a hot window key "
                "needs no salting")
        #: symmetric-join skew shape: rows of a salted key on THIS
        #: ``__stream`` side replicate to every salt route; the other
        #: side's rows spread across the routes, so each pair meets on
        #: exactly one partition (no owner merge, matches stay final).
        #: Pick the lighter stream as the broadcast side.  Static per
        #: run: joins must keep the same salted_keys across resume
        #: (state co-location is routing-determined).
        self.join_broadcast_side = (int(join_broadcast_side)
                                    if self.salted_keys else None)
        if self.salted_keys and late_root:
            raise ValueError(
                "late_root with salted_keys: a late row of the broadcast "
                "side is replicated to every salt route, so the late sink "
                "would hold it once per route")
        #: map-side combine: every tumbling/sliding window folds
        #: per-(key, slice) partials in the split task and ships ONLY
        #: partials (a buffered spec's partial is its run buffer)
        self.combine = op_kind == "window"
        #: target rows per window fold task (fold granularity)
        self.combine_split_rows = 1000
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
        if reuse:
            # persistent pool (long-lived actors — the production shape):
            # same processes, state freshly reset via reset_state()
            workers = self._workers
        else:
            cpus = ray.cluster_resources().get("CPU", 0)
            if self.P == 0:
                # adaptive dispatch (the MixedExecutor analog, reference
                # impls/src/mixed.rs:32-38): tiny streams run on one
                # partition (no shuffle/actor overhead), large ones fan
                # out.  Unlike the reference's per-CFG block-count
                # threshold (which the blog found could LOSE,
                # blog/blog.md:70) this keys on total rows vs a
                # per-partition floor, so parallelism never exceeds
                # useful work.
                total = sum(t["rows"] if isinstance(t, dict) else t.num_rows
                            for t in epochs)
                self.P = (max(1, min(int(cpus), total // 2000))
                          if total >= 4000 else 1)
            # P actors plus one map task must fit, or every map task
            # waits forever behind the actors' reservations
            if self.P * PARTITION_CPUS + MAP_TASK_CPUS > cpus:
                raise ValueError(
                    f"num_partitions={self.P} cannot be scheduled on "
                    f"{cpus:g} CPUs: {self.P} partition actors at "
                    f"{PARTITION_CPUS} CPU plus one {MAP_TASK_CPUS}-CPU map "
                    "task need more")
            read_block = (None if self.combine else partial(
                _own_rows, columns=self.shuffle_columns,
                route=partial(route_rows, **self._route_kw())))
            workers = [
                PartitionWorker.remote(
                    p, self.op_kind, self.op_kwargs, self.sink_root,
                    self.ckpt_root, self.sink_durable, self.late_root,
                    self.failure_injection, read_block)
                for p in range(self.P)
            ]
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
        #: one metrics row per (partition, epoch), in absorb order
        ledger: dict[tuple[int, int], dict] = {}
        inflight: list[tuple[int, list]] = []  # pipelined (epoch, futures)

        def drain(upto: int) -> None:
            while len(inflight) > upto:
                _, fs = inflight.pop(0)
                self._absorb(ray.get(fs), collect, per_epoch_emitted, ledger)

        flushed = False
        try:
            schedule = list(range(start_epoch, len(epochs)))
            if stop_after_epoch is not None:
                schedule = [e for e in schedule if e <= stop_after_epoch]
            split_cache: dict[int, list] = {}  # epoch -> per-part payloads
            for i, e in enumerate(schedule):
                is_last = (stop_after_epoch is not None and e == stop_after_epoch)
                cp = commit_partitions if is_last else None
                wm_prev = wm_sched[e - 1] if e > 0 else MIN_TS
                # dispatch epochs ahead of the actor pipeline so actors
                # never stall waiting for a map task (a window's
                # splits ARE the compute, so keep one epoch in flight per
                # partition plus four)
                prefetch = self.split_prefetch
                if self.combine:
                    prefetch = max(prefetch,
                                   min(self.split_prefetch, self.P) + 4)
                for ee in schedule[i:i + prefetch]:
                    if ee not in split_cache:
                        wp = wm_sched[ee - 1] if ee > 0 else MIN_TS
                        split_cache[ee] = self._dispatch_epoch(
                            epochs[ee], wm_prev=wp, ts_column=ts_column)
                # per-actor message order serializes epochs per
                # partition; keep a bounded in-flight window for
                # backpressure
                inflight.append((e, self._launch_epoch(
                    e, split_cache.pop(e), wm_prev, wm_sched[e], workers,
                    collect, cp)))
                drain(self.pipeline_depth)
            if final_flush and stop_after_epoch is None:
                # end-of-stream: watermark -> +inf closes every open window
                # (the fixpoint-termination analog: the frontier empties)
                wm_last = wm_sched[-1] if wm_sched else MIN_TS
                inflight.append((len(epochs), self._launch_epoch(
                    len(epochs), self._dispatch_epoch(None), wm_last, END_WM,
                    workers, collect, None)))
            # each writer's last epoch: run() returns only once every
            # epoch is committed and checkpointed (a flush queues behind
            # its actor's epochs)
            flushes = [w.flush.remote() for w in workers]
            drain(0)
            for p, done in enumerate(ray.get(flushes)):
                self._settle(ledger, p, done)
            flushed = True
        finally:
            if self.keep_workers:
                if not flushed:
                    # a failed run still leaves no write in flight for
                    # the pool's next run to hand back: wait for every
                    # actor's queued epochs and drop their results
                    ray.wait([w.flush.remote() for w in workers],
                             num_returns=len(workers))
                self._workers = workers
            else:
                for w in workers:
                    ray.kill(w, no_restart=True)
        return {"emitted": per_epoch_emitted if collect else None,
                "metrics": list(ledger.values()), "start_epoch": start_epoch,
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
            for w in self._workers:
                ray.kill(w, no_restart=True)
            self._workers = None

    def _route_kw(self) -> dict:
        """The row operators' routing (:func:`partitioning.route_rows`)."""
        return {"key_column": self.key_column, "num_partitions": self.P,
                "salted_keys": self.salted_keys,
                "join_broadcast_side": self.join_broadcast_side}

    def _reads_inline(self, block) -> bool:
        """Whether the partition actors read ``block`` themselves: only a
        row operator's (a window's map task folds, which is real work
        and shrinks what moves), and only a block whose columns the
        actors read (``shuffle_columns`` plus ``__stream``; every column
        when unset) decode to at most :data:`INLINE_READ_BYTES`.  A
        fragment or Dataset block of unknown size goes to the task."""
        if self.combine:
            return False
        if isinstance(block, pa.Table):
            per = {c: block[c].nbytes for c in block.column_names}
            nbytes = block.nbytes
        else:
            per, nbytes = block.get("column_bytes"), block.get("bytes")
        cols = self.shuffle_columns
        if cols and per:
            nbytes = sum(per.get(c, 0) for c in {*cols, "__stream"})
        return nbytes is not None and nbytes <= INLINE_READ_BYTES

    def _dispatch_epoch(self, source, wm_prev: int = MIN_TS,
                        ts_column: str = "event_ts") -> list[list]:
        """Each partition's list of payloads for one epoch: per block,
        either the P object refs of one shuffle-map task or, for a small
        row-operator block, the block's source itself (an in-memory
        table is ``ray.put`` once and every actor gets the ref)."""
        per_part: list[list] = [[] for _ in range(self.P)]
        if source is None:
            return per_part
        if isinstance(source, dict):
            # fragment: the map task reads it itself.  For a window
            # the split task IS the fold, so one task per fragment
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
        if self.combine:
            split = partial(combine_window_block, spec=self.op_kwargs["spec"],
                            assigner=self.op_kwargs["assigner"],
                            ts_column=ts_column, wm_prev=wm_prev,
                            num_partitions=self.P,
                            capture_late=self.late_root is not None)
        else:
            split = partial(split_by_partition, **self._route_kw())
        for b in blocks:
            if self._reads_inline(b):
                src = b if isinstance(b, dict) else {"ref": ray.put(b)}
                for part in per_part:
                    part.append(src)
                continue
            # stateless tasks on the CENTRAL queue, so Ray load-balances
            # them across whatever cores the partition actors leave free
            refs = _split_block.options(
                num_cpus=MAP_TASK_CPUS, num_returns=self.P).remote(
                    b, self.shuffle_columns, split)
            for p, r in enumerate([refs] if self.P == 1 else refs):
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

    def _absorb(self, results, collect, per_epoch_emitted, ledger) -> None:
        for r in results:
            persisted = r.pop("persisted")
            ledger[r["partition"], r["epoch"]] = {
                k: v for k, v in r.items() if k != "emitted_rows"}
            self._settle(ledger, r["partition"], persisted)
        if collect:
            table = concat_nonempty([r["emitted_rows"] for r in results
                                    if r.get("emitted_rows") is not None])
            per_epoch_emitted.append(canonical_order(table).to_pylist())

    @staticmethod
    def _settle(ledger, partition: int, persisted) -> None:
        """Put a writer job's ``(epoch, commit_s, ckpt_s)`` on the
        metrics row of that (partition, epoch)."""
        if persisted is not None:
            epoch, commit_s, ckpt_s = persisted
            ledger[partition, epoch].update(commit_s=commit_s,
                                            ckpt_s=ckpt_s)

    @staticmethod
    def _blocks(table: pa.Table, target_rows: int = 8192) -> list[pa.Table]:
        if table.num_rows <= target_rows:
            return [table]
        return [table.slice(i, target_rows)
                for i in range(0, table.num_rows, target_rows)]
