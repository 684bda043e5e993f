"""Rescalable checkpoint resume: restart a killed stream at a DIFFERENT
partition count.

north_rule context: a fixed-size production cluster changes size
between runs (N -> 4N nodes); per-partition checkpoints must not pin
the job to its original parallelism.  This module re-keys the
per-partition operator state to a new hash partitioning — Flink-style
rescaling, rebuilt on this engine's own primitives:

- every operator's state is keyed (window: ``(key, slice) -> state``;
  session: ``key -> intervals`` and ``key -> closed end``; join: Arrow
  chunks per side carrying the key column), and the engine routes rows by ``partition_ids(key, P)`` —
  so resharding = route every state entry by the NEW P and merge
  whatever lands together.
- merges reuse the operators' OWN combine laws (``merge_states``:
  ``spec.merge`` or the union of run buffers; ``_insert_interval``) —
  the same semilattice argument that makes map-side partial merges and
  replay exact (reference analog: worklist-order independence,
  blog/blog.md:91-103).
- exactly-once across the rescale: output for epochs AFTER the
  restored checkpoint is REVOKED from every old sink manifest (atomic
  rewrite, fragments deleted) before replay re-emits those epochs
  under the new layout.  Epochs <= the restored checkpoint are
  complete on every old partition (a checkpoint is taken only after
  the sink committed), so the revoke+replay boundary is exact.

Telemetry counters (rows_seen / late_rows) are global sums, not keyed
state; the reshard assigns the old totals to new partition 0 so stream
totals are preserved.
"""

from __future__ import annotations

import os
import pickle
import re as _re

from .partitioning import partition_ids
from .sink import _manifests, fsync_dir


def list_checkpoint_partitions(root: str) -> int:
    """Infer the partition count of an existing checkpoint root."""
    if not os.path.isdir(root):
        return 0
    pids = [int(m.group(1)) for d in os.listdir(root)
            if (m := _re.fullmatch(r"p(\d{5})", d))]
    return (max(pids) + 1) if pids else 0


def _route(keys: list, new_p: int) -> list[int]:
    return partition_ids(list(keys), new_p).tolist() if keys else []


def _reshard_window(snaps: list[dict], new_p: int, op) -> list[dict]:
    from .operators import merge_states

    spec = op.spec
    states: list[dict] = [{} for _ in range(new_p)]
    for d in snaps:
        kss = list(d["states"])
        for ks, pid in zip(kss, _route([k for k, _ in kss], new_p)):
            st = d["states"][ks]
            tgt = states[pid]
            # a key lived on one old partition, so entries are
            # disjoint; should two ever meet, combine them with the
            # operator's own merge law rather than drop one
            tgt[ks] = merge_states(spec, tgt[ks], st) if ks in tgt else st
    # every partition checkpointed the same epoch, so the same closed
    # watermark: windows closed before the checkpoint stay closed
    wm = max(d["wm"] for d in snaps)
    return [{"states": states[pid], "wm": wm,
             "late_rows": sum(d["late_rows"] for d in snaps)
             if pid == 0 else 0,
             "rows_seen": sum(d["rows_seen"] for d in snaps)
             if pid == 0 else 0} for pid in range(new_p)]


def _reshard_session(snaps: list[dict], new_p: int, op_factory) -> list[dict]:
    ops = [op_factory() for _ in range(new_p)]
    for d in snaps:
        keys = list(d["sessions"])
        for key, pid in zip(keys, _route(keys, new_p)):
            for start, end, state in d["sessions"][key]:
                # replay through the operator's own interval-union merge
                ops[pid]._insert_interval(key, start, end, state)
        # a key's closed-session end (the late rule) moves with its key
        closed = d.get("closed_ends", {})
        keys = list(closed)
        for key, pid in zip(keys, _route(keys, new_p)):
            end, ends = closed[key], ops[pid].closed_ends
            ends[key] = max(ends.get(key, end), end)
    out = []
    for pid in range(new_p):
        out.append({"sessions": ops[pid].sessions,
                    "closed_ends": ops[pid].closed_ends,
                    "late_rows": sum(d["late_rows"] for d in snaps)
                    if pid == 0 else 0,
                    "rows_seen": sum(d["rows_seen"] for d in snaps)
                    if pid == 0 else 0})
    return out


def _reshard_join(blobs: list[bytes], new_p: int, make) -> list[bytes]:
    """Restore each old partition's join, route every stored row (and
    every pending pair) by key over ``new_p``, and give each new
    partition its rows as one chunk per side.  Returns the new
    partitions' snapshots; each holds all its chunks, so the first
    checkpoint of the new layout starts a fresh chain."""
    import pyarrow as pa

    from .operators import _Chunk, concat_nonempty

    olds = []
    for b in blobs:
        op = make()
        op.restore(b)
        olds.append(op)
    news = [make() for _ in range(new_p)]
    key = news[0].key_column

    def route(tables: list) -> list:
        """Concatenate tables and split their rows by key over new_p."""
        t = concat_nonempty([x for x in tables if x is not None])
        if t.num_rows == 0:
            return [None] * new_p
        pid = partition_ids(t[key].to_pylist(), new_p)
        return [t.filter(pa.array(pid == p)) for p in range(new_p)]

    # each replayed offset routes to the one new partition that now
    # stores its row, so dedup against that partition's own store holds
    for side in (0, 1):
        for op, t in zip(news, route([o.stores[side] for o in olds])):
            if t is not None and t.num_rows:
                op._store(side, _Chunk(t, key))
    for op, t in zip(news, route([t for o in olds for t in o.pending])):
        op.pending = [t] if t is not None and t.num_rows else []
    news[0].late_rows = sum(o.late_rows for o in olds)
    news[0].rows_seen = sum(o.rows_seen for o in olds)
    return [op.snapshot() for op in news]


def reshard_snapshots(op_kind: str, op_kwargs: dict,
                      blobs: list[bytes], new_p: int) -> list[bytes]:
    """Re-key ``len(blobs)`` per-partition operator snapshots to
    ``new_p`` partitions.  Returns one restore-able blob per new
    partition."""
    from .operators import make_operator

    def make():
        return make_operator(op_kind, **op_kwargs)

    if op_kind == "join":
        return _reshard_join(blobs, new_p, make)
    snaps = [pickle.loads(b) for b in blobs]
    if op_kind == "window":
        parts = _reshard_window(snaps, new_p, make())
    elif op_kind == "session":
        parts = _reshard_session(snaps, new_p, make)
    else:
        raise ValueError(f"cannot reshard operator kind {op_kind!r}")
    return [pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL)
            for p in parts]


def revoke_sink_epochs_after(sink_root: str, epoch: int) -> int:
    """Exactly-once across a rescale: drop every sink commit for epochs
    > ``epoch`` from every partition manifest (atomic rewrite) and
    delete the revoked fragments.  Replay re-emits those epochs under
    the new partitioning.  Returns the number of revoked commits."""
    import json

    revoked = 0
    for path, manifest in _manifests(sink_root):
        drop = [e for e in manifest["epochs"] if int(e) > epoch]
        if not drop:
            continue
        folded = [e for e in drop if manifest["epochs"][e].get("compacted")]
        removed_files: list[str] = []
        if folded:
            # compacted epochs' rows live merged inside consolidated
            # files, but in EPOCH ORDER (compact folds epochs sorted
            # and successive compactions append later epochs in seq
            # order — the same invariant read_as_of's prefix reads rely
            # on).  So the revoked epochs' rows are an exact SUFFIX of
            # the compacted chain: keep the prefix of length
            # sum(rows of compacted epochs <= epoch), truncating the
            # boundary file row-exactly.  Ordering mirrors compact():
            # (1) write the truncated replacement under a NEW name via
            # tmp+fsync+rename, (2) atomically rewrite the manifest,
            # (3) only then delete dropped files — a crash in between
            # leaves orphans, never a wrong read (readers are
            # manifest-driven).
            import pyarrow.parquet as _pq

            keep_rows = sum(
                int(rec["rows"]) for e_s, rec in manifest["epochs"].items()
                if int(e_s) <= epoch and rec.get("compacted"))
            data_dir = os.path.join(sink_root, "data")
            new_list: list[str] = []
            acc = 0
            for cf in manifest.get("compacted", []):
                if not cf.endswith(".parquet"):
                    raise ValueError(f"compacted file {cf!r} is not parquet "
                                     "(compact() writes only parquet)")
                fp = os.path.join(data_dir, cf)
                nrows = _pq.read_metadata(fp).num_rows
                if acc + nrows <= keep_rows:
                    new_list.append(cf)
                    acc += nrows
                    continue
                if acc < keep_rows:
                    part = _pq.read_table(fp).slice(0, keep_rows - acc)
                    nf = (cf.rsplit(".", 1)[0]
                          + f"-trunc{epoch:06d}.parquet")
                    tmp = os.path.join(data_dir, nf) + ".tmp"
                    _pq.write_table(part, tmp)
                    with open(tmp, "rb+") as tf:
                        os.fsync(tf.fileno())
                    os.rename(tmp, os.path.join(data_dir, nf))
                    fsync_dir(data_dir)
                    new_list.append(nf)
                    acc = keep_rows
                removed_files.append(cf)
            manifest["compacted"] = new_list
        for e in drop:
            frag = manifest["epochs"][e].get("fragment")
            if frag:
                removed_files.append(frag)
            del manifest["epochs"][e]
            revoked += 1
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f)
            f.flush()
            os.fsync(f.fileno())
        os.rename(tmp, path)
        fsync_dir(os.path.dirname(path))
        # delete only AFTER the manifest rename: a crash mid-revoke
        # leaves orphan files (harmless), never a manifest entry whose
        # file is gone
        for rf in removed_files:
            fp = os.path.join(sink_root, "data", rf)
            if os.path.isdir(fp):
                import shutil
                shutil.rmtree(fp)
            elif os.path.exists(fp):
                os.remove(fp)
    return revoked
