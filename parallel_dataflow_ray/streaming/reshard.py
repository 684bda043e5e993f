"""Rescalable checkpoint resume: restart a killed stream at a DIFFERENT
partition count.

north_rule context: a fixed-size production cluster changes size
between runs (N -> 4N nodes); per-partition checkpoints must not pin
the job to its original parallelism.  This module re-keys the
per-partition operator state to a new hash partitioning — Flink-style
rescaling, rebuilt on this engine's own primitives:

- every operator's state is keyed (window: ``(key, slice) -> state``;
  session: ``key -> intervals``; join: per-side frames carrying the key
  column), and the engine routes rows by ``partition_ids(key, P)`` —
  so resharding = route every state entry by the NEW P and merge
  whatever lands together.
- merges reuse the operators' OWN combine laws (``merge_states``:
  ``spec.merge`` or the union of run buffers; ``_insert_interval``) —
  the same semilattice argument that makes salted-key owner merges and
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
from .sink import fsync_dir


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
            # two old partitions held this (key, slice) — salted
            # partials; combine with the operator's own merge law
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
    out = []
    for pid in range(new_p):
        out.append({"sessions": ops[pid].sessions,
                    "late_rows": sum(d["late_rows"] for d in snaps)
                    if pid == 0 else 0,
                    "rows_seen": sum(d["rows_seen"] for d in snaps)
                    if pid == 0 else 0})
    return out


def _reshard_join(snaps: list[dict], new_p: int, op) -> list[dict]:
    import pandas as pd

    key_col = op.key_column
    stores: list[list] = [[None, None] for _ in range(new_p)]
    for side in (0, 1):
        frames = [d["stores"][side] for d in snaps
                  if d["stores"][side] is not None
                  and len(d["stores"][side])]
        if not frames:
            continue
        allf = pd.concat(frames, ignore_index=True)
        pid = partition_ids(allf[key_col].tolist(), new_p)
        for p in range(new_p):
            sub = allf[pid == p]
            if len(sub):
                stores[p][side] = sub.reset_index(drop=True)
    # seen-offset sets: offsets are globally unique row ids; the union
    # is a safe superset on every new partition (a replayed offset
    # routes to exactly one partition and is genuinely pre-checkpoint)
    seen = (set().union(*(d["seen"][0] for d in snaps)),
            set().union(*(d["seen"][1] for d in snaps)))
    pend: list[list] = [[] for _ in range(new_p)]
    leftover = [r for d in snaps for r in d["pending"]]
    if leftover:
        for row, pid in zip(leftover,
                            _route([r[key_col] for r in leftover], new_p)):
            pend[pid].append(row)
    out = []
    for pid in range(new_p):
        out.append({"stores": stores[pid], "seen": seen,
                    "pending": pend[pid],
                    "late_rows": sum(d["late_rows"] for d in snaps)
                    if pid == 0 else 0,
                    "rows_seen": sum(d["rows_seen"] for d in snaps)
                    if pid == 0 else 0})
    return out


def reshard_snapshots(op_kind: str, op_kwargs: dict,
                      blobs: list[bytes], new_p: int) -> list[bytes]:
    """Re-key ``len(blobs)`` per-partition operator snapshots to
    ``new_p`` partitions.  Returns one restore-able blob per new
    partition."""
    from .operators import make_operator

    op = make_operator(op_kind, **op_kwargs)
    snaps = [pickle.loads(b) for b in blobs]
    if op_kind == "window":
        parts = _reshard_window(snaps, new_p, op)
    elif op_kind == "session":
        parts = _reshard_session(
            snaps, new_p, lambda: make_operator(op_kind, **op_kwargs))
    elif op_kind == "join":
        parts = _reshard_join(snaps, new_p, op)
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

    mdir = os.path.join(sink_root, "manifest")
    if not os.path.isdir(mdir):
        return 0
    revoked = 0
    for fn in sorted(os.listdir(mdir)):
        if not fn.endswith(".json"):
            continue
        path = os.path.join(mdir, fn)
        with open(path) as f:
            manifest = json.load(f)
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
        fsync_dir(mdir)
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
