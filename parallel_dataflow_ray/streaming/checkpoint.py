"""Per-partition checkpoints: (operator state, watermark frontier, offsets).

north_star: "Per-partition checkpoints capture operator state, watermark
frontier, and input offsets so a killed job resumes and still emits
exactly the rows the reference produces for the same input stream and
watermark."

Layout::

    <root>/p{partition:05d}/e{epoch:06d}.ckpt    one checkpoint (below)
    <root>/p{partition:05d}/LATEST               epoch number (atomic rename)

A checkpoint file is an 8-byte record length, the pickled record
(``epoch``, ``watermark``, ``max_offset``), then the operator's
snapshot bytes exactly as the operator made them.  Windows and
sessions snapshot their whole state as one pickle.  The symmetric
join's snapshot is a :class:`ChunkedSnapshot`: its pickled head, then
one Arrow IPC stream for each state chunk added since the previous
checkpoint.  Older chunks stay in the files that first held them, and
the record's ``files`` names, for every live chunk, the epoch of that
file.  :meth:`CheckpointStore.load` resolves the chain into one full
snapshot, and :meth:`CheckpointStore.gc` keeps every file that a
retained record names.

Each file and ``LATEST`` is written to a temp name, fsynced, renamed,
and the directory fsynced after the rename, so ``LATEST`` never names a
record whose files are not durable.

A checkpoint for epoch ``e`` is taken only AFTER the sink committed
epoch ``e`` (write-ahead output, state-behind).  Both run on the
partition actor's single writer thread, sink commit first, while the
actor already applies epoch ``e + 1`` (the snapshot itself is taken on
the actor before it moves on), so a crash can leave epoch ``e``
committed and not checkpointed, never the reverse.  A commit that
raises stops the partition: no later epoch is committed or
checkpointed.  On resume the engine restores every partition at
``resume_epoch = min_p(latest(p))`` and replays epochs
``> resume_epoch``; replayed emissions for epochs some
partitions already committed are absorbed by the sink's idempotent
commit.  Replay produces identical emissions because operator update /
merge are deterministic functions of (restored state, epoch rows,
watermark schedule) — the same argument that makes the reference's
result independent of worklist order (``blog/blog.md:91-103``).  The
same argument covers a replay that rewrites a chunk's file: the chunk
ids and rows it writes are the ones the file already held.
"""

from __future__ import annotations

import os
import pickle

import pyarrow as pa

from .sink import fsync_dir


def _write_stream(sink, table) -> None:
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)


class ChunkedSnapshot(bytearray):
    """An operator snapshot whose bulk state is Arrow chunks: the pickled
    ``head`` dict, then one Arrow IPC stream per entry of
    ``head["new"]`` = ``[(side, chunk_id, nbytes)]``, in that order.
    ``head["chunks"]`` lists every live chunk per side as ``(chunk_id,
    ...)``; a live chunk missing from ``new`` is held by an earlier
    checkpoint.  The head stays on the object, so a store names the
    files without parsing the bytes; ``pickle.loads`` of the bytes also
    returns the head (pickle ignores the streams after it)."""

    def __init__(self, head: dict, chunks: list):
        """``chunks`` = ``[(side, chunk_id, part)]``: a table is written
        as an Arrow IPC stream, anything else is an encoded stream and
        copied.  Sizes are taken first, so every stream is written once,
        straight into this buffer."""
        sizes = []
        for _, _, part in chunks:
            if isinstance(part, pa.Table):
                mock = pa.MockOutputStream()
                _write_stream(mock, part)
                sizes.append(mock.size())
            else:
                sizes.append(len(part))
        self.head = dict(head, new=[(side, cid, n) for (side, cid, _), n
                                    in zip(chunks, sizes)])
        rec = pickle.dumps(self.head, protocol=pickle.HIGHEST_PROTOCOL)
        super().__init__(len(rec) + sum(sizes))
        out = pa.FixedSizeBufferWriter(pa.py_buffer(self))
        out.write(rec)
        for _, _, part in chunks:
            if isinstance(part, pa.Table):
                _write_stream(out, part)
            else:
                out.write(part)
        out.close()

    @staticmethod
    def streams(blob) -> tuple[dict, dict]:
        """(head, {chunk_id: (side, stream bytes)}) of a chunked
        snapshot's bytes; the streams are zero-copy views."""
        head = pickle.loads(blob)
        view = memoryview(blob)
        pos = len(view) - sum(n for _, _, n in head["new"])
        out = {}
        for side, cid, n in head["new"]:
            out[cid] = (side, view[pos:pos + n])
            pos += n
        return head, out


def _atomic_write(path: str, parts: list) -> None:
    """Write ``parts`` to ``path`` via temp file, fsync and rename, then
    fsync the directory so the rename itself is durable."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        for part in parts:
            f.write(part)
        f.flush()
        os.fsync(f.fileno())
    os.rename(tmp, path)
    fsync_dir(os.path.dirname(path))


def _read_record(path: str, whole: bool = False):
    """The record of one checkpoint file; with ``whole``, (record,
    operator snapshot bytes)."""
    with open(path, "rb") as f:
        n = int.from_bytes(f.read(8), "little")
        record = pickle.loads(f.read(n))
        return (record, f.read()) if whole else record


class CheckpointStore:
    def __init__(self, root: str, partition: int):
        self.dir = os.path.join(root, f"p{partition:05d}")
        os.makedirs(self.dir, exist_ok=True)
        #: chunk id -> epoch of the file holding it, for the live chunks
        #: of the last chunked snapshot saved or loaded here
        self._files: dict[int, int] = {}

    def _path(self, epoch: int) -> str:
        return os.path.join(self.dir, f"e{epoch:06d}.ckpt")

    def save(self, epoch: int, op_snapshot: bytes, watermark: int,
             max_offset: int) -> None:
        record = {"epoch": epoch, "watermark": watermark,
                  "max_offset": max_offset}
        head = getattr(op_snapshot, "head", None)
        if head is not None:
            new = {cid for _, cid, _ in head["new"]}
            files = {}
            for chunks in head["chunks"]:
                for cid, *_ in chunks:
                    if cid not in new and cid not in self._files:
                        raise ValueError(
                            f"chunk {cid} is in no checkpoint of {self.dir}: "
                            "a snapshot was taken and not saved here")
                    files[cid] = epoch if cid in new else self._files[cid]
            record["files"] = files
        rec = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        _atomic_write(self._path(epoch),
                      [len(rec).to_bytes(8, "little"), rec, op_snapshot])
        _atomic_write(os.path.join(self.dir, "LATEST"), [str(epoch).encode()])
        self._files = record.get("files", {})

    @staticmethod
    def _read_latest(part_dir: str) -> int | None:
        """Read-only LATEST parse shared by instance and static probes."""
        p = os.path.join(part_dir, "LATEST")
        if not os.path.exists(p):
            return None
        with open(p, "rb") as f:
            return int(f.read())

    def latest_epoch(self) -> int | None:
        return self._read_latest(self.dir)

    def load(self, epoch: int) -> dict:
        """The checkpoint of ``epoch`` as ``{"epoch", "watermark",
        "max_offset", "op"}``, ``op`` a FULL operator snapshot: a chunked
        snapshot's chain is resolved into one that holds every live
        chunk's stream."""
        record, blob = _read_record(self._path(epoch), whole=True)
        files = record.pop("files", None)
        if files is not None:
            head, _ = ChunkedSnapshot.streams(blob)
            streams = {}
            for e in sorted(set(files.values())):
                _, held = ChunkedSnapshot.streams(
                    blob if e == epoch else _read_record(self._path(e),
                                                         whole=True)[1])
                streams.update((cid, held[cid]) for cid, fe in files.items()
                               if fe == e)
            blob = ChunkedSnapshot(
                head, [(side, cid, streams[cid][1])
                       for side, chunks in enumerate(head["chunks"])
                       for cid, *_ in chunks])
            self._files = files
        return {**record, "op": blob}

    @staticmethod
    def resume_epoch(root: str, num_partitions: int) -> int | None:
        """Highest epoch checkpointed by ALL partitions, else None.

        READ-ONLY: inspects ``LATEST`` files directly rather than
        instantiating :class:`CheckpointStore` (whose ``__init__``
        mkdirs).  Calling a maintenance entry point (gc, resume probes)
        with an overestimated ``num_partitions`` must not fabricate
        empty ``pNNNNN`` dirs — ``list_checkpoint_partitions`` infers
        the old partition count from ``max(pid) + 1``, and phantom dirs
        would silently push the next engine start onto the rescale path
        with no loadable epoch (replaying from epoch 0)."""
        latest = []
        for p in range(num_partitions):
            e = CheckpointStore._read_latest(os.path.join(root, f"p{p:05d}"))
            if e is None:
                return None
            latest.append(e)
        return min(latest)

    @staticmethod
    def gc(root: str, num_partitions: int, *, keep: int = 2) -> dict:
        """Retention: delete checkpoint files no resume can ever load.

        Both same-P and rescale resume load exactly
        ``resume_epoch = min_p(latest(p))`` (``StreamEngine._run_once``), so any
        epoch BELOW the global minimum is dead state — a long stream
        with ``ckpt_interval=k`` otherwise accumulates epochs/k
        snapshots per partition forever.  Retains every epoch >= the
        global resume point plus the newest ``keep`` below it (margin
        for operators that inspect history), and keeps any older file
        that a retained record names as holding a live chunk.  Never
        touches LATEST, and is idempotent.  Returns {"removed", "kept",
        "resume_epoch"}."""
        re = CheckpointStore.resume_epoch(root, num_partitions)
        stats = {"removed": 0, "kept": 0, "resume_epoch": re}
        if re is None:
            return stats
        for p in range(num_partitions):
            d = os.path.join(root, f"p{p:05d}")
            if not os.path.isdir(d):
                continue
            eps = sorted(int(fn[1:-5]) for fn in os.listdir(d)
                         if fn.startswith("e") and fn.endswith(".ckpt"))
            below = [e for e in eps if e < re]
            dead = set(below[:max(0, len(below) - keep)])
            named = set()
            for e in eps:
                if e not in dead:
                    named.update(_read_record(
                        os.path.join(d, f"e{e:06d}.ckpt")).get(
                            "files", {}).values())
            victims = dead - named
            for e in victims:
                os.remove(os.path.join(d, f"e{e:06d}.ckpt"))
            stats["removed"] += len(victims)
            stats["kept"] += len(eps) - len(victims)
        return stats
