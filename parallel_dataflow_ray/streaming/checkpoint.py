"""Per-partition checkpoints: (operator state, watermark frontier, offsets).

north_star: "Per-partition checkpoints capture operator state, watermark
frontier, and input offsets so a killed job resumes and still emits
exactly the rows the reference produces for the same input stream and
watermark."

Layout::

    <root>/p{partition:05d}/e{epoch:06d}.ckpt    pickled operator snapshot
    <root>/p{partition:05d}/LATEST               epoch number (atomic rename)

A checkpoint for epoch ``e`` is taken only AFTER the sink committed
epoch ``e`` (write-ahead output, state-behind).  On resume the engine
restores every partition at ``resume_epoch = min_p(latest(p))`` and
replays epochs ``> resume_epoch``; replayed emissions for epochs some
partitions already committed are absorbed by the sink's idempotent
commit.  Replay produces identical emissions because operator update /
merge are deterministic functions of (restored state, epoch rows,
watermark schedule) — the same argument that makes the reference's
result independent of worklist order (``blog/blog.md:91-103``).
"""

from __future__ import annotations

import os
import pickle


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.rename(tmp, path)


class CheckpointStore:
    def __init__(self, root: str, partition: int):
        self.dir = os.path.join(root, f"p{partition:05d}")
        os.makedirs(self.dir, exist_ok=True)

    def save(self, epoch: int, op_snapshot: bytes, watermark: int,
             max_offset: int) -> None:
        payload = pickle.dumps(
            {"epoch": epoch, "op": op_snapshot, "watermark": watermark,
             "max_offset": max_offset}, protocol=pickle.HIGHEST_PROTOCOL)
        _atomic_write(os.path.join(self.dir, f"e{epoch:06d}.ckpt"), payload)
        _atomic_write(os.path.join(self.dir, "LATEST"), str(epoch).encode())

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
        with open(os.path.join(self.dir, f"e{epoch:06d}.ckpt"), "rb") as f:
            return pickle.loads(f.read())

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
        snapshots per partition forever.  Keeps every epoch >= the
        global resume point plus the newest ``keep`` below it (margin
        for operators that inspect history), never touches LATEST, and
        is idempotent.  Returns {"removed", "kept", "resume_epoch"}."""
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
            victims = below[:max(0, len(below) - keep)]
            for e in victims:
                os.remove(os.path.join(d, f"e{e:06d}.ckpt"))
            stats["removed"] += len(victims)
            stats["kept"] += len(eps) - len(victims)
        return stats
