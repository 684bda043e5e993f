"""Stable hash partitioning + epoch framing for the streaming layer.

Partitioning contract: ``partition(key) = stable_hash(key) % P`` with a
process-independent hash (pandas' SipHash-based ``hash_array`` with a
fixed hash key) — NEVER Python's seeded ``hash()``.  Every stateful
stage (windowed aggregate, symmetric join, dedup) and every checkpoint
is keyed by this same function, so a key's state lives on exactly one
partition across runs, resumes, and cluster sizes with the same P.

Epoch framing: the input stream is cut into micro-batch epochs by
*arrival* order (``offset``).  Epoch boundaries are part of the job
config — the oracle and the engine consume the identical framing, which
is what makes the watermark schedule (and hence late-row drops and
emission times) reproducible.  One epoch ≡ one frontier round of the
reference's batched parallel executor (``impls/src/parallel.rs:29-73``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_HASH_KEY = "graft-paralleldf"  # exactly 16 bytes, fixed -> stable across processes


def stable_hash(values) -> np.ndarray:
    """uint64 stable hash of an array-like of keys."""
    arr = np.asarray(values, dtype=object)
    return pd.util.hash_array(arr, hash_key=_HASH_KEY, categorize=False)


def partition_ids(values, num_partitions: int) -> np.ndarray:
    return (stable_hash(values) % np.uint64(num_partitions)).astype(np.int64)


def dictionary_codes(column) -> tuple[np.ndarray, list]:
    """Factorize a column with ONE dictionary over its combined chunks:
    (int64 code per row, the distinct values as Python objects in
    first-seen order).  Routing hashes those Python values, so every
    caller routes a key the same way.  Nulls are not coded."""
    if isinstance(column, pa.ChunkedArray):
        column = column.combine_chunks()
    enc = column.dictionary_encode()
    return (enc.indices.to_numpy(zero_copy_only=False).astype(np.int64),
            enc.dictionary.to_pylist())


_SALT_STRIDE = np.uint64(0x9E3779B97F4A7C15)


def _salt_routes(key, n: int, num_partitions: int) -> np.ndarray:
    """The n deterministic partition routes of a salted key.  Route 0 is
    the key's unsalted owner (``stable_hash(key) % P``)."""
    base = stable_hash([key])[0]
    salts = np.arange(n, dtype=np.uint64)
    return ((base + salts * _SALT_STRIDE)
            % np.uint64(num_partitions)).astype(np.int64)


def route_rows(table: pa.Table, key_column: str, num_partitions: int,
               salted_keys: dict | None = None,
               join_broadcast_side: int | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Where each row of a block goes: ``(row_idx, pids)``, one entry per
    routed copy — every row once, then the extra copies of replicated
    broadcast rows — so partition p's rows, in order, are
    ``row_idx[pids == p]``.  The one routing function of the row
    operators (join, session): the shuffle-map task splits a block with
    it (:func:`split_by_partition`), and a partition actor that reads a
    small block itself keeps its own rows with it, so both paths hand
    partition p the same rows in the same order.

    ``salted_keys = {key: n_salts}`` with ``join_broadcast_side`` is the
    symmetric-join skew shape (the classic partial-replication /
    Flow-Join decomposition), the mitigation the reference lacked
    (``blog/blog.md:84``): rows of a hot key whose ``__stream`` equals
    this side are REPLICATED to all ``n_salts`` routes, while the other
    (salt) side's rows spread across the routes by offset (salt =
    offset % n).  Every (salt-row, broadcast-row) pair of the
    key meets on exactly one partition — the salt row's — so the match
    set is complete and duplicate-free with no owner merge.  Replicated
    copies share their offset; per-partition offset dedup absorbs route
    collisions (two salts landing on one partition)."""
    # hash each DISTINCT key once (the object-array SipHash path is the
    # contract; encoding just amortizes it over the key's repeat count),
    # then gather per row by code
    codes, uniq = dictionary_codes(table[key_column])
    upids = partition_ids(uniq, num_partitions) if uniq else np.empty(0, np.int64)
    pids = upids[codes] if len(uniq) else np.empty(0, np.int64)
    row_idx = np.arange(table.num_rows, dtype=np.int64)
    if not salted_keys:
        return row_idx, pids
    if join_broadcast_side is None:
        raise ValueError("a salted split needs join_broadcast_side: "
                         "salting is the symmetric join's skew shape")
    extra_idx: list[np.ndarray] = []
    extra_pids: list[np.ndarray] = []
    offsets = table["offset"].to_numpy(zero_copy_only=False)
    stream = table["__stream"].to_numpy(zero_copy_only=False)
    uniq_pos = {k: i for i, k in enumerate(uniq)}
    for k, n in salted_keys.items():
        if k not in uniq_pos:
            continue
        mask = codes == uniq_pos[k]
        routes = _salt_routes(k, n, num_partitions)
        m_salt = mask & (stream != join_broadcast_side)
        if m_salt.any():
            salt = (offsets[m_salt] % n).astype(np.int64)
            pids[m_salt] = routes[salt]
        m_bc = mask & (stream == join_broadcast_side)
        if m_bc.any():
            bidx = np.nonzero(m_bc)[0].astype(np.int64)
            pids[m_bc] = routes[0]
            for s in range(1, n):
                extra_idx.append(bidx)
                extra_pids.append(np.full(bidx.size, routes[s],
                                          dtype=np.int64))
    if not extra_idx:
        return row_idx, pids
    return (np.concatenate([row_idx, *extra_idx]),
            np.concatenate([pids, *extra_pids]))


def split_by_partition(table: pa.Table, key_column: str, num_partitions: int,
                       salted_keys: dict | None = None,
                       join_broadcast_side: int | None = None
                       ) -> list[pa.Table]:
    """One pass split of an Arrow table into P sub-tables by key hash
    (:func:`route_rows`, then one ``take`` in partition order, sliced
    per partition): the shuffle-map body of the row operators' large
    blocks."""
    row_idx, pids = route_rows(table, key_column, num_partitions,
                               salted_keys, join_broadcast_side)
    order = np.argsort(pids, kind="stable")
    sorted_tbl = table.take(pa.array(row_idx[order]))
    bounds = np.searchsorted(pids[order], np.arange(num_partitions + 1))
    return [sorted_tbl.slice(bounds[p], bounds[p + 1] - bounds[p])
            for p in range(num_partitions)]


def detect_hot_keys(table: pa.Table, key_column: str, *,
                    threshold_frac: float = 0.15, num_partitions: int = 8,
                    max_salts: int | None = None) -> dict:
    """Driver-side pre-scan: keys holding more than ``threshold_frac`` of
    rows get ``min(ceil(frac*P*2), max_salts or P)`` salts.  Determinism:
    pure function of the input table."""
    s = pd.Series(table[key_column].to_pylist())
    frac = s.value_counts(normalize=True)
    hot = frac[frac > threshold_frac]
    cap = max_salts or num_partitions
    return {k: int(min(cap, max(2, round(f * num_partitions * 2))))
            for k, f in hot.items()}


def epochs_from_table(table: pa.Table, epoch_rows: int) -> list[pa.Table]:
    """Cut an arrival-ordered table into fixed-size epochs (driver-held
    tables; fine for tests/small streams — at scale use
    :func:`parquet_epochs` so rows never pass through the driver)."""
    assert epoch_rows > 0
    return [table.slice(i, epoch_rows) for i in range(0, table.num_rows, epoch_rows)]


def parquet_epochs(dir_path: str, ts_column: str = "event_ts",
                   offset_column: str = "offset") -> list[dict]:
    """Frame a directory of parquet fragments as epochs using ONLY footer
    metadata: one epoch per file, ordered by the fragment's min offset
    (arrival order), with its decoded size for the engine's per-block
    dispatch: ``bytes`` (the row groups' ``total_byte_size``) and
    ``column_bytes`` (each top-level column's chunks'
    ``total_uncompressed_size``, which add up to ``bytes``).  The
    driver never touches row data — map tasks or partition actors read
    the fragment directly, so ingest bandwidth scales with the cluster,
    not the driver.  This mirrors the production layout: an
    epoch == a Lance/parquet fragment of the append-only stream log.
    """
    import os

    import pyarrow.parquet as pq

    epochs = []
    for name in os.listdir(dir_path):
        if not name.endswith(".parquet"):
            continue
        path = os.path.join(dir_path, name)
        md = pq.ParquetFile(path).metadata
        schema_names = [md.schema.column(i).name for i in range(md.num_columns)]
        ts_i = schema_names.index(ts_column)
        off_i = schema_names.index(offset_column)
        tops = [md.schema.column(i).path.split(".")[0]
                for i in range(md.num_columns)]
        max_ts, min_off, nbytes = None, None, 0
        col_bytes = dict.fromkeys(tops, 0)
        for rg in range(md.num_row_groups):
            nbytes += md.row_group(rg).total_byte_size
            for i, top in enumerate(tops):
                col_bytes[top] += md.row_group(rg).column(
                    i).total_uncompressed_size
            ts_stats = md.row_group(rg).column(ts_i).statistics
            off_stats = md.row_group(rg).column(off_i).statistics
            if ts_stats is None or off_stats is None:
                raise ValueError(f"{path}: missing column statistics")
            mx = ts_stats.max
            if hasattr(mx, "timestamp"):
                mx = int(mx.timestamp() * 1_000_000)
            max_ts = mx if max_ts is None else max(max_ts, mx)
            mo = off_stats.min
            min_off = mo if min_off is None else min(min_off, mo)
        epochs.append({"path": path, "rows": md.num_rows,
                       "num_row_groups": md.num_row_groups,
                       "bytes": nbytes, "column_bytes": col_bytes,
                       "max_ts_us": int(max_ts), "min_offset": int(min_off)})
    epochs.sort(key=lambda e: e["min_offset"])
    return epochs


def dataset_epochs(ds, ts_column: str = "event_ts",
                   offset_column: str = "offset") -> list[dict]:
    """Frame a Ray Dataset's blocks as epochs WITHOUT materializing rows
    on the driver: block refs stay in the object store; one tiny stats
    task per block extracts (rows, max_ts, min_offset, nbytes) — all the
    driver needs for the watermark schedule and the per-block dispatch.
    Map tasks or partition actors ``ray.get`` their block zero-copy.  Epochs are ordered by min offset (arrival order),
    so the framing is deterministic for a deterministically-ordered
    Dataset."""
    import ray

    @ray.remote(num_cpus=0)
    def _stats(t: pa.Table):
        if t.num_rows == 0:
            return (0, None, None, 0)
        import pyarrow.compute as _pc
        return (t.num_rows,
                _pc.max(t[ts_column].cast(pa.int64())).as_py(),
                _pc.min(t[offset_column]).as_py(), t.nbytes)

    refs = ds.to_arrow_refs()
    stats = ray.get([_stats.remote(r) for r in refs])
    epochs = [{"ref": r, "rows": n, "max_ts_us": int(mt),
               "min_offset": int(mo), "bytes": nb}
              for r, (n, mt, mo, nb) in zip(refs, stats) if n]
    epochs.sort(key=lambda e: e["min_offset"])
    return epochs


def load_epoch(source, columns: list | None = None, *,
               use_threads: bool = True) -> pa.Table:
    """Resolve an epoch source (in-memory table, object-store block ref,
    or parquet fragment descriptor — optionally a row-group range of the
    fragment via ``rg_start``/``rg_count``).  ``columns`` prunes the
    PHYSICAL read for fragment sources (only those column chunks leave
    storage); in-memory sources are returned as-is (the caller selects).
    ``use_threads`` is passed to the parquet reader: False reads the
    fragment on the calling thread."""
    if isinstance(source, pa.Table):
        return source
    if "ref" in source:
        import ray

        return ray.get(source["ref"])
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(source["path"])
    cols = None
    if columns:
        avail = set(pf.schema_arrow.names)
        cols = [c for c in columns if c in avail]
    if "rg_start" in source:
        groups = list(range(source["rg_start"],
                            source["rg_start"] + source["rg_count"]))
        return pf.read_row_groups(groups, columns=cols,
                                  use_threads=use_threads)
    return pf.read(columns=cols, use_threads=use_threads)


def interleave_streams(left: pa.Table, right: pa.Table) -> pa.Table:
    """Merge two streams into one arrival-ordered table with a
    ``__stream`` column (0=left, 1=right), ordered by (offset, stream).
    Columns are unioned; missing columns null-filled."""
    left = left.append_column("__stream", pa.array(np.zeros(left.num_rows, dtype=np.int8)))
    right = right.append_column("__stream", pa.array(np.ones(right.num_rows, dtype=np.int8)))
    names: list[str] = list(dict.fromkeys(left.column_names + right.column_names))

    def conform(t: pa.Table, other: pa.Table) -> pa.Table:
        cols = []
        for n in names:
            if n in t.column_names:
                cols.append(t[n])
            else:
                typ = other[n].type
                cols.append(pa.nulls(t.num_rows, type=typ))
        return pa.table(dict(zip(names, cols)))

    merged = pa.concat_tables([conform(left, right), conform(right, left)])
    order = pa.array(np.lexsort((
        merged["__stream"].to_numpy(zero_copy_only=False),
        merged["offset"].to_numpy(zero_copy_only=False))))
    return merged.take(order)
