"""Per-partition stateful operators (the engine's actor payloads).

Each operator owns the state for one hash partition of the key space —
the graft of the reference's per-CFG ``in_vals``/``out_vals`` arrays
owned by one thread (``impls/src/parallel.rs:24-25``) — and exposes the
chassis interface the partition actor drives:

    apply(table, wm_prev)       ingest one epoch's rows for this partition
    on_watermark(wm) -> table   close + emit everything the frontier passed,
                                as one Arrow table (0 columns when empty)
    state_stats() -> (rows, b)  live state entries and their bytes
    snapshot()/restore(bytes)   per-partition checkpoint payload

State layout for fixed windows: a hash-map keyed ``(key, slice_start)``
over ``gcd(size, slide)`` slices, each row folded into one slice, plus
the watermark closed through.  A window is the merge of its slices at
close; a slice is evicted with its last window (Scotty, ICDE 2018).
"""

from __future__ import annotations

import math
import pickle
import sys
from functools import reduce
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .checkpoint import ChunkedSnapshot
from .spec import StreamOpSpec
from .watermark import MIN_TS
from .windows import SessionWindows


def concat_nonempty(tables: list[pa.Table]) -> pa.Table:
    """The rows of the non-empty ``tables`` as one table (0 columns when
    there are none).  Emitted tables built from different row subsets
    can infer different types for a column (all-null, int vs float),
    hence permissive promotion."""
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return pa.table({})
    if len(tables) == 1:
        return tables[0]
    return pa.concat_tables(tables, promote_options="permissive")


def _state_nbytes(state) -> int:
    """Approximate bytes of one window/session state: Arrow and numpy
    buffers exactly, any other Python state shallowly."""
    if isinstance(state, list) and state and isinstance(state[0], pa.Table):
        return sum(t.nbytes for t in state)
    if isinstance(state, np.ndarray):
        return state.nbytes
    return sys.getsizeof(state)


def _empty_state(spec):
    return spec.initial_state() if spec.incremental else []


def _fold_run(spec, state, run: pa.Table):
    """Add one run to a state: an incremental spec folds it, a buffered
    spec (``incremental = False``) keeps a copy of ``event_ts``,
    ``offset`` and its ``value_columns`` (all, if none are declared) for
    :func:`_close_state`.  The copy is a ``take``: a pickled
    ``Table.slice`` carries its parent's whole buffers into checkpoints."""
    if spec.incremental:
        return spec.update_table(state, run)
    if spec.value_columns:
        run = run.select(list(dict.fromkeys(
            ("event_ts", "offset", *spec.value_columns))))
    return state + [run.take(pa.array(np.arange(run.num_rows)))]


def merge_states(spec, a, b):
    """Combine two partial states of one (key, window): the spec's
    semilattice merge, or the union of two run buffers."""
    return spec.merge(a, b) if spec.incremental else a + b


def _close_state(spec, state):
    """The state ``finish`` sees.  A buffered spec's run buffer is
    deduped by ``offset`` (idempotent re-ingest), sorted by
    ``(event_ts, offset)`` — descending for ``order == "reverse"`` —
    with ``event_ts`` as int64, and folded by ONE ``update_table``."""
    if spec.incremental:
        return state
    t = pa.concat_tables(state, promote_options="default")
    ts = t["event_ts"].cast(pa.int64())
    t = t.set_column(t.schema.get_field_index("event_ts"), "event_ts", ts)
    off = t["offset"].to_numpy()
    _, first = np.unique(off, return_index=True)
    order = first[np.lexsort((off[first], ts.to_numpy()[first]))]
    if spec.order == "reverse":
        order = order[::-1]
    return spec.update_table(spec.initial_state(), t.take(pa.array(order)))


def _key_codes(table: pa.Table, key_column: str):
    """Factorize a key column (:func:`partitioning.dictionary_codes`).
    Null and NaN keys are refused: they have no code to fold into."""
    from .partitioning import dictionary_codes

    col = table[key_column]
    if col.null_count or (pa.types.is_floating(col.type)
                          and pc.any(pc.is_nan(col)).as_py()):
        raise ValueError(f"null value in key column {key_column!r}")
    return dictionary_codes(col)


def _window_runs(table: pa.Table, spec, assigner, ts_column: str,
                 wm_prev: int):
    """Vectorized (key, slice) run-grouping shared by the partition
    operator and the map-side combiner: put every non-late row in its
    one slice, starting at ``ts // g * g`` for ``g = gcd(size, slide)``,
    sort indices by (key, slice), and return ``(sorted_tbl, runs,
    kcodes, kuniq, late)`` with ``runs`` = ``[(kcode, slice, start,
    end)]`` over ``sorted_tbl`` slices, ``slice`` = ``(start_us,
    start_us + g)``, and ``late`` the per-input-row late mask (even the
    row's NEWEST window closed, so no window accepts the row)."""
    ts = table[ts_column].cast(pa.int64()).to_numpy()
    size, slide = assigner.size_us, assigner.slide_us
    g = math.gcd(size, slide)
    kcodes, kuniq = _key_codes(table, spec.key_column)
    late = wm_prev >= (ts // slide) * slide + size
    idx = np.nonzero(~late)[0]
    if idx.size == 0:
        return None, [], kcodes, kuniq, late
    ss, kc = (ts[idx] // g) * g, kcodes[idx]
    order = np.lexsort((ss, kc))
    idx_s, kc_s, ss_s = idx[order], kc[order], ss[order]
    sorted_tbl = table.take(pa.array(idx_s))
    # run boundaries where (key, slice) changes
    change = np.empty(idx_s.size, dtype=bool)
    change[0] = True
    np.logical_or(np.diff(kc_s) != 0, np.diff(ss_s) != 0, out=change[1:])
    starts = np.nonzero(change)[0]
    ends = np.append(starts[1:], idx_s.size)
    runs = [(int(kc_s[s]), (int(ss_s[s]), int(ss_s[s]) + g), int(s), int(e))
            for s, e in zip(starts, ends)]
    return sorted_tbl, runs, kcodes, kuniq, late


def combine_window_block(table: pa.Table, spec, assigner, ts_column: str,
                         wm_prev: int, num_partitions: int,
                         capture_late: bool = False) -> list[dict]:
    """Map-side combiner, the shuffle-map body of every tumbling and
    sliding window: fold one input block's rows into per-(key, slice)
    PARTIAL states and route them by key hash, so only partials — not
    raw rows/payload bytes — enter the object store.  Each block acts as
    a salt: a hot key costs its owner at most one partial per (block,
    slice), merged by :func:`merge_states` over disjoint row subsets (the
    semilattice contract, spec.py; a buffered spec's partial is its run
    buffer).  Returns one payload dict per partition: ``{"partials":
    [(key, slice, state)], "rows": routed row count (late included),
    "late": routed late count, "max_offset": max routed offset or -1}``,
    plus ``"late_tbl"`` (the late rows) when ``capture_late`` is set."""
    from .partitioning import partition_ids

    sorted_tbl, runs, kcodes, kuniq, late = _window_runs(
        table, spec, assigner, ts_column, wm_prev)
    upids = (partition_ids(kuniq, num_partitions)
             if len(kuniq) else np.empty(0, np.int64))
    payloads = [{"partials": [], "rows": 0, "late": 0, "max_offset": -1}
                for _ in range(num_partitions)]
    if table.num_rows:
        row_pid = upids[kcodes]
        offsets = table["offset"].to_numpy(zero_copy_only=False)
        rows_p = np.bincount(row_pid, minlength=num_partitions)
        late_p = np.bincount(row_pid[late], minlength=num_partitions)
        mo = np.full(num_partitions, -1, dtype=np.int64)
        np.maximum.at(mo, row_pid, offsets)
        for p in range(num_partitions):
            payloads[p]["rows"] = int(rows_p[p])
            payloads[p]["late"] = int(late_p[p])
            payloads[p]["max_offset"] = int(mo[p])
        if capture_late and late.any():
            # dead-letter capture: ship the late ROWS (not just counts)
            # to their owning partition for the side-output sink
            lidx = np.nonzero(late)[0]
            lpid = row_pid[late]
            for p in range(num_partitions):
                sel = lidx[lpid == p]
                if sel.size:
                    payloads[p]["late_tbl"] = table.take(pa.array(sel))
    for kc, w, s, e in runs:
        state = _fold_run(spec, _empty_state(spec), sorted_tbl.slice(s, e - s))
        payloads[int(upids[kc])]["partials"].append((kuniq[kc], w, state))
    return payloads


class WindowedAggregateOp:
    """Tumbling/sliding windowed aggregate over a ``StreamOpSpec``."""

    def __init__(self, spec: StreamOpSpec, assigner, ts_column: str = "event_ts"):
        assert assigner.kind in ("tumbling", "sliding")
        self.spec = spec
        self.assigner = assigner
        self.ts_column = ts_column
        self.states: dict[tuple, Any] = {}  # (key, slice_start) -> state | [run, ...]
        #: windows ending at or before this watermark are closed
        self.wm = MIN_TS
        self.late_rows = 0
        self.rows_seen = 0
        #: dead-letter side output: when True (set by the worker when a
        #: late_root is configured) late rows are BUFFERED per epoch and
        #: drained via take_late() into an epoch-idempotent side sink
        #: instead of only being counted
        self.capture_late = False
        self._late_tbls: list[pa.Table] = []

    def apply(self, table: pa.Table, wm_prev: int) -> None:
        """Ingest one epoch: numpy grouping by (key, slice), then one
        Arrow run per group into its slice state — each row is folded
        once, whatever the windows' overlap.  ``wm_prev`` is the
        watermark of the last :meth:`on_watermark`.  The engine folds on
        the map side (:func:`combine_window_block`); this is the
        single-process path of the oracle and the trace replay."""
        if table.num_rows == 0:
            return
        spec = self.spec
        self.rows_seen += table.num_rows
        sorted_tbl, runs, _, kuniq, late = _window_runs(
            table, spec, self.assigner, self.ts_column, wm_prev)
        self.late_rows += int(late.sum())
        if self.capture_late and late.any():
            self._late_tbls.append(table.take(pa.array(np.nonzero(late)[0])))
        for kc, (a, _), s, e in runs:
            kw = (kuniq[kc], a)
            st = self.states[kw] if kw in self.states else _empty_state(spec)
            self.states[kw] = _fold_run(spec, st, sorted_tbl.slice(s, e - s))

    def ingest_partials(self, payload: dict) -> None:
        """Map-side-combined ingest: merge per-(key, slice) partial
        states produced by :func:`combine_window_block` with
        :func:`merge_states`, plus the block's routed row/late
        accounting.  A partial's newest window can never already be
        closed here: the split evaluated lateness with this epoch's
        ``wm_prev``, and watermarks are monotone."""
        self.rows_seen += payload["rows"]
        self.late_rows += payload["late"]
        lt = payload.get("late_tbl")
        if lt is not None and self.capture_late:
            self._late_tbls.append(lt)
        spec = self.spec
        for key, (a, _), state in payload["partials"]:
            kw = (key, a)
            self.states[kw] = (merge_states(spec, self.states[kw], state)
                               if kw in self.states else state)

    def on_watermark(self, wm: int) -> pa.Table:
        """Close windows ending in ``(self.wm, wm]``, each merged from
        its slices into a FRESH state (later windows still read the
        slices; some ``merge`` laws mutate their first argument), and
        return their finished rows as one table."""
        size, slide = self.assigner.size_us, self.assigner.slide_us
        g = math.gcd(size, slide)
        lo = (self.wm - size) // slide * slide + slide  # first start to close
        hi = (wm - size) // slide * slide                # last start to close
        self.wm = max(self.wm, wm)
        windows: dict[tuple, list[int]] = {}  # (start, key) -> slice starts
        for key, a in self.states:
            # the windows covering slice a start at the multiples of
            # slide in [a + g - size, a]
            for s in range(max(lo, -((size - g - a) // slide) * slide),
                           min(hi, a // slide * slide) + 1, slide):
                windows.setdefault((s, key), []).append(a)
        spec = self.spec
        out: list[dict] = []
        for (s, key), starts in sorted(windows.items()):
            state = reduce(lambda acc, a: merge_states(
                spec, acc, self.states[(key, a)]), sorted(starts),
                _empty_state(spec))
            row = spec.finish(key, (s, s + size), _close_state(spec, state))
            if row is not None:
                out.append(row)
        self.states = {ka: st for ka, st in self.states.items()
                       if ka[1] // slide * slide + size > wm}
        return pa.Table.from_pylist(out)

    def take_late(self) -> pa.Table | None:
        """Drain this epoch's captured late rows (dead-letter side
        output).  Called by the worker once per epoch, BEFORE the
        checkpoint — the buffer is per-epoch transient, so snapshots
        never carry it and replay re-captures deterministically."""
        if not self._late_tbls:
            return None
        t, self._late_tbls = concat_nonempty(self._late_tbls), []
        return t

    def state_stats(self) -> tuple[int, int]:
        """(live slices, their approximate bytes)."""
        return (len(self.states),
                sum(_state_nbytes(st) for st in self.states.values()))

    # -- checkpoint --------------------------------------------------------
    def snapshot(self) -> bytes:
        return pickle.dumps(
            {"states": self.states, "wm": self.wm,
             "late_rows": self.late_rows, "rows_seen": self.rows_seen},
            protocol=pickle.HIGHEST_PROTOCOL)

    def restore(self, blob: bytes) -> None:
        d = pickle.loads(blob)
        self.states, self.wm = d["states"], d["wm"]
        self.late_rows, self.rows_seen = d["late_rows"], d["rows_seen"]


class SessionAggregateOp:
    """Session windows: per-key interval merging of partial sessions.

    A row opens the interval ``[ts, ts+gap)``; overlapping or touching
    intervals for the same key merge (and their states merge via
    :func:`merge_states` — legal because merge is a semilattice
    combine), so two rows exactly ``gap`` apart share a session, as
    under the SQL ``diff > gap`` break, however the rows are batched.  A
    session closes once the watermark is past its end (``end < wm``): a
    row at ``ts = end`` still extends it.

    A row is late when its session can no longer change: when the
    watermark already passed ``ts + gap``, or when ``ts`` is at or
    before the end of a session of its key that already closed (the row
    would overlap or touch an emitted session, and emitted rows are
    final).  The closed end is kept per key until the watermark passes
    ``end + gap``; from then on the first rule covers such rows.
    """

    def __init__(self, spec: StreamOpSpec, assigner: SessionWindows,
                 ts_column: str = "event_ts"):
        self.spec = spec
        self.gap_us = assigner.gap_us
        self.ts_column = ts_column
        # key -> sorted list of [start, end, state_or_buffer]
        self.sessions: dict[Any, list[list]] = {}
        #: key -> end of its last closed session (see the late rule)
        self.closed_ends: dict[Any, int] = {}
        self.late_rows = 0
        self.rows_seen = 0
        self.capture_late = False           # dead-letter side output
        self._late_tbls: list[pa.Table] = []

    take_late = WindowedAggregateOp.take_late

    def apply(self, table: pa.Table, wm_prev: int) -> None:
        """Vectorized ingest: sort the batch by (key, ts), split into
        per-key gap segments (each a partial session covering a whole
        run of rows), build ONE state per segment, then interval-merge
        each segment into the key's open sessions.  Per-Python work is
        per segment, not per row; the result is the row-at-a-time one
        because session state merge is a semilattice combine."""
        if table.num_rows == 0:
            return
        n = table.num_rows
        self.rows_seen += n
        ts = table[self.ts_column].cast(pa.int64()).to_numpy()
        kcodes, kuniq = _key_codes(table, self.spec.key_column)
        late = wm_prev > ts + self.gap_us
        if self.closed_ends:
            ends = np.array([self.closed_ends.get(k, MIN_TS) for k in kuniq],
                            dtype=np.int64)
            late |= ts <= ends[kcodes]
        self.late_rows += int(late.sum())  # its session has already closed
        if self.capture_late and late.any():
            self._late_tbls.append(table.take(pa.array(np.nonzero(late)[0])))
        keep = np.nonzero(~late)[0]
        if keep.size == 0:
            return
        tbl = table.take(pa.array(keep))
        ts, kcodes = ts[keep], kcodes[keep]
        order = np.lexsort((ts, kcodes))
        ts_s, kc_s = ts[order], kcodes[order]
        tbl_s = tbl.take(pa.array(order))
        brk = np.empty(ts_s.size, dtype=bool)
        brk[0] = True
        np.logical_or(np.diff(kc_s) != 0, np.diff(ts_s) > self.gap_us,
                      out=brk[1:])
        starts = np.nonzero(brk)[0]
        ends = np.append(starts[1:], ts_s.size)
        spec = self.spec
        for s, e in zip(starts, ends):
            state = _fold_run(spec, _empty_state(spec), tbl_s.slice(s, e - s))
            self._insert_interval(kuniq[kc_s[s]], int(ts_s[s]),
                                  int(ts_s[e - 1]) + self.gap_us, state)

    def _insert_interval(self, key, start: int, end: int, state) -> None:
        ivs = self.sessions.setdefault(key, [])
        # collect overlapping or touching intervals (s <= end and start <= e)
        keep, merged = [], [start, end, state]
        for iv in ivs:
            if iv[0] <= merged[1] and merged[0] <= iv[1]:
                merged[0] = min(merged[0], iv[0])
                merged[1] = max(merged[1], iv[1])
                merged[2] = merge_states(self.spec, iv[2], merged[2])
            else:
                keep.append(iv)
        keep.append(merged)
        keep.sort(key=lambda iv: iv[0])
        self.sessions[key] = keep

    def on_watermark(self, wm: int) -> pa.Table:
        out = []
        spec = self.spec
        closed = self.closed_ends
        for key in list(self.sessions):
            remain = []
            for iv in self.sessions[key]:
                if iv[1] < wm:
                    row = spec.finish(key, (iv[0], iv[1]),
                                      _close_state(spec, iv[2]))
                    if row is not None:
                        out.append(row)
                    closed[key] = max(closed.get(key, MIN_TS), iv[1])
                else:
                    remain.append(iv)
            if remain:
                self.sessions[key] = remain
            else:
                del self.sessions[key]
        self.closed_ends = {k: e for k, e in closed.items()
                            if wm <= e + self.gap_us}
        return pa.Table.from_pylist(out)

    def state_stats(self) -> tuple[int, int]:
        """(open session intervals, their approximate bytes)."""
        ivs = [iv for v in self.sessions.values() for iv in v]
        return len(ivs), sum(_state_nbytes(iv[2]) for iv in ivs)

    def snapshot(self) -> bytes:
        return pickle.dumps({"sessions": self.sessions,
                             "closed_ends": self.closed_ends,
                             "late_rows": self.late_rows,
                             "rows_seen": self.rows_seen},
                            protocol=pickle.HIGHEST_PROTOCOL)

    def restore(self, blob: bytes) -> None:
        d = pickle.loads(blob)
        # a snapshot written before ``closed_ends`` existed has none
        self.sessions = d["sessions"]
        self.closed_ends = d.get("closed_ends", {})
        self.late_rows, self.rows_seen = d["late_rows"], d["rows_seen"]


class _Chunk:
    """The rows one ``apply`` stored on one side of the join, copied out
    of the input, with their ``event_ts`` and ``offset`` as numpy arrays
    and the Python value of each row's key.  ``cut`` is the eviction
    bound last applied to the chunk: rows with ``event_ts < cut`` are
    gone."""

    __slots__ = ("table", "ts", "offsets", "keys", "cut")

    def __init__(self, table: pa.Table, key_column: str, cut: int = MIN_TS):
        self.table = table
        self.ts = table["event_ts"].to_numpy()
        self.offsets = table["offset"].to_numpy()
        self.keys = table[key_column].to_pylist()
        self.cut = cut


class SymmetricJoinOp:
    """Stateful symmetric hash join between two co-partitioned streams.

    north_star: "a stateful symmetric hash join between the audio-clip
    stream and the transcript stream".  Each arriving row probes the
    opposite side's state and emits every pair within ``time_bound_us``
    of event time; rows evict once the watermark guarantees no future
    match (wm > ts + time_bound).  Partitioning both streams on the same
    key hash is what makes each partition's state complete — the
    Streaming-HyperCube-style co-partitioning argument.

    State per side: an append-only run of Arrow chunks, one per
    ``apply`` that stored rows, and a persistent index from key to
    ``chunk_id << 32 | row`` (a keyed index over columnar rows, as in
    the CAMEL hash table).  New rows probe the other side's index, so no
    hash table of the live state is rebuilt per epoch, and each side's
    payload is taken once, for the emitted pairs only.  Eviction works
    chunk by chunk: a chunk whose newest row expired is dropped, one
    whose oldest row is live is kept whole, and only a chunk straddling
    the bound is filtered.  ``stores[side]`` is the zero-copy
    concatenation of a side's live chunks.

    Input rows must carry ``__stream`` (0 = left, 1 = right).
    """

    def __init__(self, key_column: str = "clip_id", time_bound_us: int = 60_000_000,
                 left_columns: tuple = (), right_columns: tuple = (),
                 ts_column: str = "event_ts"):
        self.key_column = key_column
        self.time_bound_us = int(time_bound_us)
        self.left_columns = tuple(left_columns)
        self.right_columns = tuple(right_columns)
        self.ts_column = ts_column
        self._chunks: list[dict[int, _Chunk]] = [{}, {}]
        self._index: list[dict[Any, list[int]]] = [{}, {}]
        self._offsets: list[set[int]] = [set(), set()]  # stored, for dedup
        #: each side's last stored schema (``stores`` of an emptied side)
        self._schemas: list[pa.Schema | None] = [None, None]
        self._next_id = 0
        #: chunks with a smaller id are in an earlier snapshot
        self._saved = 0
        self.pending: list[pa.Table] = []  # matched this epoch, not yet collected
        self.late_rows = 0
        self.rows_seen = 0
        self.capture_late = False           # dead-letter side output
        self._late_tbls: list[pa.Table] = []
        # left payload first, right payload overwrites on name collision
        self._left_payload = tuple(c for c in dict.fromkeys(self.left_columns)
                                   if c not in self.right_columns)
        self._right_payload = tuple(dict.fromkeys(self.right_columns))

    take_late = WindowedAggregateOp.take_late

    def _side_cols(self, side: int) -> list[str]:
        payload = self.left_columns if side == 0 else self.right_columns
        return list(dict.fromkeys(
            [self.key_column, "event_ts", "offset", *payload]))

    @property
    def stores(self) -> list[pa.Table | None]:
        """Each side's stored rows as one table (None before its first)."""
        out = []
        for side in (0, 1):
            tables = [ch.table for ch in self._chunks[side].values()]
            schema = self._schemas[side]
            out.append(None if schema is None
                       else schema.empty_table() if not tables
                       else pa.concat_tables(tables,
                                             promote_options="permissive"))
        return out

    def _store(self, side: int, ch: _Chunk) -> None:
        """Append a new chunk to a side under the next chunk id."""
        self._add(side, self._next_id, ch)
        self._next_id += 1

    def _add(self, side: int, cid: int, ch: _Chunk) -> None:
        self._chunks[side][cid] = ch
        self._schemas[side] = ch.table.schema
        self._offsets[side].update(ch.offsets.tolist())
        self._reindex(side, cid, ch)

    def _reindex(self, side: int, cid: int, ch: _Chunk) -> None:
        """Index a chunk's rows (a null key never matches)."""
        index = self._index[side]
        for row, key in enumerate(ch.keys):
            if key is not None:
                index.setdefault(key, []).append(cid << 32 | row)

    def _unindex(self, side: int, cid: int, ch: _Chunk) -> None:
        index = self._index[side]
        for row, key in enumerate(ch.keys):
            if key is not None:
                entries = index[key]
                entries.remove(cid << 32 | row)
                if not entries:
                    del index[key]

    def _probe(self, side: int, new: _Chunk) -> None:
        """Pair ``new`` (rows of ``side``) with every indexed row of the
        other side that has the same key and lies within the bound, and
        queue the pairs: the other side's rows are taken chunk by chunk
        in (chunk, row) order, ``new``'s with one ``take``."""
        index, chunks = self._index[1 - side], self._chunks[1 - side]
        rows: list[int] = []
        hits: list[int] = []
        for i, key in enumerate(new.keys):
            entries = index.get(key)
            if entries:
                rows += [i] * len(entries)
                hits += entries
        if not hits:
            return
        hits_a = np.array(hits, dtype=np.int64)
        order = np.argsort(hits_a, kind="stable")
        rows_a, hits_a = np.array(rows)[order], hits_a[order]
        cids, orows = hits_a >> 32, hits_a & 0xFFFFFFFF
        ts_o = np.empty(hits_a.size, dtype=np.int64)
        for cid in np.unique(cids):
            sel = cids == cid
            ts_o[sel] = chunks[int(cid)].ts[orows[sel]]
        ts_n = new.ts[rows_a]
        ok = np.abs(ts_n - ts_o) <= self.time_bound_us
        if not ok.any():
            return
        rows_a, cids, orows = rows_a[ok], cids[ok], orows[ok]
        ts_n, ts_o = ts_n[ok], ts_o[ok]
        k = self.key_column
        lcols = list(dict.fromkeys([k, *self._left_payload]))
        rcols = list(self._right_payload)
        ocols, ncols = (rcols, lcols) if side == 0 else (lcols, rcols)
        parts = [chunks[int(cid)].table.select(ocols).take(
                     pa.array(orows[cids == cid])) for cid in np.unique(cids)]
        other = (parts[0] if len(parts) == 1 else
                 pa.concat_tables(parts, promote_options="permissive"))
        mine = new.table.select(ncols).take(pa.array(rows_a))
        (lp, ts_l), (rp, ts_r) = (((mine, ts_n), (other, ts_o)) if side == 0
                                  else ((other, ts_o), (mine, ts_n)))
        out = {k: lp[k], "ts_left": ts_l, "ts_right": ts_r}
        out.update((c, lp[c]) for c in self._left_payload)
        out.update((c, rp[c]) for c in self._right_payload)
        self.pending.append(pa.table(out))

    def apply(self, table: pa.Table, wm_prev: int) -> None:
        if table.num_rows == 0:
            return
        self.rows_seen += table.num_rows
        ts = table[self.ts_column].cast(pa.int64()).to_numpy()
        late = wm_prev >= ts + self.time_bound_us
        self.late_rows += int(late.sum())  # every possible match already evicted
        if self.capture_late and late.any():
            self._late_tbls.append(table.take(pa.array(np.nonzero(late)[0])))
        if late.all():
            return
        stream = table["__stream"].to_numpy(zero_copy_only=False)
        offsets = table["offset"].to_numpy()
        names = set(table.column_names)
        for side in (0, 1):
            idx = np.nonzero(~late & (stream == side))[0]
            # idempotent re-ingest (replayed epoch): keep the first row of
            # each offset the side does not already store
            _, first = np.unique(offsets[idx], return_index=True)
            idx = idx[np.sort(first)]
            stored = self._offsets[side]
            idx = idx[np.array([o not in stored for o in offsets[idx].tolist()],
                               dtype=bool)]
            if idx.size == 0:
                continue
            # the side's own rows and columns, copied: a slice would keep
            # the whole input block alive and write it into checkpoints
            cols = [c for c in self._side_cols(side) if c in names]
            new = table.select(cols).take(pa.array(idx))
            i = new.schema.get_field_index("event_ts")
            ts_new = pa.array(ts[idx])
            new = _Chunk(new.set_column(i, "event_ts", ts_new) if i >= 0
                         else new.append_column("event_ts", ts_new),
                         self.key_column)
            # side 0 probes before its rows are indexed and side 1 after,
            # so the pairs are new0×stored1 ∪ (stored0 ∪ new0)×new1: each
            # pair the row-at-a-time probe emitted, exactly once
            self._probe(side, new)
            self._store(side, new)

    def on_watermark(self, wm: int) -> pa.Table:
        out, self.pending = concat_nonempty(self.pending), []
        # keep rows with ts + bound >= wm: a future in-order row can sit
        # EXACTLY at the bound (ts_new = wm = ts_old + bound) and must
        # still find its partner (strict > lost the boundary pair when an
        # epoch boundary fell between the two rows).  An evicted row's
        # replay either hits the late check (live runs use the current
        # watermark) or lands in an epoch the sink's (partition, epoch)
        # manifest already absorbs (resume).
        cut = wm - self.time_bound_us
        for side in (0, 1):
            for cid, ch in list(self._chunks[side].items()):
                if ch.ts.min() >= cut:
                    continue  # oldest row live: keep the chunk whole
                self._unindex(side, cid, ch)
                live = ch.ts >= cut
                self._offsets[side].difference_update(
                    ch.offsets[~live].tolist())
                if not live.any():
                    del self._chunks[side][cid]
                    continue
                # straddles the bound: copy out its live rows, re-point
                keep = np.nonzero(live)[0]
                ch.table = ch.table.take(pa.array(keep))
                ch.ts, ch.offsets = ch.ts[keep], ch.offsets[keep]
                ch.keys = [ch.keys[i] for i in keep]
                ch.cut = cut
                self._reindex(side, cid, ch)
        return out

    def state_stats(self) -> tuple[int, int]:
        """(stored rows, their Arrow bytes), both sides together."""
        chunks = [ch for side in self._chunks for ch in side.values()]
        return (sum(ch.table.num_rows for ch in chunks),
                sum(ch.table.nbytes for ch in chunks))

    def snapshot(self) -> ChunkedSnapshot:
        """The checkpoint delta: every live chunk's id and cut per side,
        the counters and ``pending``, and an Arrow IPC stream of each
        chunk stored since the previous snapshot.  Earlier chunks are in
        earlier checkpoint files, which the store names."""
        new = [(side, cid, ch.table) for side in (0, 1)
               for cid, ch in self._chunks[side].items() if cid >= self._saved]
        self._saved = self._next_id
        head = {"chunks": [[(cid, ch.cut) for cid, ch in side.items()]
                           for side in self._chunks],
                "next_id": self._next_id, "schemas": self._schemas,
                "pending": self.pending, "late_rows": self.late_rows,
                "rows_seen": self.rows_seen}
        return ChunkedSnapshot(head, new)

    def restore(self, blob: bytes) -> None:
        """Load a FULL snapshot, one holding every live chunk's stream
        (:meth:`CheckpointStore.load` resolves a chain into one)."""
        head, streams = ChunkedSnapshot.streams(blob)
        self._chunks, self._index = [{}, {}], [{}, {}]
        self._offsets = [set(), set()]
        for side, chunks in enumerate(head["chunks"]):
            for cid, cut in chunks:
                if cid not in streams:
                    raise ValueError(f"snapshot names chunk {cid} but holds "
                                     "no stream for it")
                t = pa.ipc.open_stream(pa.py_buffer(streams[cid][1])).read_all()
                if cut > MIN_TS:
                    t = t.filter(pc.greater_equal(t["event_ts"], cut))
                self._add(side, cid, _Chunk(t, self.key_column, cut))
        self._schemas = head["schemas"]
        self._next_id = self._saved = head["next_id"]
        self.pending = head["pending"]
        self.late_rows, self.rows_seen = head["late_rows"], head["rows_seen"]


def make_operator(kind: str, **kw):
    """Factory used by the partition actor (kind: window|session|join)."""
    if kind == "window":
        return WindowedAggregateOp(**kw)
    if kind == "session":
        return SessionAggregateOp(**kw)
    if kind == "join":
        return SymmetricJoinOp(**kw)
    raise ValueError(kind)
