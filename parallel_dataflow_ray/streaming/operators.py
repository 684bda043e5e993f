"""Per-partition stateful operators (the engine's actor payloads).

Each operator owns the state for one hash partition of the key space —
the graft of the reference's per-CFG ``in_vals``/``out_vals`` arrays
owned by one thread (``impls/src/parallel.rs:24-25``) — and exposes the
chassis interface the partition actor drives:

    apply(table, wm_prev)      ingest one epoch's rows for this partition
    on_watermark(wm) -> rows   close + emit everything the frontier passed
    snapshot()/restore(bytes)  per-partition checkpoint payload

State layout for fixed windows: a hash-map keyed ``(key, slice_start)``
over ``gcd(size, slide)`` slices, each row folded into one slice, plus
the watermark closed through.  A window is the merge of its slices at
close; a slice is evicted with its last window (Scotty, ICDE 2018).
"""

from __future__ import annotations

import math
import pickle
from functools import reduce
from typing import Any

import numpy as np
import pyarrow as pa

from .spec import StreamOpSpec
from .watermark import MIN_TS
from .windows import SessionWindows


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
    """Factorize a key column.  Null keys are refused: pandas codes them
    -1, which would index (and fold into) the last real key."""
    import pandas as pd

    codes, uniq = pd.factorize(
        np.asarray(table[key_column].to_pylist(), dtype=object))
    if (codes < 0).any():
        raise ValueError(f"null value in key column {key_column!r}")
    return codes, uniq


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
    """Map-side combiner (shuffle-map body in combine mode): fold one
    input block's rows into per-(key, slice) PARTIAL states and route
    them by key hash, so only partials — not raw rows/payload bytes —
    enter the object store.  Legal exactly when salted-key splitting is
    legal: ``spec.merge`` over states built from disjoint row subsets
    (the semilattice contract, spec.py).  Returns one payload dict per
    partition: ``{"partials": [(key, slice, state)], "rows": routed
    row count (late included), "late": routed late count,
    "max_offset": max routed offset or -1}`` — the same per-partition
    accounting the row-shipping split produces."""
    from .partitioning import partition_ids

    sorted_tbl, runs, kcodes, kuniq, late = _window_runs(
        table, spec, assigner, ts_column, wm_prev)
    upids = (partition_ids(list(kuniq), num_partitions)
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
        state = spec.update_table(spec.initial_state(),
                                  sorted_tbl.slice(s, e - s))
        payloads[int(upids[kc])]["partials"].append((kuniq[kc], w, state))
    return payloads


class WindowedAggregateOp:
    """Tumbling/sliding windowed aggregate over a ``StreamOpSpec``."""

    def __init__(self, spec: StreamOpSpec, assigner, ts_column: str = "event_ts",
                 partial_keys: frozenset = frozenset()):
        assert assigner.kind in ("tumbling", "sliding")
        self.spec = spec
        self.assigner = assigner
        self.ts_column = ts_column
        #: salted hot keys: this partition holds only a PARTIAL state for
        #: them; at window close it emits the state for owner-side merge
        #: instead of finishing locally (skew splitting, SURVEY §4 —
        #: valid because ``spec.merge`` is a semilattice combine)
        self.partial_keys = frozenset(partial_keys)
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
        watermark of the last :meth:`on_watermark_split`."""
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
        states produced by :func:`combine_window_block` (the same
        ``spec.merge`` the salted-key owner path relies on), plus the
        block's routed row/late accounting.  A partial's newest window
        can never already be closed here: the split evaluated lateness
        with this epoch's ``wm_prev``, and watermarks are monotone."""
        self.rows_seen += payload["rows"]
        self.late_rows += payload["late"]
        lt = payload.get("late_tbl")
        if lt is not None and self.capture_late:
            self._late_tbls.append(lt)
        spec = self.spec
        for key, (a, _), state in payload["partials"]:
            kw = (key, a)
            self.states[kw] = (spec.merge(self.states[kw], state)
                               if kw in self.states else state)

    def on_watermark(self, wm: int) -> list[dict]:
        rows, partials = self.on_watermark_split(wm)
        if partials:  # single-process path (oracle): merge locally
            groups: dict[tuple, list] = {}
            for key, w, s in partials:
                groups.setdefault((key, w), []).append(s)
            rows = rows + self.merge_partials(groups)
        return rows

    def on_watermark_split(self, wm: int) -> tuple[list[dict], list[tuple]]:
        """Close windows ending in ``(self.wm, wm]``, each merged from
        its slices into a FRESH state (later windows still read the
        slices; some ``merge`` laws mutate their first argument).  Returns
        (finished rows, salted keys' partials: [(key, window, state)])."""
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
        partials: list[tuple] = []
        for (s, key), starts in sorted(windows.items()):
            w = (s, s + size)
            state = reduce(lambda acc, a: merge_states(
                spec, acc, self.states[(key, a)]), sorted(starts),
                _empty_state(spec))
            if key in self.partial_keys:
                # ship the raw partial (run buffer for non-incremental
                # specs — the owner folds the UNION in full event order)
                partials.append((key, w, state))
                continue
            row = spec.finish(key, w, _close_state(spec, state))
            if row is not None:
                out.append(row)
        self.states = {ka: st for ka, st in self.states.items()
                       if ka[1] // slide * slide + size > wm}
        return out, partials

    def merge_partials(self, groups: dict[tuple, list[Any]]) -> list[dict]:
        """Owner-side merge of salted partial states: {(key, window):
        [state, ...]} -> finished rows.  For buffered (non-incremental)
        specs the partials arrive as run buffers and are folded here in
        full event order."""
        spec = self.spec
        out = []
        for (key, w), states in sorted(groups.items(),
                                       key=lambda kv: (kv[0][1], str(kv[0][0]))):
            merged = reduce(lambda a, b: merge_states(spec, a, b), states)
            row = spec.finish(key, w, _close_state(spec, merged))
            if row is not None:
                out.append(row)
        return out

    def take_late(self) -> pa.Table | None:
        """Drain this epoch's captured late rows (dead-letter side
        output).  Called by the worker once per epoch, BEFORE the
        checkpoint — the buffer is per-epoch transient, so snapshots
        never carry it and replay re-captures deterministically."""
        if not self._late_tbls:
            return None
        t = (self._late_tbls[0] if len(self._late_tbls) == 1
             else pa.concat_tables(self._late_tbls, promote_options="default"))
        self._late_tbls = []
        return t

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

    A row opens the interval ``[ts, ts+gap)``; overlapping intervals for
    the same key merge (and their states merge via :func:`merge_states`
    — legal because merge is a semilattice combine).  A session closes
    when the watermark passes its end.
    """

    def __init__(self, spec: StreamOpSpec, assigner: SessionWindows,
                 ts_column: str = "event_ts"):
        self.spec = spec
        self.gap_us = assigner.gap_us
        self.ts_column = ts_column
        # key -> sorted list of [start, end, state_or_buffer]
        self.sessions: dict[Any, list[list]] = {}
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
        late = wm_prev >= ts + self.gap_us
        self.late_rows += int(late.sum())  # its session has already closed
        if self.capture_late and late.any():
            self._late_tbls.append(table.take(pa.array(np.nonzero(late)[0])))
        keep = np.nonzero(~late)[0]
        if keep.size == 0:
            return
        tbl = table.take(pa.array(keep))
        ts = ts[keep]
        kcodes, kuniq = _key_codes(tbl, self.spec.key_column)
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
        # collect overlapping intervals ([s,e) overlaps [start,end) if s < end and start < e)
        keep, merged = [], [start, end, state]
        for iv in ivs:
            if iv[0] < merged[1] and merged[0] < iv[1]:
                merged[0] = min(merged[0], iv[0])
                merged[1] = max(merged[1], iv[1])
                merged[2] = merge_states(self.spec, iv[2], merged[2])
            else:
                keep.append(iv)
        keep.append(merged)
        keep.sort(key=lambda iv: iv[0])
        self.sessions[key] = keep

    def on_watermark(self, wm: int) -> list[dict]:
        out = []
        spec = self.spec
        for key in list(self.sessions):
            remain = []
            for iv in self.sessions[key]:
                if iv[1] <= wm:
                    row = spec.finish(key, (iv[0], iv[1]),
                                      _close_state(spec, iv[2]))
                    if row is not None:
                        out.append(row)
                else:
                    remain.append(iv)
            if remain:
                self.sessions[key] = remain
            else:
                del self.sessions[key]
        return out

    def snapshot(self) -> bytes:
        return pickle.dumps({"sessions": self.sessions, "late_rows": self.late_rows,
                             "rows_seen": self.rows_seen}, protocol=pickle.HIGHEST_PROTOCOL)

    def restore(self, blob: bytes) -> None:
        d = pickle.loads(blob)
        self.sessions, self.late_rows, self.rows_seen = (
            d["sessions"], d["late_rows"], d["rows_seen"])


class SymmetricJoinOp:
    """Stateful symmetric hash join between two co-partitioned streams.

    Per-partition actor state = two hash tables keyed on ``key_column``
    (north_star: "a stateful symmetric hash join between the audio-clip
    stream and the transcript stream").  Each arriving row probes the
    opposite table and emits every pair within ``time_bound_us`` of
    event time; rows evict once the watermark guarantees no future
    match (wm >= ts + time_bound).  Partitioning both streams on the
    same key hash is what makes the per-partition tables complete —
    the Streaming-HyperCube-style co-partitioning argument.

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
        # COLUMNAR state: one pandas frame per side (key, event_ts,
        # offset, payload cols) — probes are vectorized merges, never a
        # per-row dict of the binary audio payload
        self.stores: list = [None, None]
        self.seen: tuple[set, set] = (set(), set())  # offsets per side
        self.pending: list[dict] = []  # matched this epoch, not yet collected
        self.late_rows = 0
        self.rows_seen = 0
        # output keeps the old dict-row semantics: left payload first,
        # right payload overwrites on name collision
        self._left_payload = tuple(c for c in dict.fromkeys(self.left_columns)
                                   if c not in self.right_columns)
        self._right_payload = tuple(dict.fromkeys(self.right_columns))

    def _side_cols(self, side: int) -> list[str]:
        payload = self.left_columns if side == 0 else self.right_columns
        return list(dict.fromkeys(
            [self.key_column, "event_ts", "offset", *payload]))

    def _probe(self, l, r) -> None:
        """Emit all (left, right) pairs with equal key within the time
        bound — one vectorized merge + mask per probe."""
        if l is None or r is None or len(l) == 0 or len(r) == 0:
            return
        lk = l[list(dict.fromkeys(
            [self.key_column, "event_ts", *self._left_payload]))].rename(
            columns={"event_ts": "ts_left"})
        rk = r[list(dict.fromkeys(
            [self.key_column, "event_ts", *self._right_payload]))].rename(
            columns={"event_ts": "ts_right"})
        m = lk.merge(rk, on=self.key_column)
        if m.empty:
            return
        m = m[(m["ts_left"] - m["ts_right"]).abs() <= self.time_bound_us]
        if m.empty:
            return
        cols = [self.key_column, "ts_left", "ts_right",
                *self._left_payload, *self._right_payload]
        self.pending.extend(m[cols].to_dict("records"))

    def apply(self, table: pa.Table, wm_prev: int) -> None:
        import pandas as pd

        if table.num_rows == 0:
            return
        n = table.num_rows
        self.rows_seen += n
        ts = table[self.ts_column].cast(pa.int64()).to_numpy()
        late = wm_prev >= ts + self.time_bound_us
        self.late_rows += int(late.sum())  # every possible match already evicted
        if late.all():
            return
        stream = table["__stream"].to_numpy(zero_copy_only=False)
        news = []
        for side in (0, 1):
            # select each side's rows and columns in Arrow first: in a
            # frame of both streams, the other side's nulls would turn
            # integer payload columns into float64
            idx = np.nonzero(~late & (stream == side))[0]
            cols = [c for c in self._side_cols(side) if c in table.column_names]
            sub = table.take(pa.array(idx)).select(cols).to_pandas()
            sub["event_ts"] = ts[idx]
            if len(sub):
                # idempotent re-ingest (replayed epoch): offset-keyed
                sub = sub[~sub["offset"].isin(self.seen[side])]
                sub = sub.drop_duplicates("offset")
            news.append(sub)
        # pair set = new0×stored1 ∪ stored0×new1 ∪ new0×new1 — exactly the
        # pairs the row-at-a-time probe emitted, order-independent
        self._probe(news[0], self.stores[1])
        self._probe(self.stores[0], news[1])
        self._probe(news[0], news[1])
        for side in (0, 1):
            if len(news[side]) == 0:
                continue
            self.seen[side].update(map(int, news[side]["offset"]))
            st = self.stores[side]
            self.stores[side] = (news[side] if st is None
                                 else pd.concat([st, news[side]],
                                                ignore_index=True))

    def on_watermark(self, wm: int) -> list[dict]:
        out, self.pending = self.pending, []
        for side in (0, 1):
            st = self.stores[side]
            if st is None or len(st) == 0:
                continue
            # keep rows with ts + bound >= wm: a future in-order row can
            # sit EXACTLY at the bound (ts_new = wm = ts_old + bound) and
            # must still find its partner (strict > lost the boundary
            # pair when an epoch boundary fell between the two rows)
            mask = (st["event_ts"] + self.time_bound_us >= wm).to_numpy()
            if not mask.all():
                kept = st[mask].reset_index(drop=True)
                self.stores[side] = kept
                # prune the dedup set with the store: an evicted row's
                # replay either hits the late check (live runs use the
                # current watermark) or lands in an epoch the sink's
                # (partition, epoch) manifest already absorbs (resume)
                self.seen[side].intersection_update(map(int, kept["offset"]))
        return out

    def snapshot(self) -> bytes:
        return pickle.dumps({"stores": self.stores, "seen": self.seen,
                             "pending": self.pending,
                             "late_rows": self.late_rows, "rows_seen": self.rows_seen},
                            protocol=pickle.HIGHEST_PROTOCOL)

    def restore(self, blob: bytes) -> None:
        d = pickle.loads(blob)
        self.stores, self.seen, self.pending = d["stores"], d["seen"], d["pending"]
        self.late_rows, self.rows_seen = d["late_rows"], d["rows_seen"]


def make_operator(kind: str, **kw):
    """Factory used by the partition actor (kind: window|session|join)."""
    if kind == "window":
        return WindowedAggregateOp(**kw)
    if kind == "session":
        return SessionAggregateOp(**kw)
    if kind == "join":
        return SymmetricJoinOp(**kw)
    raise ValueError(kind)
