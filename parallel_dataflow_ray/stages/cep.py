"""Complex-event-pattern (CEP) sequence matching: k-step funnels.

The north-star names this engine a CEP engine; the canonical CEP
primitive beyond windows/joins is ordered PATTERN matching — "A then B
then C, each step within `gap` of the previous" (SQL MATCH_RECOGNIZE's
most common shape, the product-analytics funnel).  Reference analog:
the dataflow transfer function folding a basic block's instructions in
program order (``impls/src/sequential.rs:28-44``) — here the "program
order" is per-key event time and the automaton is the lattice state.

Semantics (shared by the batch operator and the streaming kernel, and
by the DuckDB oracle that gates both):

- events of one key are totally ordered by ``(ts, tiebreak_id)``;
- a row completes step ``i`` iff its type equals ``steps[i]`` and the
  latest STRICTLY-PRIOR row that completed step ``i-1`` is within
  ``gap_us`` (prior = earlier in the total order, ties excluded);
- a "funnel" is a row completing the final step; steps may interleave
  with unrelated events and one step-``i-1`` row may serve many
  step-``i`` rows (the standard running-max funnel, expressible in SQL
  as ``MAX(...) OVER (... ROWS BETWEEN UNBOUNDED PRECEDING AND 1
  PRECEDING)`` — which is what the oracle runs).

Scale notes: the batch path is one hash-bucket shuffle on the key, and
the per-bucket kernel is pandas ``groupby().cummax()/shift`` — C loops,
no per-row Python, group count per bucket unbounded.  The streaming
kernel is ``incremental = False`` (an ordered automaton cannot fold
commutatively under out-of-order arrival), so the runtime buffers rows
per (key, window) and folds once at window close — the same contract as
the reverse kernel; window size bounds the buffer.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..streaming.spec import StreamOpSpec

#: sentinel "no prior step" timestamp: any ts (>= 0) minus NEG is
#: ~2^62 us > any gap, and the subtraction cannot overflow int64.
_NEG = -(1 << 62)


def _shifted_cummax(x: np.ndarray) -> np.ndarray:
    run = np.maximum.accumulate(x)
    prior = np.empty_like(run)
    prior[0] = _NEG
    prior[1:] = run[:-1]
    return prior


def funnel_scan(ts_us: np.ndarray, etype: np.ndarray,
                steps: tuple[str, ...], gap_us: int,
                reset: str | None = None) -> np.ndarray:
    """Single-key automaton over rows ALREADY in total order.  Returns
    the boolean mask of rows that complete the final step.

    ``reset`` adds NEGATION (the other MATCH_RECOGNIZE half): a row of
    the reset type invalidates every step completion strictly before it
    — a transition only fires from a step-(i-1) row at-or-after the
    latest strictly-prior reset, so a matched pattern never spans a
    reset event."""
    qual = np.where(etype == steps[0], ts_us, _NEG)
    rst = (_shifted_cummax(np.where(etype == reset, ts_us, _NEG))
           if reset is not None else None)
    for s in steps[1:]:
        prior = _shifted_cummax(qual)
        ok = (etype == s) & (ts_us - prior <= gap_us)
        if rst is not None:
            ok &= prior >= rst
        qual = np.where(ok, ts_us, _NEG)
    return qual > _NEG


def funnel_frame(g: pd.DataFrame, key: str, ts_col: str, id_col: str,
                 type_col: str, steps: tuple[str, ...], gap_us: int,
                 reset: str | None = None) -> pd.DataFrame:
    """Many-key vectorized funnel over one bucket: the same automaton as
    :func:`funnel_scan` (incl. the ``reset`` negation), with the running
    max restarted per key via grouped ``cummax`` + grouped ``shift``
    (both C kernels — no per-key Python loop, so a bucket with millions
    of keys costs one pass)."""
    g = g.sort_values([key, ts_col, id_col], kind="mergesort")
    uid = g[key].to_numpy()
    ts = g[ts_col].to_numpy()
    et = g[type_col].to_numpy()

    def shifted_grouped_cummax(x: np.ndarray) -> np.ndarray:
        ser = pd.Series(x)
        return (ser.groupby(uid, sort=False).cummax()
                .groupby(uid, sort=False).shift(1, fill_value=_NEG)
                .to_numpy())

    qual = np.where(et == steps[0], ts, _NEG)
    rst = (shifted_grouped_cummax(np.where(et == reset, ts, _NEG))
           if reset is not None else None)
    for s in steps[1:]:
        prior = shifted_grouped_cummax(qual)
        ok = (et == s) & (ts - prior <= gap_us)
        if rst is not None:
            ok &= prior >= rst
        qual = np.where(ok, ts, _NEG)
    done = qual > _NEG
    d = pd.DataFrame({key: uid[done], "__ts": ts[done]})
    out = d.groupby(key, as_index=False).agg(
        n_funnels=("__ts", "size"), first_funnel_us=("__ts", "min"))
    out["n_funnels"] = out["n_funnels"].astype("int64")
    return out


def funnel_match(ds: rd.Dataset, key: str, ts_col: str, id_col: str,
                 type_col: str, steps: tuple[str, ...], gap_us: int,
                 num_buckets: int = 64, reset: str | None = None
                 ) -> rd.Dataset:
    """Batch funnel: one hash-bucket shuffle on ``key`` co-locates each
    key's events, then the vectorized per-bucket automaton.  Emits one
    row per key with >= 1 completed funnel: (key, n_funnels,
    first_funnel_us)."""
    from .relational import bucketed_groupby

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return funnel_frame(g, key, ts_col, id_col, type_col, steps,
                            gap_us, reset=reset)

    return bucketed_groupby(ds, [key], per_bucket, num_buckets=num_buckets)


def kleene_frame(g: pd.DataFrame, key: str, ts_col: str, id_col: str,
                 type_col: str, pre: str, mid: str, post: str,
                 gap_us: int) -> pd.DataFrame:
    """Kleene-plus STRICT-CONTIGUITY pattern over one bucket:
    ``pre mid+ post`` — a maximal run of consecutive ``mid`` rows
    (length >= 1) in the key's total event order whose immediately
    preceding row is ``pre``, whose immediately following row is
    ``post``, and where EVERY adjacent pair in the matched span is
    within ``gap_us``.  This is MATCH_RECOGNIZE's other quantifier
    half: the funnel is skip-till-next-match; this is ``A B+ C`` under
    strict contiguity (any other event type breaks the run).

    Fully vectorized: run boundaries from shifted masks, the per-span
    "all adjacent gaps ok" predicate from one prefix sum over the bad
    adjacent-gap mask (no reduceat edge cases, no per-run loop).
    Emits one row per key with >= 1 match: (key, n_matches, n_mid =
    total mid rows across matches, first_match_us = earliest match-end
    timestamp)."""
    g = g.sort_values([key, ts_col, id_col], kind="mergesort")
    uid = g[key].to_numpy()
    ts = g[ts_col].to_numpy().astype(np.int64, copy=False)
    et = g[type_col].to_numpy()
    n = len(g)
    empty = pd.DataFrame({key: pd.Series(dtype=g[key].dtype),
                          "n_matches": pd.Series(dtype="int64"),
                          "n_mid": pd.Series(dtype="int64"),
                          "first_match_us": pd.Series(dtype="int64")})
    if n == 0:
        return empty
    same_prev = np.empty(n, bool)
    same_prev[0] = False
    same_prev[1:] = uid[1:] == uid[:-1]
    same_next = np.empty(n, bool)
    same_next[-1] = False
    same_next[:-1] = same_prev[1:]
    is_b = et == mid
    prev_b = np.empty(n, bool)
    prev_b[0] = False
    prev_b[1:] = is_b[:-1]
    prev_b &= same_prev
    next_b = np.empty(n, bool)
    next_b[-1] = False
    next_b[:-1] = is_b[1:]
    next_b &= same_next
    s_idx = np.nonzero(is_b & ~prev_b)[0]   # run starts (aligned with
    e_idx = np.nonzero(is_b & ~next_b)[0]   # run ends, same count)
    if s_idx.size == 0:
        return empty
    d = np.empty(n, np.int64)
    d[0] = 0
    d[1:] = ts[1:] - ts[:-1]
    # span [s-1 .. e+1] is all-same-key once the boundary checks pass,
    # so "every adjacent pair ok" == zero bad entries among d[s..e+1].
    bad = np.cumsum((d > gap_us) | ~same_prev)
    sp = np.maximum(s_idx - 1, 0)
    ep = np.minimum(e_idx + 1, n - 1)
    ok = same_prev[s_idx] & same_next[e_idx]
    ok &= (et[sp] == pre) & (et[ep] == post)
    ok &= (bad[ep] - bad[sp]) == 0
    if not ok.any():
        return empty
    out = pd.DataFrame({key: uid[s_idx[ok]],
                        "__nb": (e_idx - s_idx + 1)[ok],
                        "__end": ts[ep[ok]]})
    res = out.groupby(key, as_index=False).agg(
        n_matches=("__nb", "size"), n_mid=("__nb", "sum"),
        first_match_us=("__end", "min"))
    return res.astype({"n_matches": "int64", "n_mid": "int64",
                       "first_match_us": "int64"})


def kleene_match(ds: rd.Dataset, key: str, ts_col: str, id_col: str,
                 type_col: str, pre: str, mid: str, post: str,
                 gap_us: int, num_buckets: int = 64) -> rd.Dataset:
    """Batch Kleene-plus pattern: one hash-bucket shuffle on ``key``
    co-locates each key's events, then the vectorized per-bucket run
    automaton (:func:`kleene_frame`)."""
    from .relational import bucketed_groupby

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return kleene_frame(g, key, ts_col, id_col, type_col,
                            pre, mid, post, gap_us)

    return bucketed_groupby(ds, [key], per_bucket, num_buckets=num_buckets)


class FunnelSpec(StreamOpSpec):
    """Streaming funnel kernel: per (key, window) pattern automaton.

    ``incremental = False`` — the engine keeps Arrow copies of each
    window's rows and calls :meth:`update_table` exactly once per
    closed window with the rows deduped by ``offset`` (so at-least-once
    re-delivery is absorbed) and in ``(event_ts, offset)`` order, with
    int64 ``event_ts``; that total order is what makes the automaton
    deterministic and replay-safe, mirroring the reference's in-order
    transfer fold (``impls/src/sequential.rs:28-44``).  A pattern
    cannot span windows (each window folds independently — the
    documented CEP windowing semantics, same as the SQL oracle's
    PARTITION BY (key, window))."""

    name = "funnel"
    incremental = False
    order = "forward"

    def __init__(self, steps: tuple[str, ...], gap_us: int,
                 key_column: str = "user_id", type_column: str = "event_type",
                 reset: str | None = None):
        self.steps = tuple(steps)
        self.gap_us = int(gap_us)
        self.key_column = key_column
        self.type_column = type_column
        self.reset = reset
        self.value_columns = (type_column,)

    def initial_state(self):
        return {}

    def update_table(self, state, t):
        ts = t["event_ts"].to_numpy()
        et = t[self.type_column].to_numpy(zero_copy_only=False)
        done = funnel_scan(ts, et, self.steps, self.gap_us,
                           reset=self.reset)
        n = int(done.sum())
        return {"n": n, "first": int(ts[done].min()) if n else None}

    def finish(self, key, window, state):
        if not state["n"]:
            return None  # no match
        return {self.key_column: key, "window_start_us": int(window[0]),
                "n_funnels": state["n"], "first_funnel_us": state["first"]}


class KleeneSpec(StreamOpSpec):
    """Streaming Kleene-plus kernel: per (key, window) strict-contiguity
    ``pre mid+ post`` matching — the same run automaton as
    :func:`kleene_frame`, folded by one :meth:`update_table` call per
    closed window over the engine's offset-deduped buffer in
    ``(event_ts, offset)`` order (``incremental = False``, the
    buffered-fold contract shared with :class:`FunnelSpec`).  A run
    never spans windows; the SQL twin partitions by (key, window)
    identically."""

    name = "kleene"
    incremental = False
    order = "forward"

    def __init__(self, pre: str, mid: str, post: str, gap_us: int,
                 key_column: str = "user_id", type_column: str = "event_type"):
        self.pre, self.mid, self.post = pre, mid, post
        self.gap_us = int(gap_us)
        self.key_column = key_column
        self.type_column = type_column
        self.value_columns = (type_column,)

    def initial_state(self):
        return {}

    def update_table(self, state, t):
        n = t.num_rows
        ts = t["event_ts"].to_numpy()
        et = t[self.type_column].to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"__k": np.zeros(n, np.int64), "__ts": ts,
                          "__id": np.arange(n, dtype=np.int64), "__et": et})
        res = kleene_frame(g, "__k", "__ts", "__id", "__et",
                           self.pre, self.mid, self.post, self.gap_us)
        if res.empty:
            return {"n": 0}
        r = res.iloc[0]
        return {"n": int(r["n_matches"]), "n_mid": int(r["n_mid"]),
                "first": int(r["first_match_us"])}

    def finish(self, key, window, state):
        if not state["n"]:
            return None
        return {self.key_column: key, "window_start_us": int(window[0]),
                "n_matches": state["n"], "n_mid": state["n_mid"],
                "first_match_us": state["first"]}
