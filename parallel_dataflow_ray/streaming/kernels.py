"""Conformance kernels K1-K4 + practical aggregate specs.

The four reference passes (``passes/src/*.rs``) span four distinct
merge semantics; each graft kernel reproduces the lattice shape over
the clips stream (SURVEY.md §2.3):

- K1 ``ReachingDefs`` (∪ with gen/kill, ``passes/src/reaching_defs.rs``)
  -> ``ActiveVersions``: per-speaker set of (clip_id -> newest offset);
  a re-issued clip_id *kills* older provenance entries.
- K2 ``LiveVars`` (backward order, ``passes/src/live_vars.rs:11-13``)
  -> ``ReverseLiveWords``: fold transcript rows in DESCENDING event
  time (buffered, watermark-gated — only computable on a closed window).
- K3 ``ConstProp`` (pointwise map, conflict -> ⊤,
  ``passes/src/const_prop.rs:29-45``) -> ``MetaConstants``: per-speaker
  (field -> constant value) map; disagreeing values collapse to TOP.
- K4 ``AvailableExpr`` (∩ with explicit ⊤ init,
  ``passes/src/available_expr.rs:104-117``) -> ``CommonWords``:
  intersection of transcript word sets — a "must" aggregate whose
  result is only correct once ALL window rows arrived; the sharpest
  detector of broken watermark gating under out-of-order delivery.

Plus engine workhorses: ``ClipStats`` (vectorizable numeric aggregate)
and ``AudioEnergy`` (decodes audio bytes per window — the flagship
pipeline's compute stage).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..functions.audio import decode_clip
from ..stages.cep import FunnelSpec, KleeneSpec
from .spec import TOP, CompositeSpec, StreamOpSpec


def _fmt_window(w: tuple) -> dict:
    return {"window_start": int(w[0]), "window_end": int(w[1])}


class ActiveVersions(StreamOpSpec):
    """K1: union-set with kill — state = {clip_id: max offset}."""

    name = "active_versions"
    key_column = "speaker_id"
    value_columns = ("clip_id",)

    def initial_state(self) -> dict:
        return {}

    def merge(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for k, v in b.items():
            if k not in out or v > out[k]:
                out[k] = v
        return out

    def update_table(self, state: dict, t) -> dict:
        for cid, off in zip(t["clip_id"].to_pylist(),
                            t["offset"].to_pylist()):
            if cid not in state or off > state[cid]:
                state[cid] = off
        return state

    def finish(self, key, window, state) -> dict:
        versions = sorted(state.items())
        return {"key": key, **_fmt_window(window),
                "n_active": len(versions),
                "versions": ";".join(f"{c}@{o}" for c, o in versions)}


class FirstSeen(StreamOpSpec):
    """Streaming ingest dedup: the FIRST occurrence of each clip_id per
    (speaker, window) — the exactly-once event-dedup every large-scale
    ingest runs before anything else (the clips fixture replays a dup
    every 13 rows).  State = {clip_id: min offset}; the meet is
    element-wise MIN over disjoint partials (the order-dual of K1's
    max-kill), so partial+final merge and idempotent epoch replay are
    safe by the same semilattice argument."""

    name = "first_seen"
    key_column = "speaker_id"
    value_columns = ("clip_id",)

    def initial_state(self) -> dict:
        return {"first": {}, "n_rows": 0}

    def merge(self, a: dict, b: dict) -> dict:
        out = dict(a["first"])
        for k, v in b["first"].items():
            if k not in out or v < out[k]:
                out[k] = v
        return {"first": out, "n_rows": a["n_rows"] + b["n_rows"]}

    def update_table(self, state: dict, t) -> dict:
        f = state["first"]
        for cid, off in zip(t["clip_id"].to_pylist(),
                            t["offset"].to_pylist()):
            if cid not in f or off < f[cid]:
                f[cid] = off
        state["n_rows"] += t.num_rows
        return state

    def finish(self, key, window, state) -> dict:
        firsts = sorted(state["first"].items())
        return {"key": key, **_fmt_window(window),
                "n_unique": len(firsts),
                "n_dups": state["n_rows"] - len(firsts),
                "firsts": ";".join(f"{c}@{o}" for c, o in firsts)}


class ContentDedup(StreamOpSpec):
    """Streaming CONTENT-level ingest dedup: first occurrence of each
    distinct audio PAYLOAD per (speaker, window) — catches the re-crawl
    case ``FirstSeen`` (clip_id dedup) cannot: the same recording
    re-issued under a fresh clip_id.  Content identity = 64-bit
    blake2b of (codec, bytes) — the 2^-64-per-pair collision trade
    documented on every fingerprint path (``dedup_against_corpus``).
    State = {fp: (min offset, its clip_id)}; the meet is element-wise
    MIN over disjoint partials (FirstSeen's semilattice), so partial
    merge and idempotent epoch replay are safe by the same argument."""

    name = "content_dedup"
    key_column = "speaker_id"
    value_columns = ("bytes", "codec", "clip_id")

    def initial_state(self) -> dict:
        return {"first": {}, "n_rows": 0}

    def merge(self, a: dict, b: dict) -> dict:
        out = dict(a["first"])
        for k, v in b["first"].items():
            if k not in out or v < out[k]:
                out[k] = v
        return {"first": out, "n_rows": a["n_rows"] + b["n_rows"]}

    def update_table(self, state: dict, t) -> dict:
        """Zero-copy payload views over the Arrow binary buffer; the
        per-row work is one C blake2b call."""
        import hashlib

        import pyarrow as pa

        col = t["bytes"]
        if col.num_chunks == 0:
            return state
        ba = (col.chunk(0) if col.num_chunks == 1
              else pa.concat_arrays(col.chunks))
        bufs = ba.buffers()
        offs = np.frombuffer(bufs[1], dtype=np.int32)[
            ba.offset:ba.offset + len(ba) + 1]
        data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
        codecs = t["codec"].to_pylist()
        offsets = t["offset"].to_numpy()
        clip_ids = t["clip_id"].to_pylist()
        f = state["first"]
        for i in range(len(ba)):
            h = hashlib.blake2b(codecs[i].encode(), digest_size=8)
            h.update(b"\0")
            h.update(data[offs[i]:offs[i + 1]])
            fp = int.from_bytes(h.digest(), "little")
            v = (int(offsets[i]), clip_ids[i])
            if fp not in f or v < f[fp]:
                f[fp] = v
        state["n_rows"] += len(ba)
        return state

    def finish(self, key, window, state) -> dict:
        firsts = sorted(state["first"].items())
        return {"key": key, **_fmt_window(window),
                "n_unique_payloads": len(firsts),
                "n_content_dups": state["n_rows"] - len(firsts),
                "firsts": ";".join(f"{c}@{o}" for _, (o, c) in firsts)}


class ReverseLiveWords(StreamOpSpec):
    """K2: backward fold. Treat a transcript's first word as the "dest"
    and the rest as "args" (the LiveVars transfer shape,
    ``passes/src/live_vars.rs:24-42``): scanning rows in reverse event
    order, live = (live - {dest}) ∪ args."""

    name = "reverse_live_words"
    order = "reverse"
    incremental = False
    key_column = "speaker_id"
    value_columns = ("transcript",)

    def initial_state(self) -> set:
        return set()

    def merge(self, a: set, b: set) -> set:
        return a | b

    def update_table(self, state: set, t) -> set:
        live = set(state)
        # rows arrive already sorted descending by event_ts
        for transcript in t["transcript"].to_pylist():
            words = (transcript or "").split()
            if not words:
                continue
            dest, args = words[0], words[1:]
            live.discard(dest)
            live.update(args)
        return live

    def finish(self, key, window, state) -> dict:
        return {"key": key, **_fmt_window(window),
                "live_words": ",".join(sorted(state))}


class MetaConstants(StreamOpSpec):
    """K3: pointwise constant map with conflict-to-⊤ merge."""

    name = "meta_constants"
    key_column = "speaker_id"
    value_columns = ("codec", "sr_hz")
    fields = ("codec", "sr_hz")

    def initial_state(self) -> dict:
        return {}

    def merge(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for k, v in b.items():
            if k in out and out[k] != v:
                out[k] = TOP
            elif k not in out:
                out[k] = v
        return out

    def update_table(self, state: dict, t) -> dict:
        for f in self.fields:
            for v in dict.fromkeys(t[f].to_pylist()):  # distinct values
                if f in state and state[f] != v:
                    state[f] = TOP
                elif f not in state:
                    state[f] = v
        return state

    def finish(self, key, window, state) -> dict:
        return {"key": key, **_fmt_window(window),
                "consts": ";".join(f"{f}={'TOP' if state[f] is TOP else state[f]}"
                                   for f in sorted(state))}


class CommonWords(StreamOpSpec):
    """K4: intersection with ⊤ init (None = "no row seen yet" = Full set,
    the ``Set::Full`` of ``passes/src/available_expr.rs:104-110``).
    Emitting before the window closes would intersect a partial row set
    and produce a superset — hence strictly watermark-gated."""

    name = "common_words"
    key_column = "speaker_id"
    value_columns = ("transcript",)

    def initial_state(self):
        return None  # ⊤

    def merge(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a & b

    def update_table(self, state, t):
        for transcript in t["transcript"].to_pylist():
            words = frozenset((transcript or "").split())
            state = words if state is None else (state & words)
        return state

    def finish(self, key, window, state) -> dict:
        words = sorted(state) if state is not None else ["<TOP>"]
        return {"key": key, **_fmt_window(window),
                "common_words": ",".join(words)}


class ClipStats(StreamOpSpec):
    """Numeric windowed aggregate: count / total duration / sr mix.

    Mergeable (sum/count/max are semilattice-safe over disjoint row
    sets); the canonical "partial + final" aggregate."""

    name = "clip_stats"
    key_column = "speaker_id"
    value_columns = ("dur_ms", "sr_hz")

    def initial_state(self) -> dict:
        return {"n": 0, "dur_ms": 0, "max_sr": 0}

    def merge(self, a: dict, b: dict) -> dict:
        return {"n": a["n"] + b["n"], "dur_ms": a["dur_ms"] + b["dur_ms"],
                "max_sr": max(a["max_sr"], b["max_sr"])}

    def update_table(self, state: dict, table) -> dict:
        import pyarrow.compute as pc
        state["n"] += table.num_rows
        state["dur_ms"] += pc.sum(table["dur_ms"]).as_py() or 0
        state["max_sr"] = max(state["max_sr"], pc.max(table["sr_hz"]).as_py() or 0)
        return state

    def finish(self, key, window, state) -> dict:
        return {"key": key, **_fmt_window(window), "n_clips": state["n"],
                "total_dur_ms": state["dur_ms"], "max_sr_hz": state["max_sr"]}


class AudioEnergy(StreamOpSpec):
    """Flagship compute kernel: decode each clip's audio bytes (pcm16 /
    ulaw, numpy) and aggregate energy per (speaker, window).

    sum-of-squares / sample counts are exactly mergeable, so decoded
    PCM never needs to be retained or shuffled — only O(1) partials."""

    name = "audio_energy"
    key_column = "speaker_id"
    value_columns = ("bytes", "codec", "dur_ms")

    #: per-clip contributions are quantized to integers BEFORE summing, so
    #: the aggregate is bit-exact regardless of fold/merge order (the same
    #: trick the oracle-vs-engine float comparison would otherwise need an
    #: epsilon for).
    _Q = 1 << 20

    def initial_state(self) -> dict:
        return {"n_clips": 0, "n_samples": 0, "sumsq_q": 0, "peak_q": 0}

    def merge(self, a: dict, b: dict) -> dict:
        return {"n_clips": a["n_clips"] + b["n_clips"],
                "n_samples": a["n_samples"] + b["n_samples"],
                "sumsq_q": a["sumsq_q"] + b["sumsq_q"],
                "peak_q": max(a["peak_q"], b["peak_q"])}

    def update_table(self, state: dict, t) -> dict:
        """Zero-copy PCM views over the Arrow binary buffer (no per-row
        bytes materialization)."""
        seg = _decode_segments(t)
        if seg is None:
            return state
        offs, vals, codecs = seg
        for i, codec in enumerate(codecs):
            pcm = _pcm_of(vals[offs[i]:offs[i + 1]], codec)
            state["n_clips"] += 1
            state["n_samples"] += pcm.size
            sumsq = float(np.sum(np.square(pcm, dtype=np.float64)))
            state["sumsq_q"] += int(round(sumsq * self._Q))
            peak = float(np.max(np.abs(pcm))) if pcm.size else 0.0
            state["peak_q"] = max(state["peak_q"], int(round(peak * self._Q)))
        return state

    def finish(self, key, window, state) -> dict:
        n = state["n_samples"]
        rms_val = np.sqrt(state["sumsq_q"] / self._Q / n) if n else 0.0
        return {"key": key, **_fmt_window(window),
                "n_clips": state["n_clips"], "n_samples": n,
                "rms_milli": int(round(1000 * rms_val)),
                "peak_milli": int(round(1000 * state["peak_q"] / self._Q))}


def _decode_segments(t):
    """(offsets, values, codecs) zero-copy views over an Arrow binary col."""
    import pyarrow as pa

    col = t["bytes"]
    if col.num_chunks == 1:
        ba = col.chunk(0)
    elif col.num_chunks == 0:
        return None
    else:
        ba = pa.concat_arrays(col.chunks)
    bufs = ba.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int32)[ba.offset:ba.offset + len(ba) + 1]
    vals = np.frombuffer(bufs[2], dtype=np.uint8)
    return offs, vals, t["codec"].to_pylist()


def _pcm_of(seg: np.ndarray, codec: str) -> np.ndarray:
    if codec == "pcm16":
        return seg.view("<i2").astype(np.float32) / 32767.0
    if codec == "ulaw":
        y = seg.astype(np.float32) / 127.5 - 1.0
        return np.sign(y) * np.expm1(np.abs(y) * np.log1p(255.0)) / 255.0
    return decode_clip(seg.tobytes(), codec)


class AudioSpectral(StreamOpSpec):
    """Flagship compute kernel: framed power-spectrum features per clip,
    aggregated per (speaker, window).

    Per clip: 1024-sample frames, hop 512, Hann window, rfft -> mean
    power spectrum -> spectral centroid (Hz-normalized) + 4 log-band
    energies.  Representative of real audio featurization cost (the
    kind of per-record compute a 100 TB pipeline actually pays), and
    every per-clip contribution is integer-quantized before summation,
    so the aggregate is bit-exact under any fold/merge order.
    """

    name = "audio_spectral"
    key_column = "speaker_id"
    value_columns = ("bytes", "codec")
    _Q = 1 << 20
    _FRAME, _HOP = 1024, 128
    _N_MEL = 24

    def __init__(self):
        self._hann = np.hanning(self._FRAME).astype(np.float32)
        # triangular mel-ish filterbank over the rfft bins (built once —
        # actor-held state, the "compile in __init__" rule)
        n_bins = self._FRAME // 2 + 1
        edges = np.unique(np.geomspace(2, n_bins - 1, self._N_MEL + 2).astype(int))
        while edges.size < self._N_MEL + 2:
            edges = np.unique(np.append(edges, edges[-1] + 1))
        fb = np.zeros((self._N_MEL, n_bins))
        for m in range(self._N_MEL):
            lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
            if mid > lo:
                fb[m, lo:mid] = np.linspace(0, 1, mid - lo, endpoint=False)
            if hi > mid:
                fb[m, mid:hi] = np.linspace(1, 0, hi - mid, endpoint=False)
        self._fb = fb

    def initial_state(self) -> dict:
        return {"n_clips": 0, "n_frames": 0, "centroid_q": 0, "zcr_q": 0,
                "band_q": [0] * 4, "mel_q": [0] * self._N_MEL}

    def merge(self, a: dict, b: dict) -> dict:
        return {"n_clips": a["n_clips"] + b["n_clips"],
                "n_frames": a["n_frames"] + b["n_frames"],
                "centroid_q": a["centroid_q"] + b["centroid_q"],
                "zcr_q": a["zcr_q"] + b["zcr_q"],
                "band_q": [x + y for x, y in zip(a["band_q"], b["band_q"])],
                "mel_q": [x + y for x, y in zip(a["mel_q"], b["mel_q"])]}

    # frames per FFT chunk: the (32, 1024) f64 FFT input + (32, 513)
    # c128 output ≈ 800 KB stay L2-resident, so the spectrum is consumed
    # (psd accumulate + mel matmul) while cache-hot.  Whole-clip
    # batching streamed ~5 MB of float64/complex128 intermediates
    # through DRAM per clip, which saturated memory bandwidth long
    # before 32 cores were busy (measured: this host tops out ~64 GB/s
    # total; 8 cores already drive 50).  Arithmetic intensity, not
    # FLOPs, is what scales.  32 beats 16 on per-chunk Python overhead
    # and 64+ on cache misses (measured sweep).
    _FFT_CHUNK = 32

    def _clip_features(self, pcm: np.ndarray):
        F, H = self._FRAME, self._HOP
        if pcm.size < F:
            pcm = np.pad(pcm, (0, F - pcm.size))
        frames = np.lib.stride_tricks.sliding_window_view(pcm, F)[::H]
        n = len(frames)
        n_bins = F // 2 + 1
        psd_sum = np.zeros(n_bins)
        mel_frames = np.empty((n, self._N_MEL))
        for i in range(0, n, self._FFT_CHUNK):
            z = np.fft.rfft(frames[i:i + self._FFT_CHUNK] * self._hann,
                            axis=1)
            # |z|^2 as re^2+im^2: np.abs on complex is a hypot (sqrt)
            # that the square immediately undoes — skip the round-trip
            spec = np.square(z.real) + np.square(z.imag)
            psd_sum += spec.sum(axis=0)
            np.log1p(spec @ self._fb.T, out=mel_frames[i:i + self._FFT_CHUNK])
        psd = psd_sum / n
        total = float(psd.sum()) or 1.0
        freqs = np.arange(psd.size) / psd.size
        centroid = float((freqs * psd).sum() / total)
        edges = [0, 8, 32, 128, psd.size]
        bands = [float(psd[edges[i]:edges[i + 1]].sum() / total) for i in range(4)]
        # per-frame mel trajectory + temporal delta (the MFCC-ish shape a
        # real featurizer computes) — then clip-level summary
        mel = mel_frames.mean(axis=0)
        tot = float(mel.sum()) or 1.0
        mel = mel / tot
        if mel_frames.shape[0] > 1:
            delta = float(np.abs(np.diff(mel_frames, axis=0)).mean())
        else:
            delta = 0.0
        zcr = float(np.mean(np.abs(np.diff(np.signbit(pcm).astype(np.int8))), dtype=np.float64))
        return (len(frames), int(round(centroid * self._Q)),
                int(round((zcr + delta) * self._Q)),
                [int(round(b * self._Q)) for b in bands],
                [int(round(float(m) * self._Q)) for m in mel])

    def _fold(self, state: dict, pcm: np.ndarray) -> None:
        nf, cq, zq, bq, mq = self._clip_features(pcm)
        state["n_clips"] += 1
        state["n_frames"] += nf
        state["centroid_q"] += cq
        state["zcr_q"] += zq
        state["band_q"] = [x + y for x, y in zip(state["band_q"], bq)]
        state["mel_q"] = [x + y for x, y in zip(state["mel_q"], mq)]

    def update_table(self, state: dict, t) -> dict:
        seg = _decode_segments(t)
        if seg is None:
            return state
        offs, vals, codecs = seg
        for i, codec in enumerate(codecs):
            self._fold(state, _pcm_of(vals[offs[i]:offs[i + 1]], codec))
        return state

    def finish(self, key, window, state) -> dict:
        n = state["n_clips"] or 1
        return {"key": key, **_fmt_window(window),
                "n_clips": state["n_clips"], "n_frames": state["n_frames"],
                "centroid_milli": int(round(1000 * state["centroid_q"] / self._Q / n)),
                "zcr_milli": int(round(1000 * state["zcr_q"] / self._Q / n)),
                **{f"band{i}_milli": int(round(1000 * state["band_q"][i] / self._Q / n))
                   for i in range(4)},
                "mel_sig": ",".join(str(int(round(31 * v / self._Q / n)))
                                    for v in state["mel_q"])}


class CodecFunnel(FunnelSpec):
    """CEP pattern kernel on the clip stream: per speaker, a ``pcm16``
    clip followed by a ``ulaw`` clip within 300 ms (a codec-switch
    detector).  Registering it in KERNELS puts the buffered in-order
    automaton under the full differential matrix — in-order/ooo oracle
    parity, every partition count, kill/resume — for free."""

    name = "codec_funnel"

    def __init__(self):
        super().__init__(("pcm16", "ulaw"), gap_us=300_000,
                         key_column="speaker_id", type_column="codec")


class QuantileHist(StreamOpSpec):
    """Streaming relative-error quantile sketch per (key, window) —
    the DDSketch shape (log-γ buckets, Masson et al., VLDB 2019):
    value v lands in bucket ``ceil(ln v / ln γ)``, so reporting the
    bucket's midpoint guarantees relative error ≤ (γ-1)/(γ+1) ≈ α for
    γ = (1+α)/(1-α).

    Chosen over KLL for the STREAMING kernel deliberately: KLL's
    randomized-offset compaction depends on fold granularity, so an
    engine folding epoch batches can never bit-match a row-at-a-time
    oracle.  Bucket COUNTS are pure multiset algebra — commutative,
    associative, granularity-invariant — so the sketch is bit-exact
    under any partitioning, batching, map-side combine or replay, and
    the strict differential matrix applies unchanged.
    State is O(#distinct buckets) = O(log(vmax/vmin)/α) regardless of
    row count — the scale path for continuous domains (the batch KLL
    stage remains for driver-side mergeable artifacts)."""

    name = "quantile_hist"
    key_column = "speaker_id"
    value_columns = ("dur_ms",)
    #: γ for ~1 % relative error: (1+α)/(1-α), α = 0.01
    _GAMMA = 1.01 / 0.99
    _QS = (0.5, 0.95, 0.99)

    def __init__(self):
        self._lg = np.log(self._GAMMA)

    def initial_state(self) -> dict:
        return {}  # bucket index -> count (values are all >= 1 here)

    def merge(self, a: dict, b: dict) -> dict:
        for i, c in b.items():
            a[i] = a.get(i, 0) + c
        return a

    def _indices(self, v: np.ndarray) -> np.ndarray:
        return np.ceil(np.log(v.astype(np.float64)) / self._lg).astype(np.int64)

    def update_table(self, state: dict, t) -> dict:
        return self._ingest(state, t["dur_ms"].to_numpy(zero_copy_only=False))

    def _ingest(self, state: dict, v: np.ndarray) -> dict:
        idx, cnt = np.unique(self._indices(v), return_counts=True)
        for i, c in zip(idx, cnt):
            state[int(i)] = state.get(int(i), 0) + int(c)
        return state

    def finish(self, key, window, state: dict) -> dict | None:
        if not state:
            return None
        buckets = sorted(state.items())
        counts = np.array([c for _, c in buckets], dtype=np.int64)
        cum = np.cumsum(counts)
        n = int(cum[-1])
        out = {self.key_column: key, **_fmt_window(window), "n": n}
        for q in self._QS:
            # percentile_disc rank over the bucketed multiset
            j = int(np.searchsorted(cum, int(np.ceil(q * n)), side="left"))
            i = buckets[min(j, len(buckets) - 1)][0]
            # bucket (γ^(i-1), γ^i] midpoint 2γ^i/(γ+1); integer micro
            # units keep the emitted row hash-stable
            mid = 2.0 * (self._GAMMA ** i) / (self._GAMMA + 1.0)
            out[f"p{int(q * 100)}_micro"] = int(round(mid * 1e6))
        return out


class TopItems(StreamOpSpec):
    """Grouped streaming top-k: per (key, window) the k most frequent
    items, ties broken ascending by item — the streaming twin of the
    batch heavy-hitters / windowed-top-k stages.

    The partial state is the FULL item->count map (exact): counts over
    disjoint row sets add, so ``merge`` is a counter sum and the
    semilattice contract holds; only :meth:`finish` truncates to k,
    strictly after the last merge, which is what keeps the result
    partition- and fold-order-invariant.  Scale: the state is bounded
    by the per-(key, window) item domain, and the item stream itself
    never shuffles — only count maps do (the same partials-only shape
    as the batch heavy-hitters cut)."""

    name = "top_items"
    incremental = True

    def __init__(self, item_column: str = "event_type", k: int = 2,
                 key_column: str = "user_id", split: bool = False):
        self.item_column = item_column
        self.k = int(k)
        self.key_column = key_column
        self.split = split
        self.value_columns = (item_column,)

    def initial_state(self) -> dict:
        return {}

    def merge(self, a: dict, b: dict) -> dict:
        for w, c in b.items():
            a[w] = a.get(w, 0) + c
        return a

    def update_table(self, state: dict, t) -> dict:
        vals = t[self.item_column].to_pylist()
        if self.split:
            items, counts = np.unique(
                np.array(" ".join(v or "" for v in vals).split(),
                         dtype=object), return_counts=True)
        else:
            items, counts = np.unique(np.array(vals, dtype=object),
                                      return_counts=True)
        for w, c in zip(items, counts):
            state[w] = state.get(w, 0) + int(c)
        return state

    def finish(self, key, window, state: dict) -> dict | None:
        if not state:
            return None
        top = sorted(state.items(), key=lambda kv: (-kv[1], kv[0]))[:self.k]
        return {self.key_column: key, "window_start_us": int(window[0]),
                "top_items": ",".join(f"{w}:{c}" for w, c in top)}


class TopWords(TopItems):
    """Registry instance of :class:`TopItems` on the clip stream: per
    (speaker, window) the top-3 transcript words — a whitespace split
    per row feeds the count map.  Registration sweeps the counter-sum
    merge through the full differential matrix."""

    name = "top_words"
    key_column = "speaker_id"

    def __init__(self):
        super().__init__(item_column="transcript", k=3,
                         key_column="speaker_id", split=True)


class CodecKleene(KleeneSpec):
    """Kleene-plus CEP kernel on the clip stream: per speaker, a
    ``pcm16`` clip, then a maximal run of one-or-more consecutive
    ``ulaw`` clips, then a ``pcm16`` clip, every adjacent hop within
    2 s (a codec-flap detector — strict contiguity, so any third codec
    or a window edge breaks the run).  Registration sweeps the buffered
    run automaton through the full differential matrix for free."""

    name = "codec_kleene"

    def __init__(self):
        super().__init__("pcm16", "ulaw", "pcm16", gap_us=2_000_000,
                         key_column="speaker_id", type_column="codec")


class ClipProfile(CompositeSpec):
    """Composite registry kernel: ClipStats + QuantileHist + TopWords
    over the clip stream in ONE shuffle — three aggregates (numeric
    partial+final, log-bucket quantile sketch, exact top-k counter)
    that would otherwise cost three engine runs.  All three subs are
    incremental, so the composite is too and keeps map-side combine;
    registration sweeps the componentwise semilattice through the full
    differential matrix."""

    name = "clip_profile"
    key_column = "speaker_id"

    def __init__(self):
        super().__init__([ClipStats(), QuantileHist(), TopWords()],
                         name="clip_profile")


class VocabSketch(StreamOpSpec):
    """Streaming HyperLogLog approx-distinct per (key, window): the
    window's transcript VOCABULARY size (distinct words across every
    row) from 2^10 one-byte registers — O(1 KB) state per (key,
    window) no matter how many rows or words arrive, the mergeable
    sketch as a first-class streaming kernel (the window twin of the
    batch ``grouped_approx_distinct``).

    The meet (elementwise register MAX) is commutative, associative
    AND idempotent — re-ingesting the very same row cannot move any
    register — so this kernel exhibits the reference's replay-safety
    argument (``blog/blog.md:91-103``) in its purest form: arbitrary
    fold granularity, partial merges and replays are all
    bit-exact, which is why the strict differential matrix applies to
    an *approximate* aggregate.  The estimate is computed once in
    ``finish`` from the fully-merged registers."""

    name = "vocab_sketch"
    key_column = "speaker_id"
    value_columns = ("transcript",)
    _P = 10
    _M = 1 << 10

    def initial_state(self) -> np.ndarray:
        return np.zeros(self._M, dtype=np.uint8)

    def merge(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.maximum(a, b)

    def update_table(self, state: np.ndarray, t) -> np.ndarray:
        return self._ingest(
            state, [w for s in t["transcript"].to_pylist()
                    for w in (s or "").split()])

    def _ingest(self, state: np.ndarray, words: list[str]) -> np.ndarray:
        if not words:
            return state
        from ..functions.hashing import _stable_token_hashes
        from ..stages.sketches import _clz64

        h = _stable_token_hashes(words)
        idx = (h >> np.uint64(64 - self._P)).astype(np.int64)
        # sentinel bit below the register index caps the rank (the
        # standard HLL trick, same as stages/sketches.py::hll_registers)
        w = (h << np.uint64(self._P)) | np.uint64(1 << (self._P - 1))
        rank = (_clz64(w) + 1).astype(np.uint8)
        np.maximum.at(state, idx, rank)
        return state

    def finish(self, key, window, state: np.ndarray) -> dict | None:
        if not state.any():
            return None
        m = float(self._M)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        est = alpha * m * m / np.sum(np.ldexp(1.0, -state.astype(np.int64)))
        zeros = int(np.count_nonzero(state == 0))
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)  # linear-counting small range
        return {self.key_column: key, **_fmt_window(window),
                "vocab_est": int(round(est))}


class SampleKMV(StreamOpSpec):
    """Per-(speaker, window) deterministic bottom-k sample + KMV
    distinct estimate: keep the k rows whose stable clip_id hash is
    smallest.

    One kernel, two products: (a) a uniform-without-replacement window
    SAMPLE whose membership is a pure function of the ids — the
    streaming twin of ``stages/sampling.py``'s hash-threshold sampler —
    and (b) the k-minimum-values distinct-count estimate
    ``(k-1) / h_(k)`` (Bar-Yossef et al. 2002) read off the same state.
    The meet (set-union then keep the k smallest (hash, id) pairs) is
    commutative, associative and IDEMPOTENT — a replayed row re-inserts
    the identical pair — so, like ``VocabSketch``, the full
    differential/replay matrix applies verbatim.  O(k) state per
    (key, window) regardless of arrival count."""

    name = "sample_kmv"
    key_column = "speaker_id"
    value_columns = ("clip_id",)
    K = 8

    def initial_state(self) -> list:
        return []                      # sorted [(hash, clip_id), ...]

    def merge(self, a: list, b: list) -> list:
        return sorted(set(a) | set(b))[:self.K]

    def update_table(self, state: list, t) -> list:
        ids = t["clip_id"].to_pylist()
        if not ids:
            return state
        from ..functions.hashing import _stable_token_hashes

        h = _stable_token_hashes(ids)
        cand = set(state)
        cand.update(zip((int(x) for x in h), ids))
        return sorted(cand)[:self.K]

    def finish(self, key, window, state: list) -> dict | None:
        if not state:
            return None
        if len(state) < self.K:
            est = len(state)           # saw fewer than k distinct: exact
        else:
            hk = state[-1][0]          # k-th smallest normalized hash
            est = (int(round((self.K - 1) * float(1 << 64) / hk))
                   if hk else self.K)
        return {self.key_column: key, **_fmt_window(window),
                "sample_ids": ",".join(i for _, i in state),
                "kmv_est": est}


class CMSWatch(StreamOpSpec):
    """Per-(speaker, window) Count-Min sketch with a watchlist read-off:
    BOUNDED-state approximate frequency counting — the 100 TB complement
    to :class:`TopItems`, whose exact count map grows with the item
    domain.  State is a fixed ``depth x width`` int64 counter matrix
    (Cormode & Muthukrishnan 2005) + the exact total; every transcript
    word increments one counter per hash row, and :meth:`finish` reads
    off the min-estimate for each configured WATCH item (the
    monitoring-query shape: track known terms over an unbounded
    vocabulary at O(depth*width) memory per (key, window), forever).

    Determinism discipline: the matrix merge is an elementwise integer
    SUM — commutative/associative, so fold order and partitioning can't
    change a bit (the differential matrix sweeps it for free).  The
    classic CMS law ``true <= est <= true + 2N/width`` (w.h.p.) is
    pytest-gated with an adversarially small width; at the default
    width the fixture vocabulary is collision-free and the estimates
    are exact.  Reference analog: the per-block lattice value fold
    (`passes/src/reaching_defs.rs:38-60`) — a fixed-shape mergeable
    summary updated per row."""

    name = "cms_watch"
    key_column = "speaker_id"
    value_columns = ("transcript",)
    DEPTH = 4
    WIDTH = 1024
    # mulmod row hashes: odd multipliers, fixed for run-to-run stability
    _MULS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                      0x165667B19E3779F9, 0xD6E8FEB86659FD93],
                     dtype=np.uint64)

    def __init__(self, watch: tuple[str, ...] = ("stream", "window",
                                                 "codec", "the"),
                 item_column: str = "transcript",
                 key_column: str = "speaker_id",
                 depth: int = 4, width: int = 1024):
        self.watch = tuple(watch)
        self.item_column = item_column
        self.key_column = key_column
        self.depth = int(depth)
        self.width = int(width)
        self.value_columns = (item_column,)

    def _positions(self, items) -> np.ndarray:
        """(depth, n) column indices for each item."""
        from ..functions.hashing import _stable_token_hashes

        h = _stable_token_hashes(list(items)).astype(np.uint64)
        rows = (h[None, :] * self._MULS[:self.depth, None])
        return ((rows >> np.uint64(40)) % np.uint64(self.width)).astype(
            np.int64)

    def initial_state(self):
        return {"cms": np.zeros((self.depth, self.width), np.int64),
                "n": 0}

    def merge(self, a, b):
        a["cms"] = a["cms"] + b["cms"]
        a["n"] = a["n"] + b["n"]
        return a

    def update_table(self, state, t):
        words = " ".join(
            v or "" for v in t[self.item_column].to_pylist()).split()
        if not words:
            return state
        uniq, counts = np.unique(np.array(words, dtype=object),
                                 return_counts=True)
        pos = self._positions(uniq)
        cms = state["cms"]
        for d in range(self.depth):
            np.add.at(cms[d], pos[d], counts)
        state["n"] += len(words)
        return state

    def estimate(self, state, items) -> np.ndarray:
        pos = self._positions(items)
        ests = np.stack([state["cms"][d][pos[d]]
                         for d in range(self.depth)])
        return ests.min(axis=0)

    def finish(self, key, window, state) -> dict | None:
        if state["n"] == 0:
            return None
        est = self.estimate(state, self.watch)
        return {self.key_column: key, **_fmt_window(window),
                "n_words": int(state["n"]),
                "watch_counts": ",".join(
                    f"{w}:{int(e)}" for w, e in zip(self.watch, est))}


KERNELS: dict[str, type[StreamOpSpec]] = {
    k.name: k for k in
    (ActiveVersions, FirstSeen, ContentDedup, ReverseLiveWords,
     MetaConstants,
     CommonWords, ClipStats, AudioEnergy, AudioSpectral, CodecFunnel,
     CodecKleene, TopWords, QuantileHist, ClipProfile, VocabSketch,
     SampleKMV, CMSWatch)
}
