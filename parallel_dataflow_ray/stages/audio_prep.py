"""Audio preprocessing stages: resample, VAD / silence trim, loudness
normalization, fixed-window chunking, and the ``curate_clips``
composition — the audio half of a training-data curation pipeline.

All kernels are **flat-vectorized**: a batch of variable-length clips is
decoded into ONE contiguous float32 array plus per-clip offsets, and
every transform is a single numpy pass over that flat stream
(``np.add.reduceat`` for framed energies, gather+lerp for resampling,
``np.repeat`` for per-clip broadcasts).  No per-sample or per-frame
Python — the only row-level loops left are memcpy-bound byte slicing
when re-encoding output clips.

Scale notes (100 TB): every stage here is a stateless or actor-pool
``map_batches`` over the clip stream — no shuffle, no materialization;
decoded PCM lives only inside the batch call (a 100 TB stream of clips
must not become 200 TB of floats in the object store).  Output clips
are re-encoded pcm16 before leaving the stage.  ``curate_clips``'s only
shuffle is the transcript-fingerprint exact-dedup (hash partitioning on
a 64-bit fingerprint — identical shape to ``exact_dedup`` on docs).

Reference analog: the per-instruction transfer functions
(``passes/src/*.rs``) are pure local transforms fused into one pass over
a block; these kernels are the payload-axis equivalent — pure local DSP
fused into one pass over a batch (design provenance, not a port).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions.audio import (
    bytes_per_sample,
    decode_clip,
    encode_pcm16,
)

# ---------------------------------------------------------------------------
# flat batch codec: list-of-clips <-> (flat float32, lens, offsets)
# ---------------------------------------------------------------------------


def decode_flat(bts: list[bytes], codecs: list[str]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a whole batch into one flat float32 array.

    Returns ``(flat, lens, off)`` with ``flat[off[i]:off[i]+lens[i]]``
    = clip *i*'s PCM.  Both supported codecs are sample-wise maps, so
    all same-codec clips are decoded with ONE ``frombuffer`` over their
    joined bytes; the scatter back into row order is a memcpy loop.
    """
    n = len(bts)
    lens = np.fromiter(
        (len(b) // bytes_per_sample(c) for b, c in zip(bts, codecs)),
        dtype=np.int64, count=n)
    off = np.concatenate(([0], np.cumsum(lens)))
    flat = np.empty(int(off[-1]), dtype=np.float32)
    by_codec: dict[str, list[int]] = {}
    for i, c in enumerate(codecs):
        by_codec.setdefault(c, []).append(i)
    for c, idxs in by_codec.items():
        dec = decode_clip(b"".join(bts[i] for i in idxs), c)
        p = 0
        for i in idxs:
            ln = int(lens[i])
            flat[off[i]:off[i] + ln] = dec[p:p + ln]
            p += ln
    return flat, lens, off[:-1]


def encode_pcm16_slices(flat: np.ndarray, starts: np.ndarray,
                        counts: np.ndarray) -> list[bytes]:
    """Re-encode arbitrary [start, start+count) slices of a flat PCM
    stream as pcm16 byte strings: ONE quantization pass over the whole
    stream, then memcpy-bound byte slicing per output clip."""
    buf = encode_pcm16(flat)
    view = memoryview(buf)
    return [bytes(view[2 * int(s): 2 * (int(s) + int(c))])
            for s, c in zip(starts, counts)]


# ---------------------------------------------------------------------------
# kernels over the flat stream (all one-shot numpy)
# ---------------------------------------------------------------------------


def resample_flat(flat: np.ndarray, lens: np.ndarray, off: np.ndarray,
                  sr_in: np.ndarray, sr_out: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Linear-interpolation resample of every clip to ``sr_out``.

    Output sample *j* of clip *i* is taken at source position
    ``j * sr_in[i] / sr_out`` (time-aligned at t = j/sr_out, the
    standard polyphase-free linear resampler).  Output length is the
    round-half-up of ``n * sr_out / sr_in`` so a clip's duration is
    preserved to within half an output sample.  Entirely vectorized:
    one gather + lerp over the concatenated batch.
    """
    sr_in = sr_in.astype(np.int64)
    m = (lens * sr_out + sr_in // 2) // sr_in  # rounded integer division
    m = np.where(lens > 0, np.maximum(m, 1), 0)
    out_total = int(m.sum())
    if out_total == 0:
        return np.empty(0, np.float32), m
    out_off = np.cumsum(m) - m
    j = np.arange(out_total, dtype=np.int64) - np.repeat(out_off, m)
    ratio = np.repeat(sr_in.astype(np.float64) / float(sr_out), m)
    last = np.repeat(np.maximum(lens - 1, 0), m)  # clamp inside each clip
    p = np.minimum(j * ratio, last.astype(np.float64))
    gp = p + np.repeat(off, m)
    k = np.floor(gp).astype(np.int64)
    frac = (gp - k).astype(np.float32)
    k2 = np.minimum(k + 1, np.repeat(off + np.maximum(lens - 1, 0), m))
    out = flat[k] * (1.0 - frac) + flat[k2] * frac
    return out.astype(np.float32, copy=False), m


def frame_starts(lens: np.ndarray, off: np.ndarray, frame_len: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-clip framing of the flat stream.

    Returns ``(starts, n_frames, flens)``: global start index of every
    frame, frames per clip, and each frame's actual length (the last
    frame of a clip may be short).  ``frame_len`` is per-clip (frames
    are fixed *milliseconds*, so sample counts differ across sr_hz).
    """
    frame_len = np.maximum(frame_len.astype(np.int64), 1)
    nf = np.where(lens > 0, -(-lens // frame_len), 0)  # ceil-div
    total = int(nf.sum())
    if total == 0:
        z = np.zeros(0, np.int64)
        return z, nf, z
    foff = np.cumsum(nf) - nf
    j = np.arange(total, dtype=np.int64) - np.repeat(foff, nf)
    starts = np.repeat(off, nf) + j * np.repeat(frame_len, nf)
    ends = np.minimum(starts + np.repeat(frame_len, nf),
                      np.repeat(off + lens, nf))
    return starts, nf, ends - starts


def frame_rms(flat: np.ndarray, starts: np.ndarray, flens: np.ndarray
              ) -> np.ndarray:
    """RMS of every frame: one ``np.add.reduceat`` over the squared
    stream (frame starts always include every clip's first sample, so
    no frame ever bleeds across a clip boundary)."""
    if starts.size == 0:
        return np.zeros(0, np.float64)
    sq = np.square(flat, dtype=np.float64)
    e = np.add.reduceat(sq, starts)
    # reduceat's last segment runs to the end of `flat`; frames are
    # contiguous per construction so only trailing samples after the
    # final frame could leak — there are none (frames tile each clip).
    return np.sqrt(e / np.maximum(flens, 1))


def vad_segments(mask: np.ndarray, nf: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of speech frames per clip.

    ``mask`` is the per-frame speech decision (frames ordered clip by
    clip), ``nf`` frames-per-clip.  Returns ``(clip_idx, seg_start_f,
    seg_end_f)`` with frame indices local to the clip and ``end``
    exclusive.  Vectorized boundary detection: a run starts where mask
    rises OR a clip boundary cuts a run.
    """
    total = mask.size
    if total == 0:
        z = np.zeros(0, np.int64)
        return z, z, z
    clip_of = np.repeat(np.arange(nf.size, dtype=np.int64), nf)
    prev = np.concatenate(([False], mask[:-1]))
    prev_clip = np.concatenate(([-1], clip_of[:-1]))
    new_clip = clip_of != prev_clip
    start = mask & (~prev | new_clip)
    nxt = np.concatenate((mask[1:], [False]))
    nxt_clip = np.concatenate((clip_of[1:], [-2]))
    end = mask & (~nxt | (nxt_clip != clip_of))
    s_idx = np.flatnonzero(start)
    e_idx = np.flatnonzero(end)
    foff = np.cumsum(nf) - nf
    ci = clip_of[s_idx]
    return ci, s_idx - foff[ci], e_idx - foff[ci] + 1


def per_clip_rms(flat: np.ndarray, lens: np.ndarray, off: np.ndarray
                 ) -> np.ndarray:
    """RMS of every clip in one reduceat pass (0.0 for empty clips)."""
    out = np.zeros(lens.size, np.float64)
    nz = lens > 0
    if flat.size:
        sq = np.square(flat, dtype=np.float64)
        # reduceat needs strictly valid indices; restrict to non-empty
        e = np.add.reduceat(sq, off[nz]) if nz.any() else np.zeros(0)
        out[nz] = np.sqrt(e / lens[nz])
    return out


def per_clip_peak(flat: np.ndarray, lens: np.ndarray, off: np.ndarray
                  ) -> np.ndarray:
    out = np.zeros(lens.size, np.float64)
    nz = lens > 0
    if flat.size and nz.any():
        out[nz] = np.maximum.reduceat(np.abs(flat, dtype=np.float64), off[nz])
    return out


def gain_normalize_flat(flat: np.ndarray, lens: np.ndarray, off: np.ndarray,
                        target_rms: float = 0.1, peak_limit: float = 0.99
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-clip loudness normalization: scale each clip to
    ``target_rms``, capping the gain so the peak never exceeds
    ``peak_limit`` (no clipping introduced).  Returns the scaled stream
    and the applied per-clip gains."""
    r = per_clip_rms(flat, lens, off)
    p = per_clip_peak(flat, lens, off)
    gain = np.where(r > 0, target_rms / np.maximum(r, 1e-12), 1.0)
    cap = np.where(p > 0, peak_limit / np.maximum(p, 1e-12), np.inf)
    gain = np.minimum(gain, cap)
    return (flat * np.repeat(gain, lens).astype(np.float32)), gain


def chunk_plan(lens: np.ndarray, chunk_len: np.ndarray, hop_len: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-window chunking plan: chunk *k* of clip *i* covers samples
    ``[k*hop, min(k*hop + chunk, n))``.  Chunks are emitted while their
    start is inside the clip and they contribute at least one new
    sample: ``n_chunks = max(1, ceil((n - chunk) / hop) + 1)`` for
    n > 0.  Returns ``(clip_idx, chunk_start_local, chunk_count)`` per
    output chunk, all vectorized."""
    chunk_len = np.maximum(chunk_len.astype(np.int64), 1)
    hop_len = np.maximum(hop_len.astype(np.int64), 1)
    extra = np.maximum(lens - chunk_len, 0)
    nch = np.where(lens > 0, -(-extra // hop_len) + 1, 0)
    total = int(nch.sum())
    if total == 0:
        z = np.zeros(0, np.int64)
        return z, z, z
    coff = np.cumsum(nch) - nch
    k = np.arange(total, dtype=np.int64) - np.repeat(coff, nch)
    ci = np.repeat(np.arange(lens.size, dtype=np.int64), nch)
    start = k * np.repeat(hop_len, nch)
    cnt = np.minimum(start + np.repeat(chunk_len, nch),
                     np.repeat(lens, nch)) - start
    return ci, start, cnt


# ---------------------------------------------------------------------------
# Ray Data stages
# ---------------------------------------------------------------------------


class ResampleStage:
    """Actor-pool stage: decode -> (optional loudness normalize) ->
    linear resample to ``sr_out`` -> re-encode pcm16.

    Output rows keep the input's id/metadata columns, with ``bytes``
    replaced by the resampled pcm16 payload, ``sr_hz`` = ``sr_out``,
    ``codec`` = 'pcm16' and an added ``n_samples`` column.
    """

    def __init__(self, sr_out: int = 16000, *, target_rms: float | None = None,
                 quantize: int = 1 << 20):
        self.sr_out = int(sr_out)
        self.target_rms = target_rms
        self.q = quantize

    def __call__(self, t: pa.Table) -> pa.Table:
        bts = t["bytes"].to_pylist()
        codecs = t["codec"].to_pylist()
        flat, lens, off = decode_flat(bts, codecs)
        if self.target_rms is not None:
            flat, _ = gain_normalize_flat(flat, lens, off,
                                          target_rms=self.target_rms)
        sr_in = t["sr_hz"].to_numpy().astype(np.int64)
        out, m = resample_flat(flat, lens, off, sr_in, self.sr_out)
        out_off = np.cumsum(m) - m
        payload = encode_pcm16_slices(out, out_off, m)
        rms_q = np.rint(per_clip_rms(out, m, out_off) * self.q).astype(np.int64)
        cols = {name: t[name] for name in t.schema.names}
        cols["bytes"] = pa.array(payload, type=pa.binary())
        cols["sr_hz"] = pa.array(np.full(len(bts), self.sr_out, np.int32))
        cols["codec"] = pa.array(["pcm16"] * len(bts))
        res = pa.table(cols)
        res = res.append_column("n_samples", pa.array(m))
        return res.append_column("rms_q20", pa.array(rms_q))


class VadSegmentStage:
    """Frame-energy VAD: emit one row per maximal speech segment.

    Output: (clip_id, seg_idx, start_ms, end_ms, seg_rms_q20).  Frames
    are ``frame_ms`` long; a frame is speech iff its RMS >= ``thresh``.
    Row explosion (0..k rows per clip) — the flat_map shape — done as a
    single vectorized map_batches.
    """

    def __init__(self, frame_ms: int = 20, thresh: float = 0.02,
                 quantize: int = 1 << 20):
        self.frame_ms = int(frame_ms)
        self.thresh = float(thresh)
        self.q = quantize

    def __call__(self, t: pa.Table) -> pa.Table:
        bts = t["bytes"].to_pylist()
        codecs = t["codec"].to_pylist()
        flat, lens, off = decode_flat(bts, codecs)
        sr = t["sr_hz"].to_numpy().astype(np.int64)
        flen = sr * self.frame_ms // 1000
        starts, nf, flens = frame_starts(lens, off, flen)
        fr = frame_rms(flat, starts, flens)
        ci, s_f, e_f = vad_segments(fr >= self.thresh, nf)
        ids = np.asarray(t["clip_id"].to_pylist(), dtype=object)
        seg_idx = np.arange(ci.size, dtype=np.int64)
        if ci.size:
            # seg_idx local to clip: subtract each clip's first seg index
            first = np.concatenate(([0], np.flatnonzero(np.diff(ci)) + 1))
            seg_idx = seg_idx - np.repeat(seg_idx[first],
                                          np.diff(np.concatenate((first, [ci.size]))))
        # segment RMS: energy between frame boundaries (exact, from sq sums)
        seg_rms = np.zeros(ci.size, np.float64)
        if ci.size:
            foff = np.cumsum(nf) - nf
            gs = starts[foff[ci] + s_f]
            ge_frame = foff[ci] + e_f - 1
            ge = starts[ge_frame] + flens[ge_frame]
            sq = np.square(flat, dtype=np.float64)
            cs = np.concatenate(([0.0], np.cumsum(sq)))
            seg_rms = np.sqrt((cs[ge] - cs[gs]) / np.maximum(ge - gs, 1))
        return pa.table({
            "clip_id": pa.array(ids[ci].tolist() if ci.size else [],
                                type=pa.string()),
            "seg_idx": pa.array(seg_idx),
            "start_ms": pa.array(s_f * self.frame_ms),
            "end_ms": pa.array(e_f * self.frame_ms),
            "seg_rms_q20": pa.array(np.rint(seg_rms * self.q).astype(np.int64)),
        })


class TrimSilenceStage:
    """Trim leading/trailing sub-threshold frames from every clip and
    re-encode pcm16.  Clips that are entirely silence become empty
    (n_samples == 0) — downstream filters drop them explicitly."""

    def __init__(self, frame_ms: int = 20, thresh: float = 0.02):
        self.frame_ms = int(frame_ms)
        self.thresh = float(thresh)

    def __call__(self, t: pa.Table) -> pa.Table:
        bts = t["bytes"].to_pylist()
        codecs = t["codec"].to_pylist()
        flat, lens, off = decode_flat(bts, codecs)
        sr = t["sr_hz"].to_numpy().astype(np.int64)
        flen = np.maximum(sr * self.frame_ms // 1000, 1)
        starts, nf, flens = frame_starts(lens, off, flen)
        fr = frame_rms(flat, starts, flens)
        ci, s_f, e_f = vad_segments(fr >= self.thresh, nf)
        n = len(bts)
        first_f = np.zeros(n, np.int64)
        last_f = np.zeros(n, np.int64)  # exclusive, 0 => all silence
        if ci.size:
            firsts = np.concatenate(([0], np.flatnonzero(np.diff(ci)) + 1))
            lasts = np.concatenate((firsts[1:] - 1, [ci.size - 1]))
            first_f[ci[firsts]] = s_f[firsts]
            last_f[ci[lasts]] = e_f[lasts]
        t_start = np.minimum(first_f * flen, lens)
        t_end = np.minimum(last_f * flen, lens)
        cnt = np.maximum(t_end - t_start, 0)
        payload = encode_pcm16_slices(flat, off + t_start, cnt)
        cols = {name: t[name] for name in t.schema.names}
        cols["bytes"] = pa.array(payload, type=pa.binary())
        cols["codec"] = pa.array(["pcm16"] * n)
        res = pa.table(cols)
        res = res.append_column("n_samples", pa.array(cnt))
        res = res.append_column("trim_start_ms",
                                pa.array(t_start * 1000 // np.maximum(sr, 1)))
        return res


class ChunkStage:
    """Split every clip into fixed-duration windows with overlap —
    the audio analog of training-sequence packing.  Emits one row per
    chunk with real pcm16 payload bytes."""

    def __init__(self, chunk_ms: int = 250, hop_ms: int = 200):
        self.chunk_ms = int(chunk_ms)
        self.hop_ms = int(hop_ms)

    def __call__(self, t: pa.Table) -> pa.Table:
        bts = t["bytes"].to_pylist()
        codecs = t["codec"].to_pylist()
        flat, lens, off = decode_flat(bts, codecs)
        sr = t["sr_hz"].to_numpy().astype(np.int64)
        ci, start, cnt = chunk_plan(lens, sr * self.chunk_ms // 1000,
                                    sr * self.hop_ms // 1000)
        payload = encode_pcm16_slices(flat, off[ci] + start, cnt)
        ids = np.asarray(t["clip_id"].to_pylist(), dtype=object)
        chunk_idx = np.arange(ci.size, dtype=np.int64)
        if ci.size:
            first = np.concatenate(([0], np.flatnonzero(np.diff(ci)) + 1))
            chunk_idx = chunk_idx - np.repeat(
                chunk_idx[first],
                np.diff(np.concatenate((first, [ci.size]))))
        sr_of = sr[ci] if ci.size else np.zeros(0, np.int64)
        return pa.table({
            "clip_id": pa.array(ids[ci].tolist() if ci.size else [],
                                type=pa.string()),
            "chunk_idx": pa.array(chunk_idx),
            "start_ms": pa.array(np.where(sr_of > 0,
                                          start * 1000 // np.maximum(sr_of, 1),
                                          0)),
            "n_samples": pa.array(cnt),
            "sr_hz": pa.array(sr_of.astype(np.int32)),
            "bytes": pa.array(payload, type=pa.binary()),
        })


class ClipQualityStage:
    """Per-clip curation features in one decode pass: rms, peak,
    clipping ratio (|x| >= 0.999), duration, speech rate
    (transcript words per second).  Emits metadata only — payload
    bytes pass through untouched so a downstream stage can still use
    them (column is NOT dropped here)."""

    def __init__(self, quantize: int = 1 << 20):
        self.q = quantize

    def __call__(self, t: pa.Table) -> pa.Table:
        bts = t["bytes"].to_pylist()
        codecs = t["codec"].to_pylist()
        flat, lens, off = decode_flat(bts, codecs)
        r = per_clip_rms(flat, lens, off)
        p = per_clip_peak(flat, lens, off)
        clip_ct = np.zeros(lens.size, np.int64)
        if flat.size and (lens > 0).any():
            hits = (np.abs(flat) >= 0.999).astype(np.int64)
            clip_ct[lens > 0] = np.add.reduceat(hits, off[lens > 0])
        dur = t["dur_ms"].to_numpy().astype(np.float64)
        words = pa.compute.count_substring(
            t["transcript"], " ").to_numpy().astype(np.int64) + 1
        wps = np.where(dur > 0, words / (dur / 1000.0), 0.0)
        res = t
        res = res.append_column("rms_q20",
                                pa.array(np.rint(r * self.q).astype(np.int64)))
        res = res.append_column("peak_q20",
                                pa.array(np.rint(p * self.q).astype(np.int64)))
        res = res.append_column("clip_ratio_q20", pa.array(
            np.rint(np.where(lens > 0, clip_ct / np.maximum(lens, 1), 0.0)
                    * self.q).astype(np.int64)))
        res = res.append_column("n_words", pa.array(words))
        res = res.append_column("wps_q10", pa.array(
            np.rint(wps * 1024).astype(np.int64)))
        return res


def stretch_to_fixed(flat: np.ndarray, lens: np.ndarray, off: np.ndarray,
                     m: int) -> np.ndarray:
    """Time-normalize every clip to exactly ``m`` samples (endpoint-
    aligned linear interpolation): clip i's sample j is taken at source
    position ``j * (n_i - 1) / (m - 1)``.  One gather+lerp over the
    batch; returns shape ``(n_clips, m)``.  The same continuous signal
    sampled at different rates stretches to (nearly) the same vector —
    the sample-rate-invariance that the fingerprint builds on."""
    n = lens.size
    if n == 0:
        return np.zeros((0, m), np.float32)
    scale = np.maximum(lens - 1, 0).astype(np.float64) / max(m - 1, 1)
    j = np.tile(np.arange(m, dtype=np.float64), n)
    p = j * np.repeat(scale, m) + np.repeat(off, m)
    k = np.floor(p).astype(np.int64)
    frac = (p - k).astype(np.float32)
    hi = np.repeat(off + np.maximum(lens - 1, 0), m)
    k = np.minimum(k, hi)
    k2 = np.minimum(k + 1, hi)
    out = flat[k] * (1.0 - frac) + flat[k2] * frac
    return out.reshape(n, m)


_FP_NFFT = 1 << 16       # fixed zero-padded FFT length (clips truncate)
_FP_BANDS = 64           # 64 log-spaced bands -> 64 membership bits
_FP_LO_HZ, _FP_HI_HZ = 50.0, 3400.0   # telephony band: below every
                                      # supported rate's Nyquist
_FP_TOPK = 6             # bit b = 1 iff band b is among the top-6
_FP_ROWS = 64            # FFT row-chunk: bounds the (rows, 65536) temp


def audio_fingerprint64(flat: np.ndarray, lens: np.ndarray, off: np.ndarray,
                        sr_hz: np.ndarray) -> np.ndarray:
    """64-bit spectral-peak fingerprint per clip, invariant to gain and
    robust to codec requantization and sample-rate conversion.

    Every clip is zero-padded (or truncated) to a fixed 65536-sample
    FFT; energies are summed over 64 log-spaced ABSOLUTE-frequency
    bands (50 Hz .. 3.4 kHz — inside every supported rate's Nyquist)
    with the Hz->bin map computed per sample rate, so the same
    recording carried at 8 / 16 / 44.1 kHz lands in the same bands.
    Bit b = 1 iff band b is among the clip's top-6 bands by energy —
    top-k *membership* (rank structure) rather than adjacent-band
    deltas, because ranks of the spectral peaks survive a -35 dB mu-law
    noise floor or a resample's aliased noise, while near-tie
    comparisons between noise-dominated bands are coin flips (measured:
    gain 0, mu-law <= 2, 2x decimation <= 2 flips on the fixture
    corpus; unrelated clips differ by >= 4).  Exactly 6 bits are ALWAYS
    set (energy ties broken deterministically toward the lower band
    index — a degenerate all-zero clip fingerprints as bands 0-5), so
    the hamming distance between any two fingerprints is even and the
    sparse 5-of-6 subset LSH (``stages.dedup.hamming_pairs`` with
    ``scheme="sparse_topk"``) is EXACT for ``max_hamming <= 3``."""
    n = lens.size
    if n == 0:
        return np.zeros(0, np.uint64)
    return _topk_bits(band_energies(flat, lens, off, sr_hz))


def _topk_bits(E: np.ndarray) -> np.ndarray:
    """(n, 64) energies -> uint64 with EXACTLY the top-``_FP_TOPK``
    bands' bits set; ties broken toward the lower band index (stable
    sort), so the popcount is constant by construction."""
    idx = np.argsort(-E, axis=1, kind="stable")[:, :_FP_TOPK]
    return np.bitwise_or.reduce(
        np.uint64(1) << idx.astype(np.uint64), axis=1)


def band_energies(flat: np.ndarray, lens: np.ndarray, off: np.ndarray,
                  sr_hz: np.ndarray) -> np.ndarray:
    """``(n, 64)`` absolute-Hz band-energy matrix — the shared spectral
    front end of the fingerprint (top-k membership bits) and the verify
    profile (log-compressed cosine).  One batched FFT per _FP_ROWS-row
    chunk; the Hz->bin map is computed per sample rate so the same
    recording carried at 8 / 16 / 44.1 kHz lands in the same bands."""
    n = lens.size
    E = np.zeros((n, _FP_BANDS), np.float32)
    if n == 0:
        return E
    hz_edges = np.geomspace(_FP_LO_HZ, _FP_HI_HZ, _FP_BANDS + 1)
    sr_hz = sr_hz.astype(np.int64)
    for i0 in range(0, n, _FP_ROWS):
        i1 = min(i0 + _FP_ROWS, n)
        c = i1 - i0
        x = np.zeros((c, _FP_NFFT), np.float32)
        for r in range(c):
            ln = min(int(lens[i0 + r]), _FP_NFFT)
            x[r, :ln] = flat[off[i0 + r]:off[i0 + r] + ln]
        spec = np.abs(np.fft.rfft(x, axis=1)) ** 2
        for sr in np.unique(sr_hz[i0:i1]):
            rows = np.flatnonzero(sr_hz[i0:i1] == sr)
            # Hz -> bin; log spacing (ratio ~1.07) never collides for
            # any supported rate (smallest first index ~74 at 44.1 kHz)
            bins = np.rint(hz_edges * _FP_NFFT / float(sr)).astype(np.int64)
            bins = np.minimum(bins, _FP_NFFT // 2)
            # 65 edges -> 65 reduceat segments; drop the unbounded tail
            # segment (> 3.4 kHz, whose content DOES depend on the rate)
            E[i0 + rows] = np.add.reduceat(
                spec[rows], bins, axis=1)[:, :_FP_BANDS]
    return E


def log_band_profile(E: np.ndarray) -> np.ndarray:
    """L2-normalized log-compressed band profile for pair VERIFICATION
    (the audio analog of the shingle-Jaccard verify after MinHash):
    ``log1p(E / max(E) * 1e6)``, then unit norm.  Exactly gain-invariant
    (the per-clip max normalization removes scale before the log).
    Measured operating points on the synthetic tone-mixture corpus —
    a worst case for precision, real speech/music profiles are far more
    structured: mu-law requantization keeps cosine >= 0.998 while
    hamming-candidate non-dup pairs stay <= 0.9954 (the default 0.998
    gate separates them); a 2x sample-rate conversion measures
    0.990-0.993, so rate-converted copies need ``threshold=0.99`` at
    reduced precision on tone-like content."""
    mx = np.maximum(E.max(axis=1, keepdims=True), np.float32(1e-30))
    L = np.log1p(E / mx * np.float32(1e6))
    nrm = np.maximum(np.linalg.norm(L, axis=1, keepdims=True),
                     np.float32(1e-30))
    return (L / nrm).astype(np.float32)


class FingerprintStage:
    """Actor-pool sketch stage: clips -> (id, fingerprint[, profile])
    rows.  Payload bytes never leave the stage — only 8-byte sketches
    (plus an optional 256-byte verify profile) shuffle into the LSH, so
    a 10^12-clip near-dup pass moves O(rows), not O(bytes).  One decode
    + one banded FFT per clip produces BOTH outputs."""

    def __init__(self, id_col: str = "offset", profile: bool = False):
        self.id_col = id_col
        self.profile = profile

    def __call__(self, t: pa.Table) -> pa.Table:
        flat, lens, off = decode_flat(t["bytes"].to_pylist(),
                                      t["codec"].to_pylist())
        E = band_energies(flat, lens, off,
                          t["sr_hz"].to_numpy().astype(np.int64))
        fp, prof = sketch_arrays(E, profile=self.profile)
        cols = {
            self.id_col: t[self.id_col],
            "simhash": pa.array(fp.view(np.int64)),
        }
        if self.profile:
            cols["profile"] = prof
        return pa.table(cols)


def sketch_arrays(E: np.ndarray, *, profile: bool = False):
    """Band-energy matrix -> (uint64 fingerprints, optional Arrow
    binary profile column).  The profile is a fixed 256-byte
    little-endian f32[64] blob, NOT a nested list column: plain binary
    survives every pandas/arrow boundary on the join path (Ray's pandas
    TensorArray cannot concat the object arrays a filtered nested
    column produces) and is decoded zero-copy by ``np.frombuffer``."""
    fp = _topk_bits(E)
    if not profile:
        return fp, None
    buf = log_band_profile(E).astype("<f4").tobytes()
    w = _FP_BANDS * 4
    prof = pa.array([buf[i * w:(i + 1) * w] for i in range(E.shape[0])],
                    pa.binary())
    return fp, prof


# Pool policy for the DSP stages (measured round 4, 100k-clip bench):
# - r3's autoscaling ``concurrency=(1, 8)`` pools left 24 of 32 cores
#   idle (VERDICT r3 item 5), and raising the cap to ``(1, 24)`` did
#   NOT help: Ray's actor autoscaler upscales only at pool utilization
#   >= 2.0 (DEFAULT_ACTOR_POOL_UTIL_UPSCALING_THRESHOLD), one actor per
#   tick, so under streaming backpressure the pool idled at 1-2 actors
#   (fingerprint stage 67.7 s vs 14.7 s with a fixed pool of 24).
# - FIXED pools (``concurrency=24``) are fast but compose dangerously:
#   the executor waits for ALL pool actors before running the stage, so
#   two pools whose sizes sum past the cluster (or one pool next to
#   another stage's lingering actors on a 4-CPU test cluster) deadlock
#   — reproduced with the 4-CPU pytest session.
# - These stages hold NO real per-actor state (decode tables are
#   module-level; constructor args are a few ints), so the repo's
#   ``MinHashStage`` doctrine applies: INSTANCE-AS-UDF task pools —
#   measured as fast as the fixed pool (13.5 s vs 14.7 s), use every
#   free CPU, and cannot deadlock.  Actor pools remain for stages with
#   real setup (engine partition actors, broadcast-ref
#   stages).


def fingerprint_clips(ds: rd.Dataset, *, id_col: str = "offset",
                      profile: bool = False,
                      concurrency=None, batch_size: int = 256
                      ) -> rd.Dataset:
    return ds.map_batches(FingerprintStage(id_col, profile),
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency, num_cpus=1)


_VERIFY_BROADCAST_ROWS = 2_000_000   # 264 B/row -> ~0.5 GB broadcast cap


def verify_audio_cosine(pairs: rd.Dataset, sketches: rd.Dataset, *,
                        threshold: float = 0.998, id_col: str = "offset",
                        num_buckets: int = 16,
                        broadcast_rows: int = _VERIFY_BROADCAST_ROWS
                        ) -> rd.Dataset:
    """Verify hamming-LSH candidates with the log-band-profile cosine —
    the audio analog of ``dedup.verify_jaccard``, fully distributed:
    the sketch table is filtered map-side to candidate rows
    (``dedup.candidate_rows`` — the corpus profile set never shuffles).
    When the candidate set is small (<= ``broadcast_rows``, ~0.5 GB of
    256-byte profiles) it is BROADCAST once via object-store block refs
    and verification is a join-free map over the pair stream (gather +
    one einsum per batch) — a dense candidate graph makes the join
    path shuffle pairs x 2 x 256 B of profile payload (measured ~4 GB
    / 28.6 s at 7.5M candidates where the broadcast table is 26 MB).
    Past the cap it falls back to the two-bucket-join shape.  The gate
    compares the QUANTIZED value ``round(cos * 1e6) >= round(threshold
    * 1e6)`` so the decision is batch-composition independent (profiles
    are computed per row; the dot is a fixed-order float64 reduction)."""
    import ray as _ray

    from .dedup import candidate_rows
    from .relational import bucket_join

    thr_micro = int(round(threshold * 1e6))
    pairs = pairs.materialize()
    cd = candidate_rows(sketches, pairs, id_col=id_col,
                        payload_cols=["profile"],
                        num_buckets=num_buckets).materialize()

    if cd.count() <= broadcast_rows:
        refs = cd.to_arrow_refs()

        class BroadcastCosVerify:
            """Instance-as-UDF carrying only ObjectRefs; the profile
            matrix is assembled once per worker from local object-store
            blocks (zero-copy reads, never re-shipped per batch)."""

            def __init__(self):
                self.refs = refs
                self.ids: np.ndarray | None = None
                self.P: np.ndarray | None = None

            def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
                if len(b) == 0:
                    return pd.DataFrame(
                        {"id_a": pd.Series(dtype="int64"),
                         "id_b": pd.Series(dtype="int64"),
                         "hamming": pd.Series(dtype="int64"),
                         "cos_micro": pd.Series(dtype="int64")})
                if self.ids is None:
                    blocks = [t for t in _ray.get(list(self.refs))
                              if t.num_rows]
                    ids = np.concatenate(
                        [t[id_col].to_numpy() for t in blocks])
                    P = np.frombuffer(
                        b"".join(b"".join(t["profile"].to_pylist())
                                 for t in blocks), "<f4") \
                        .reshape(ids.size, _FP_BANDS).astype(np.float64)
                    o = np.argsort(ids, kind="stable")
                    self.ids, self.P = ids[o], P[o]
                ia = np.searchsorted(self.ids, b["id_a"].to_numpy())
                ib = np.searchsorted(self.ids, b["id_b"].to_numpy())
                q = np.rint(np.einsum("ij,ij->i", self.P[ia], self.P[ib])
                            * 1e6).astype(np.int64)
                keep = q >= thr_micro
                return pd.DataFrame({
                    "id_a": b["id_a"].to_numpy()[keep],
                    "id_b": b["id_b"].to_numpy()[keep],
                    "hamming": b["hamming"].to_numpy()[keep],
                    "cos_micro": q[keep]})

        return pairs.map_batches(BroadcastCosVerify(),
                                 batch_format="pandas", batch_size=65536)

    da = cd.map_batches(lambda b: b.rename(
        columns={id_col: "id_a", "profile": "__pa"}), batch_format="pandas")
    db = cd.map_batches(lambda b: b.rename(
        columns={id_col: "id_b", "profile": "__pb"}), batch_format="pandas")
    j = bucket_join(pairs, da, on="id_a", num_buckets=num_buckets)
    j = bucket_join(j.materialize(), db, on="id_b", num_buckets=num_buckets)

    def cos(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "hamming": pd.Series(dtype="int64"),
                                 "cos_micro": pd.Series(dtype="int64")})
        A = np.frombuffer(b"".join(b["__pa"]), "<f4") \
            .reshape(len(b), _FP_BANDS).astype(np.float64)
        Bm = np.frombuffer(b"".join(b["__pb"]), "<f4") \
            .reshape(len(b), _FP_BANDS).astype(np.float64)
        q = np.rint(np.einsum("ij,ij->i", A, Bm) * 1e6).astype(np.int64)
        out = pd.DataFrame({"id_a": b["id_a"].to_numpy(),
                            "id_b": b["id_b"].to_numpy(),
                            "hamming": b["hamming"].to_numpy(),
                            "cos_micro": q})
        return out[out["cos_micro"] >= thr_micro]

    return j.map_batches(cos, batch_format="pandas")


def audio_neardup_pairs(ds: rd.Dataset, *, id_col: str = "offset",
                        max_hamming: int = 3, num_buckets: int = 32,
                        verify_cosine: float | None = None,
                        clique_cap: int | None = None) -> rd.Dataset:
    """Near-duplicate AUDIO detection: finds re-encoded copies of the
    same recording (different codec / gain / sample rate) without ever
    comparing waveforms pairwise.  Exactly the hamming-ball pair set
    over the spectral fingerprint for ``max_hamming <= 3`` — the
    fingerprint sets EXACTLY 6 of 64 bits, so the LSH bands are the six
    leave-one-out 5-subset keys of the set-bit positions
    (``scheme="sparse_topk"``; fixed 16-bit chunk bands are near-always
    zero on so sparse a mask and collapse 93% of clips into one bucket
    — the round-3 single-task-quadratic scale-killer).  Identical
    fingerprints are collapsed to one distance computation per distinct
    sketch pair; ``clique_cap`` bounds per-clique pair expansion (star
    edges past it — see ``dedup.hamming_pairs``).  With
    ``verify_cosine`` set, candidates are additionally gated on the
    log-band-profile cosine (sketch + profile come from ONE decode
    pass; the sketch table — 264 B/row, payload-free — is materialized
    once so the corpus is never decoded twice; at extreme scale persist
    it to parquet instead)."""
    from .dedup import hamming_pairs

    sk = fingerprint_clips(ds, id_col=id_col,
                           profile=verify_cosine is not None)
    if verify_cosine is None:
        return hamming_pairs(sk, id_col=id_col, hash_col="simhash",
                             max_hamming=max_hamming,
                             num_buckets=num_buckets,
                             scheme="sparse_topk", clique_cap=clique_cap)
    sk = sk.materialize()
    pairs = hamming_pairs(sk.select_columns([id_col, "simhash"]),
                          id_col=id_col, hash_col="simhash",
                          max_hamming=max_hamming, num_buckets=num_buckets,
                          scheme="sparse_topk", clique_cap=clique_cap)
    return verify_audio_cosine(pairs,
                               sk.select_columns([id_col, "profile"]),
                               threshold=verify_cosine, id_col=id_col)


class CurateSketchStage:
    """Fused curation front end: ONE decode pass per clip produces BOTH
    the quality features (rms / clipping ratio / speech rate — the
    ``ClipQualityStage`` set) AND the near-dup sketch (64-bit spectral
    fingerprint + 256-byte verify profile).  Payload bytes are dropped
    HERE, before any shuffle — the whole fuzzy-dedup curation
    composition decodes the corpus exactly once and everything
    downstream moves metadata-sized rows."""

    def __init__(self, quantize: int = 1 << 20):
        self.q = quantize

    def __call__(self, t: pa.Table) -> pa.Table:
        flat, lens, off = decode_flat(t["bytes"].to_pylist(),
                                      t["codec"].to_pylist())
        r = per_clip_rms(flat, lens, off)
        clip_ct = np.zeros(lens.size, np.int64)
        if flat.size and (lens > 0).any():
            hits = (np.abs(flat) >= 0.999).astype(np.int64)
            clip_ct[lens > 0] = np.add.reduceat(hits, off[lens > 0])
        dur = t["dur_ms"].to_numpy().astype(np.float64)
        words = pa.compute.count_substring(
            t["transcript"], " ").to_numpy().astype(np.int64) + 1
        wps = np.where(dur > 0, words / (dur / 1000.0), 0.0)
        E = band_energies(flat, lens, off,
                          t["sr_hz"].to_numpy().astype(np.int64))
        fp, prof = sketch_arrays(E, profile=True)
        return pa.table({
            "offset": t["offset"],
            "clip_id": t["clip_id"],
            "speaker_id": t["speaker_id"],
            "dur_ms": t["dur_ms"],
            "n_words": pa.array(words),
            "rms_q20": pa.array(np.rint(r * self.q).astype(np.int64)),
            "clip_ratio_q20": pa.array(
                np.rint(np.where(lens > 0, clip_ct / np.maximum(lens, 1),
                                 0.0) * self.q).astype(np.int64)),
            "wps_q10": pa.array(np.rint(wps * 1024).astype(np.int64)),
            "simhash": pa.array(fp.view(np.int64)),
            "profile": prof,
        })


def curate_neardup_clips(ds: rd.Dataset, *,
                         dur_range: tuple[int, int] = (300, 1800),
                         rms_range: tuple[float, float] = (0.02, 0.6),
                         max_clip_ratio: float = 0.01,
                         wps_range: tuple[float, float] = (1.0, 30.0),
                         max_hamming: int = 3,
                         verify_cosine: float = 0.998,
                         quantize: int = 1 << 20,
                         num_buckets: int = 32) -> rd.Dataset:
    """The fuzzy-dedup audio curation flagship — the audio analog of
    ``pipelines.queries.curate_neardup_docs``: one-decode-pass quality
    features + spectral sketch -> vectorized metadata filter ->
    hamming-LSH candidate pairs -> log-band-profile cosine verify ->
    min-label components -> keep the canonical (first-arrived, min
    ``offset``) clip per near-dup cluster with ``n_neardups`` counts.

    Scale shape: clip bytes are decoded once and never shuffle; the
    LSH, verify, components and survivor join all move sketch- or
    pair-sized rows.  Near-dup semantics: same recording re-encoded
    (gain / mu-law / re-crawl) — the planted-variant fixture in
    tests/test_audio_prep.py measures recall 1.0 / precision 1.0."""
    from .dedup import hamming_pairs, neardup_survivors

    q = float(quantize)
    lo_d, hi_d = dur_range
    lo_r, hi_r = int(rms_range[0] * q), int(rms_range[1] * q)
    max_cr = int(max_clip_ratio * q)
    lo_w, hi_w = int(wps_range[0] * 1024), int(wps_range[1] * 1024)

    feats = ds.map_batches(CurateSketchStage(quantize=quantize),
                           batch_format="pyarrow", batch_size=128,
                           num_cpus=1)

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        m = pc.and_(pc.and_(
            pc.and_(pc.greater_equal(t["dur_ms"], lo_d),
                    pc.less_equal(t["dur_ms"], hi_d)),
            pc.and_(pc.greater_equal(t["rms_q20"], lo_r),
                    pc.less_equal(t["rms_q20"], hi_r))),
            pc.and_(pc.less_equal(t["clip_ratio_q20"], max_cr),
                    pc.and_(pc.greater_equal(t["wps_q10"], lo_w),
                            pc.less_equal(t["wps_q10"], hi_w))))
        return t.filter(m)

    filt = feats.map_batches(keep, batch_format="pyarrow").materialize()
    pairs = hamming_pairs(filt.select_columns(["offset", "simhash"]),
                          id_col="offset", hash_col="simhash",
                          max_hamming=max_hamming, num_buckets=num_buckets,
                          scheme="sparse_topk")
    verified = verify_audio_cosine(
        pairs, filt.select_columns(["offset", "profile"]),
        threshold=verify_cosine, id_col="offset")
    slim = filt.drop_columns(["simhash", "profile"])
    return neardup_survivors(slim, verified.select_columns(["id_a", "id_b"]),
                             id_col="offset")


class PadSilenceStage:
    """Deterministic silence padding (fixture transform): prepend /
    append ``(offset % k) * step_ms`` of codec-native silence to every
    clip.  The fixture corpus has no leading/trailing silence, so VAD
    demos/benches run this first; padding is pure byte concatenation
    (pcm16 silence = 0x0000, mu-law silence = 0x80 — decodes to
    |x| < 0.004, far below the default VAD threshold)."""

    _SILENCE = {"pcm16": b"\x00\x00", "ulaw": b"\x80"}

    def __init__(self, k: int = 5, step_ms: int = 100):
        self.k = int(k)
        self.step_ms = int(step_ms)

    def __call__(self, t: pa.Table) -> pa.Table:
        bts = t["bytes"].to_pylist()
        codecs = t["codec"].to_pylist()
        sr = t["sr_hz"].to_numpy().astype(np.int64)
        offs = t["offset"].to_numpy().astype(np.int64)
        pad_ms = (offs % self.k) * self.step_ms
        pad_n = sr * pad_ms // 1000
        out = [self._SILENCE[c] * int(n) + b + self._SILENCE[c] * int(n)
               for b, c, n in zip(bts, codecs, pad_n)]
        cols = {name: t[name] for name in t.schema.names}
        cols["bytes"] = pa.array(out, type=pa.binary())
        res = pa.table(cols)
        return res.append_column("pad_ms", pa.array(pad_ms))


def resample_clips(ds: rd.Dataset, sr_out: int = 16000, *,
                   target_rms: float | None = None,
                   concurrency=None, batch_size: int = 256) -> rd.Dataset:
    return ds.map_batches(
        ResampleStage(sr_out=sr_out, target_rms=target_rms),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


def vad_segment_clips(ds: rd.Dataset, *, frame_ms: int = 20,
                      thresh: float = 0.02, concurrency=None,
                      batch_size: int = 256) -> rd.Dataset:
    return ds.map_batches(
        VadSegmentStage(frame_ms=frame_ms, thresh=thresh),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


def chunk_clips(ds: rd.Dataset, *, chunk_ms: int = 250, hop_ms: int = 200,
                concurrency=None, batch_size: int = 256) -> rd.Dataset:
    return ds.map_batches(
        ChunkStage(chunk_ms=chunk_ms, hop_ms=hop_ms),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


def curate_clips(ds: rd.Dataset, *,
                 dur_range: tuple[int, int] = (300, 1800),
                 rms_range: tuple[float, float] = (0.02, 0.6),
                 max_clip_ratio: float = 0.01,
                 wps_range: tuple[float, float] = (1.0, 30.0),
                 quantize: int = 1 << 20) -> rd.Dataset:
    """End-to-end audio curation: one-pass quality features ->
    vectorized metadata filter (duration / loudness / clipping /
    speech-rate plausibility) -> transcript exact-dedup where the
    FIRST-ARRIVED row wins (min ``offset`` — deterministic even when a
    re-issued clip_id carries different audio).

    The quality stage and filter are fused shuffle-free map_batches
    over the clip stream; payload bytes are dropped BEFORE the dedup
    shuffle, so the only all-to-all moves (fingerprint, offset,
    carry-metadata) rows.  Output: one row per surviving clip with
    ``n_dups`` (1 + duplicates absorbed) and the winner's attributes.
    """
    from .dedup import exact_dedup

    q = float(quantize)
    lo_d, hi_d = dur_range
    lo_r, hi_r = int(rms_range[0] * q), int(rms_range[1] * q)
    max_cr = int(max_clip_ratio * q)
    lo_w, hi_w = int(wps_range[0] * 1024), int(wps_range[1] * 1024)

    feats = ds.map_batches(ClipQualityStage(quantize=quantize),
                           batch_format="pyarrow", batch_size=256,
                           num_cpus=1)

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        m = pc.and_(pc.and_(
            pc.and_(pc.greater_equal(t["dur_ms"], lo_d),
                    pc.less_equal(t["dur_ms"], hi_d)),
            pc.and_(pc.greater_equal(t["rms_q20"], lo_r),
                    pc.less_equal(t["rms_q20"], hi_r))),
            pc.and_(pc.less_equal(t["clip_ratio_q20"], max_cr),
                    pc.and_(pc.greater_equal(t["wps_q10"], lo_w),
                            pc.less_equal(t["wps_q10"], hi_w))))
        return t.filter(m).drop_columns(["bytes"])

    filt = feats.map_batches(keep, batch_format="pyarrow")
    return exact_dedup(filt, text_col="transcript", id_col="offset",
                       carry=["clip_id", "speaker_id", "dur_ms",
                              "n_words", "rms_q20"])


# ---------------------------------------------------------------------------
# deterministic augmentation (speed / gain / noise-at-SNR)
# ---------------------------------------------------------------------------

_SM_C1 = np.uint64(0x9E3779B97F4A7C15)
_SM_C2 = np.uint64(0xBF58476D1CE4E5B9)
_SM_C3 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer: uint64 -> well-mixed uint64
    (wrapping arithmetic is the algorithm)."""
    x = x.astype(np.uint64, copy=True) + _SM_C1
    x = (x ^ (x >> np.uint64(30))) * _SM_C2
    x = (x ^ (x >> np.uint64(27))) * _SM_C3
    return x ^ (x >> np.uint64(31))


def _unit_uniform(u: np.ndarray) -> np.ndarray:
    """uint64 -> float64 uniform in [0, 1) (53 mantissa bits)."""
    return (u >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


_SPEED_QUANT = 10_000  # speed factors quantized to 1e-4


class AugmentStage:
    """Deterministic per-clip audio augmentation — the training-data
    expansion op: speed perturb (linear resample by a per-clip factor),
    gain perturb (log-uniform dB, peak-capped so no clipping is
    introduced), and additive noise at a per-clip target SNR.

    Every random choice is a pure function of ``(seed, hash(clip id))``
    via splitmix64, and the noise stream is COUNTER-BASED on
    ``(id hash, sample index)`` — so each output row's bytes depend
    only on its input row, never on batch composition, partition
    count, or replay order (the same row-determinism contract the
    engine's exactly-once tests enforce).  All kernels run over the
    batch's flat concatenated stream, one numpy pass each.

    Output rows keep the input columns with ``bytes`` replaced
    (pcm16), ``codec``='pcm16', ``dur_ms`` rescaled, plus audit
    columns ``speed_micro`` / ``gain_micro`` / ``snr_db_micro`` and
    ``n_samples``."""

    def __init__(self, *, seed: int = 0,
                 speed_range: tuple[float, float] = (0.9, 1.1),
                 gain_db_range: tuple[float, float] = (-6.0, 6.0),
                 snr_db_range: tuple[float, float] | None = (15.0, 30.0),
                 id_col: str = "clip_id", peak_limit: float = 0.99):
        from ..functions.hashing import _stable_token_hashes

        self._hash = _stable_token_hashes
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.speed_range = speed_range
        self.gain_db_range = gain_db_range
        self.snr_db_range = snr_db_range
        self.id_col = id_col
        self.peak_limit = float(peak_limit)

    def _draw(self, key: np.ndarray, tag: int, lo: float, hi: float
              ) -> np.ndarray:
        u = _unit_uniform(_splitmix64(key + np.uint64(tag)))
        return lo + u * (hi - lo)

    def __call__(self, t: pa.Table) -> pa.Table:
        n = len(t)
        bts = t["bytes"].to_pylist()
        codecs = t["codec"].to_pylist()
        flat, lens, off = decode_flat(bts, codecs)
        idh = self._hash([str(v) for v in t[self.id_col].to_pylist()])
        key = _splitmix64(idh ^ _splitmix64(
            np.full(n, self.seed, dtype=np.uint64)))

        # 1. speed perturb: output sample j reads source position
        #    j * speed — exactly resample_flat with a synthetic
        #    per-clip input rate of round(speed * Q) against output
        #    rate Q (speed quantized to 1e-4)
        speed = self._draw(key, 1, *self.speed_range)
        sr_synth = np.rint(speed * _SPEED_QUANT).astype(np.int64)
        out, m = resample_flat(flat, lens, off, sr_synth, _SPEED_QUANT)
        out_off = np.cumsum(m) - m

        # 2. gain perturb (log-uniform in dB), capped at the post-speed
        #    peak so augmentation never introduces clipping
        gain = 10.0 ** (self._draw(key, 2, *self.gain_db_range) / 20.0)
        p = per_clip_peak(out, m, out_off)
        gain = np.minimum(gain, np.where(p > 0,
                                         self.peak_limit / np.maximum(p, 1e-12),
                                         np.inf))
        out = out * np.repeat(gain, m).astype(np.float32)

        # 3. additive noise at a per-clip target SNR: uniform on
        #    [-a, a] has rms a/sqrt(3), so a = sqrt(3) * noise_rms;
        #    sample k of clip i is splitmix64(noise_key_i + k)
        if self.snr_db_range is not None and out.size:
            snr_db = self._draw(key, 3, *self.snr_db_range)
            sig_rms = per_clip_rms(out, m, out_off)
            amp = np.sqrt(3.0) * sig_rms * 10.0 ** (-snr_db / 20.0)
            j = np.arange(out.size, dtype=np.uint64) \
                - np.repeat(out_off, m).astype(np.uint64)
            nk = _splitmix64(np.repeat(_splitmix64(key + np.uint64(4)), m) + j)
            noise = (2.0 * _unit_uniform(nk) - 1.0) * np.repeat(amp, m)
            out = np.clip(out + noise.astype(np.float32), -1.0, 1.0)
        else:
            snr_db = np.full(n, np.inf)

        payload = encode_pcm16_slices(out, out_off, m)
        sr = t["sr_hz"].to_numpy().astype(np.int64)
        cols = {name: t[name] for name in t.schema.names}
        cols["bytes"] = pa.array(payload, type=pa.binary())
        cols["codec"] = pa.array(["pcm16"] * n)
        if "dur_ms" in cols:
            cols["dur_ms"] = pa.array(
                (m * 1000 // np.maximum(sr, 1)).astype(np.int32),
                type=t.schema.field("dur_ms").type)
        res = pa.table(cols)
        res = res.append_column("n_samples", pa.array(m))
        # audit column = the APPLIED quantized factor (sr_synth / 1e4
        # scaled to micro), not the raw draw — ADVICE r3: the pre-
        # quantization draw could differ from the applied speed by up
        # to ~50e-6 and round differently near an x.5e-4 boundary
        res = res.append_column("speed_micro", pa.array(
            sr_synth * (1_000_000 // _SPEED_QUANT)))
        res = res.append_column("gain_micro", pa.array(
            np.rint(gain * 1e6).astype(np.int64)))
        return res.append_column("snr_db_micro", pa.array(
            np.where(np.isfinite(snr_db),
                     np.rint(snr_db * 1e6), -1).astype(np.int64)))


def augment_clips(ds: rd.Dataset, *, seed: int = 0,
                  speed_range=(0.9, 1.1), gain_db_range=(-6.0, 6.0),
                  snr_db_range=(15.0, 30.0), id_col: str = "clip_id",
                  concurrency=None, batch_size: int = 256) -> rd.Dataset:
    return ds.map_batches(
        AugmentStage(seed=seed, speed_range=speed_range,
                     gain_db_range=gain_db_range,
                     snr_db_range=snr_db_range, id_col=id_col),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


# ---------------------------------------------------------------------------
# audio eval-set decontamination (the `dedup.contamination` analog on audio)
# ---------------------------------------------------------------------------

class AudioDecontaminateStage:
    """Instance-as-UDF probe: flags corpus clips whose spectral
    fingerprint lands within ``max_hamming`` of ANY eval-suite clip
    (optionally profile-cosine-gated).  Holds only an ObjectRef; the
    eval lookup structure — sorted 5-subset LSH keys, key->eval-row
    map, eval fingerprints (+ unit profiles) — is read zero-copy from
    the local object store per task, never re-shipped per batch."""

    def __init__(self, ref, *, id_col: str = "offset",
                 max_hamming: int = 2, thr_micro: int | None = None):
        self._ref = ref
        self.id_col = id_col
        self.max_hamming = int(max_hamming)
        self.thr_micro = thr_micro

    def __call__(self, t: pa.Table) -> pa.Table:
        import ray as _ray

        from ..functions.hashing import popcount64
        from .dedup import _sparse_subset_keys

        sorted_keys, key_rows, efp, eprof = _ray.get(self._ref)
        flat, lens, off = decode_flat(t["bytes"].to_pylist(),
                                      t["codec"].to_pylist())
        E = band_energies(flat, lens, off,
                          t["sr_hz"].to_numpy().astype(np.int64))
        fp = _topk_bits(E)
        n = fp.size
        keys = _sparse_subset_keys(fp).ravel()          # row-major (n*6,)
        lo = np.searchsorted(sorted_keys, keys, side="left")
        hi = np.searchsorted(sorted_keys, keys, side="right")
        cnt = hi - lo
        empty = pa.table({self.id_col: pa.array([], t.schema.field(
                              self.id_col).type),
                          "n_matched": pa.array([], pa.int64()),
                          "min_hamming": pa.array([], pa.int64())})
        total = int(cnt.sum())
        if total == 0:
            return empty
        # ragged gather of candidate eval rows per (corpus row, band)
        excl = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        pos = np.arange(total, dtype=np.int64) \
            + np.repeat(lo - excl, cnt)
        erow = key_rows[pos]
        crow = np.repeat(np.repeat(np.arange(n, dtype=np.int64), 6), cnt)
        d = popcount64(fp[crow] ^ efp[erow]).astype(np.int64)
        ok = d <= self.max_hamming
        if self.thr_micro is not None and ok.any():
            P = log_band_profile(E)                     # unit rows
            q = np.rint(np.einsum(
                "ij,ij->i", P[crow[ok]], eprof[erow[ok]]) * 1e6)
            sub = np.flatnonzero(ok)
            ok[sub[q < self.thr_micro]] = False
        if not ok.any():
            return empty
        # a d=0 hit surfaces in all 6 bands, d=2 in exactly one ->
        # dedupe (corpus row, eval row) before counting
        m = np.int64(efp.size)
        pk = crow[ok] * m + erow[ok]
        upk, first = np.unique(pk, return_index=True)
        ucrow = (upk // m).astype(np.int64)             # sorted by crow
        ud = d[ok][first]
        rows, starts, n_matched = np.unique(
            ucrow, return_index=True, return_counts=True)
        min_h = np.minimum.reduceat(ud, starts)
        ids = t[self.id_col].take(pa.array(rows))
        return pa.table({self.id_col: ids,
                         "n_matched": pa.array(n_matched.astype(np.int64)),
                         "min_hamming": pa.array(min_h.astype(np.int64))})


def decontaminate_clips(corpus: rd.Dataset, eval_ds: rd.Dataset, *,
                        id_col: str = "offset", max_hamming: int = 2,
                        verify_cosine: float | None = None,
                        batch_size: int = 256) -> rd.Dataset:
    """AUDIO benchmark decontamination: flag every training clip that
    is (a re-encode of) an eval-suite recording — gain / codec /
    sample-rate robust via the 6-of-64-bit spectral fingerprint, exact
    for ``max_hamming <= 3`` via the sparse 5-of-6 subset LSH, with an
    optional log-band-profile cosine gate (quantized at 1e-6 like
    :func:`verify_audio_cosine`, so the decision is batch-composition
    independent).  The text analog (shared word-k-grams vs a bench
    suite) is ``dedup.contamination`` / ``contamination_bloom``
    (reference analog for the broadcast-small-side discipline:
    ``blog/blog.md:84``'s skew lesson).

    100 TB shape: the EVAL side is the small one (an eval suite, not
    the corpus), so its whole sketch table — 8-byte fingerprints, the
    six 5-subset LSH keys each, optional 256-byte unit profiles — is
    built distributed, collected once, and broadcast via ``ray.put``;
    the corpus is then probed MAP-ONLY in its one decode pass (fused
    fingerprint + searchsorted lookup + popcount verify).  ZERO corpus
    shuffle, zero corpus materialization; output is sized by the
    contamination, not the corpus.  Output: ``(id_col, n_matched,
    min_hamming)`` — one row per CONTAMINATED corpus clip (mirror of
    ``contamination``'s ``(doc_id, n_shared)``); survivors are the
    anti-join, exactly as in the text pipeline."""
    import ray as _ray

    from .dedup import _sparse_subset_keys

    want_prof = verify_cosine is not None
    esk = fingerprint_clips(eval_ds, id_col=id_col,
                            profile=want_prof).to_pandas()
    efp = np.ascontiguousarray(esk["simhash"].to_numpy()).view(np.uint64)
    keys = _sparse_subset_keys(efp)                     # (m, 6)
    flat = keys.ravel()
    rows = np.repeat(np.arange(efp.size, dtype=np.int64), keys.shape[1])
    order = np.argsort(flat, kind="stable")
    eprof = None
    if want_prof:
        eprof = np.frombuffer(b"".join(esk["profile"]), "<f4") \
            .reshape(efp.size, _FP_BANDS).astype(np.float64)
    ref = _ray.put((flat[order], rows[order], efp, eprof))
    stage = AudioDecontaminateStage(
        ref, id_col=id_col, max_hamming=max_hamming,
        thr_micro=None if verify_cosine is None
        else int(round(verify_cosine * 1e6)))
    return corpus.map_batches(stage, batch_format="pyarrow",
                              batch_size=batch_size, num_cpus=1)


# ---------------------------------------------------------------------------
# per-clip DSP statistics (tonality / noisiness quality scoring)
# ---------------------------------------------------------------------------

def per_clip_zcr(flat: np.ndarray, lens: np.ndarray, off: np.ndarray
                 ) -> np.ndarray:
    """Zero-crossing RATE per clip (crossings per sample, in [0, 1]) —
    flat-vectorized: one global sign-change diff + a cumsum, then two
    gathers per clip (crossings at clip boundaries are excluded by
    construction: clip ``i``'s diff range is ``[off_i, off_i+len_i-1)``).
    A pure sine at ``f`` Hz gives ``~2f/sr``; white noise ``~0.5``."""
    n = lens.size
    zcr = np.zeros(n, np.float64)
    if n == 0 or flat.size < 2:
        return zcr
    d = (np.signbit(flat[1:]) != np.signbit(flat[:-1])).astype(np.int64)
    c = np.concatenate(([0], np.cumsum(d)))
    has = lens > 1
    lo = off[has]
    hi = off[has] + lens[has] - 1
    zcr[has] = (c[hi] - c[lo]) / (lens[has] - 1)
    return zcr


def spectral_flatness(E: np.ndarray) -> np.ndarray:
    """Per-clip spectral flatness over the 64 absolute-Hz band energies:
    geometric / arithmetic mean, in [0, 1].  Tonal content (a few hot
    bands) -> near 0; broadband noise -> near 1.  Gain-invariant (both
    means scale linearly); the epsilon floors silence to flatness 1."""
    eps = np.float64(1e-30)
    Ef = E.astype(np.float64) + eps
    g = np.exp(np.mean(np.log(Ef), axis=1))
    return g / np.mean(Ef, axis=1)


def spectral_centroid(E: np.ndarray) -> np.ndarray:
    """Energy-weighted mean band index, in [0, bands-1] — a coarse
    brightness measure on the same log-spaced band grid the fingerprint
    uses (rate-independent by construction).  Silence -> 0."""
    w = np.arange(E.shape[1], dtype=np.float64)
    Ef = E.astype(np.float64)
    tot = Ef.sum(axis=1)
    out = np.zeros(E.shape[0], np.float64)
    nz = tot > 0
    out[nz] = (Ef[nz] * w).sum(axis=1) / tot[nz]
    return out


class ClipDSPStatsStage:
    """Instance-as-UDF per-clip DSP statistics: ONE decode + ONE banded
    FFT per clip (the fingerprint front end) produces zero-crossing
    rate, spectral flatness and spectral centroid — the
    tonality/noisiness quality-scoring features a speech-corpus
    curation pass filters on.  All columns are 1e-6-quantized int64s so
    downstream decisions are batch-composition independent; payload
    bytes never leave the stage."""

    def __init__(self, id_col: str = "clip_id",
                 carry: tuple = ("dur_ms",)):
        self.id_col = id_col
        self.carry = tuple(carry)

    def __call__(self, t: pa.Table) -> pa.Table:
        flat, lens, off = decode_flat(t["bytes"].to_pylist(),
                                      t["codec"].to_pylist())
        E = band_energies(flat, lens, off,
                          t["sr_hz"].to_numpy().astype(np.int64))
        cols = {self.id_col: t[self.id_col]}
        for c in self.carry:
            if c in t.column_names:
                cols[c] = t[c]
        cols["zcr_micro"] = pa.array(np.rint(
            per_clip_zcr(flat, lens, off) * 1e6).astype(np.int64))
        cols["flatness_micro"] = pa.array(np.rint(
            spectral_flatness(E) * 1e6).astype(np.int64))
        cols["centroid_micro"] = pa.array(np.rint(
            spectral_centroid(E) * 1e6).astype(np.int64))
        return pa.table(cols)


def clip_dsp_stats(ds: rd.Dataset, *, id_col: str = "clip_id",
                   carry: tuple = ("dur_ms",),
                   batch_size: int = 256) -> rd.Dataset:
    """clips -> (id, zcr_micro, flatness_micro, centroid_micro[, carry])
    — map-only, zero shuffles; the classify/filter composition gates on
    the quantized columns (e.g. ``flatness_micro < 300000`` = tonal)."""
    return ds.map_batches(ClipDSPStatsStage(id_col, carry),
                          batch_format="pyarrow", batch_size=batch_size,
                          num_cpus=1)


# ---------------------------------------------------------------------------
# training-shard materialization (webdataset-style blobs + manifests)
# ---------------------------------------------------------------------------

def build_audio_shards(ds: rd.Dataset, *, shard_ms: int = 60_000,
                       sr_out: int = 16_000, id_col: str = "offset",
                       range_size: int = 1024, num_buckets: int = 16,
                       batch_size: int = 128) -> rd.Dataset:
    """Materialize fixed-duration TRAINING SHARDS: the global
    pcm16@``sr_out`` stream — every clip resampled, ordered by
    ``id_col``, concatenated — chunked every ``shard_ms`` into one
    binary blob per shard (clips crossing a shard boundary SPLIT, the
    concatenate-then-chunk training layout ``token_shards`` indexes).

    100 TB shape, three passes with the payload moving once per
    re-shard (the op IS a repartition):

    1. METADATA pass, no decode: per-clip resampled length from the
       resample length law applied to byte lengths -> per-range
       exclusive prefix offsets (O(corpus/range_size) driver rows,
       ``packing._range_offsets``), broadcast once via ``ray.put``.
    2. Payload pass: decode+resample -> co-locate each 1024-id RANGE
       (id-contiguous blocks mean this shuffle barely moves data) ->
       exact global sample starts by local cumsum -> emit one
       (shard_id, start, byte-slice) segment per overlapped shard.
    3. Shards co-locate -> per-shard ordered concat -> one row per
       shard: blob + blake2b digest + byte/segment counts (the
       manifest the loader seeks with).

    Determinism: every blob is a pure function of the input rows
    (asserted partition-invariant in tests/test_audio_prep.py)."""
    import hashlib

    import ray

    from ..functions.audio import bytes_per_sample
    from .packing import _range_offsets
    from .relational import bucketed_groupby

    cap = shard_ms * sr_out // 1000            # samples per shard

    def meta(t: pa.Table) -> pd.DataFrame:
        ln = pc.binary_length(t["bytes"]).to_numpy().astype(np.int64)
        bps = np.array([bytes_per_sample(c)
                        for c in t["codec"].to_pylist()], np.int64)
        lens_in = ln // bps
        sr_in = t["sr_hz"].to_numpy().astype(np.int64)
        m = (lens_in * sr_out + sr_in // 2) // sr_in
        m = np.where(lens_in > 0, np.maximum(m, 1), 0)
        return pd.DataFrame({id_col: t[id_col].to_numpy(), "__w": m})

    offsets = ray.put(_range_offsets(
        ds.map_batches(meta, batch_format="pyarrow",
                       batch_size=batch_size),
        id_col, "__w", range_size))

    res = resample_clips(ds, sr_out, batch_size=batch_size)

    def tag(t: pa.Table) -> pa.Table:
        rng = pc.divide(t[id_col].cast(pa.int64()),
                        pa.scalar(range_size, pa.int64()))
        return t.select([id_col, "bytes", "n_samples"]) \
            .append_column("__range", rng)

    tagged = res.map_batches(tag, batch_format="pyarrow",
                             batch_size=batch_size)

    class PerRange:
        """Instance-as-UDF carrying only the offsets ObjectRef."""

        def __init__(self):
            self.ref = offsets
            self.off: dict | None = None

        def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
            if self.off is None:
                self.off = ray.get(self.ref)
            g = g.sort_values(id_col, kind="mergesort")
            m = g["n_samples"].to_numpy(np.int64)
            base = int(self.off[int(g["__range"].iloc[0])])
            starts = base + np.cumsum(m) - m
            ends = starts + m
            nz = m > 0
            ks = np.where(nz, starts // cap, 0)
            ke = np.where(nz, (ends - 1) // cap, -1)
            cnt = np.where(nz, ke - ks + 1, 0).astype(np.int64)
            total = int(cnt.sum())
            if total == 0:
                return pd.DataFrame({"shard_id": pd.Series(dtype="int64"),
                                     "seg_start": pd.Series(dtype="int64"),
                                     "payload": pd.Series(dtype=object)})
            row = np.repeat(np.arange(len(g)), cnt)
            j = (np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
                 + ks[row])
            seg_s = np.maximum(starts[row], j * cap)
            seg_e = np.minimum(ends[row], (j + 1) * cap)
            payloads = g["bytes"].to_numpy()
            out_pay = [payloads[r][(s - starts[r]) * 2:(e - starts[r]) * 2]
                       for r, s, e in zip(row, seg_s, seg_e)]
            return pd.DataFrame({"shard_id": j.astype(np.int64),
                                 "seg_start": seg_s.astype(np.int64),
                                 "payload": out_pay})

    segs = bucketed_groupby(tagged, ["__range"], PerRange(),
                            num_buckets=num_buckets)

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for sid, sub in g.groupby("shard_id", sort=False):
            sub = sub.sort_values("seg_start", kind="mergesort")
            blob = b"".join(sub["payload"])
            rows.append((int(sid), len(blob), len(sub),
                         hashlib.blake2b(blob, digest_size=16).hexdigest(),
                         blob))
        return pd.DataFrame(rows, columns=["shard_id", "n_bytes",
                                           "n_segments", "digest", "blob"])

    return bucketed_groupby(segs, ["shard_id"], per_shard,
                            num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# codec transcoding (storage-compression pass)
# ---------------------------------------------------------------------------

class TranscodeStage:
    """Instance-as-UDF transcode: every clip re-encoded to ``codec_out``
    (mu-law halves pcm16 storage), with per-clip audit columns —
    bytes in/out and the re-quantization SNR in milli-dB (measured
    against the decoded input, exact-integer so the decision columns
    are batch-composition independent).  One decode + one encode per
    clip, map-only."""

    def __init__(self, codec_out: str = "ulaw", id_col: str = "clip_id"):
        if codec_out not in ("ulaw", "pcm16"):
            raise ValueError(f"unsupported target codec {codec_out!r}")
        self.codec_out = codec_out
        self.id_col = id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..functions.audio import decode_clip, encode_clip

        flat, lens, off = decode_flat(t["bytes"].to_pylist(),
                                      t["codec"].to_pylist())
        n = lens.size
        payload, snr_milli = [], np.empty(n, np.int64)
        for i in range(n):
            x = flat[off[i]:off[i] + lens[i]]
            b = encode_clip(x, self.codec_out)
            payload.append(b)
            y = decode_clip(b, self.codec_out)
            err = float(np.sum((x - y) ** 2))
            sig = float(np.sum(x ** 2))
            if err <= 0.0:
                snr_milli[i] = np.iinfo(np.int64).max // 2
            elif sig <= 0.0:
                snr_milli[i] = 0
            else:
                snr_milli[i] = int(round(10.0 * np.log10(sig / err) * 1e3))
        bin_in = pa.array(
            [len(b) for b in t["bytes"].to_pylist()], pa.int64())
        return pa.table({
            self.id_col: t[self.id_col],
            "bytes": pa.array(payload, pa.binary()),
            "codec": pa.array([self.codec_out] * n),
            "sr_hz": t["sr_hz"],
            "n_bytes_in": bin_in,
            "n_bytes_out": pa.array([len(b) for b in payload], pa.int64()),
            "snr_milli_db": pa.array(snr_milli)})


def transcode_clips(ds: rd.Dataset, codec_out: str = "ulaw", *,
                    id_col: str = "clip_id",
                    batch_size: int = 256) -> rd.Dataset:
    """clips -> re-encoded clips + (bytes in/out, requant SNR) audit —
    the storage-compression pass a 100 TB archive runs before cold
    storage.  Map-only, zero shuffles."""
    return ds.map_batches(TranscodeStage(codec_out, id_col),
                          batch_format="pyarrow", batch_size=batch_size,
                          num_cpus=1)
