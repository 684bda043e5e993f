"""Multimodal columns: opaque binary payloads + typed metadata.

Audio decode is REAL (pcm16/ulaw via numpy — see ``functions.audio``).
Video decode needs external libs absent from this container, so that
kernel is a deterministic fake / NotImplementedError stub with REAL
Ray-side plumbing: schema handling, actor-pool stage shape, batch
sizing for wide binary rows, and output layout are all exercised by
tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd


class AudioFeatureStage:
    """Instance-as-UDF stage: decode audio bytes -> per-clip features.

    Stateless (decode tables are module-level), so it runs as a task
    pool, not actors — see the pool-policy note in stages/audio_prep.py.
    Emits scalar features only — decoded PCM never enters the object
    store (a 100 TB stream of clips must not become 200 TB of floats).
    Use small ``batch_size`` for wide binary rows.
    """

    def __init__(self, quantize: int = 1 << 20):
        self.q = quantize

    def __call__(self, batch: pa.Table) -> pa.Table:
        # flat-vectorized like every other audio stage: ONE decode per
        # codec group, then reduceat passes (the per-row decode_clip
        # loop this replaces was the last row-loop on the audio path)
        from .audio_prep import decode_flat, per_clip_peak, per_clip_rms

        flat, lens, off = decode_flat(batch["bytes"].to_pylist(),
                                      batch["codec"].to_pylist())
        r = per_clip_rms(flat, lens, off)
        p = per_clip_peak(flat, lens, off)
        out = batch.drop_columns(["bytes"])
        out = out.append_column("n_samples", pa.array(lens))
        out = out.append_column(
            "rms_q20", pa.array(np.rint(r * self.q).astype(np.int64)))
        out = out.append_column(
            "peak_q20", pa.array(np.rint(p * self.q).astype(np.int64)))
        return out


def audio_features(ds: rd.Dataset, *, concurrency=None, batch_size=256
                   ) -> rd.Dataset:
    # instance-as-UDF task pool: no per-actor state, uses every free
    # CPU, cannot deadlock against other stages (see the pool-policy
    # note in stages/audio_prep.py)
    return ds.map_batches(AudioFeatureStage(), batch_format="pyarrow",
                          batch_size=batch_size,
                          concurrency=concurrency, num_cpus=1)


class VideoFrameSampleStage:
    """STUB codec, real plumbing: sample every ``stride``-th frame of an
    opaque video payload — one output row per sampled frame.

    The container has no video libs, so ``fake`` mode treats the payload
    as ``n_frames`` equal-size concatenated frames (deterministic, lets
    tests pin byte-exact output); ``strict`` raises.  The Ray-side shape
    is the real one: actor-pool ``map_batches`` with SMALL batches (wide
    binary rows), frame slices taken as zero-copy memoryviews, and a
    row-explode output layout ``(id, frame_idx, frame_bytes)`` ready for
    a downstream feature stage.  At 100 TB keep ``stride`` high or chain
    a feature stage in the SAME actor so raw frames never hit the object
    store.
    """

    def __init__(self, stride: int = 10, mode: str = "fake",
                 id_col: str = "clip_id"):
        if mode not in ("fake", "strict"):
            raise ValueError(mode)
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride
        self.mode = mode
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.mode == "strict":
            raise NotImplementedError(
                "video decoding requires pyav/opencv, not present in this "
                "container; run with mode='fake' for plumbing tests")
        ids, idxs, frames = [], [], []
        payloads = batch["bytes"].to_pylist()
        n_frames = batch["n_frames"].to_numpy()
        id_vals = batch[self.id_col].to_pylist()
        for rid, payload, nf in zip(id_vals, payloads, n_frames):
            if not payload or nf <= 0:
                continue
            fs = len(payload) // int(nf)
            mv = memoryview(payload)
            for fi in range(0, int(nf), self.stride):
                ids.append(rid)
                idxs.append(fi)
                frames.append(bytes(mv[fi * fs:(fi + 1) * fs]))
        return pa.table({self.id_col: pa.array(ids),
                         "frame_idx": pa.array(idxs, type=pa.int64()),
                         "frame_bytes": pa.array(frames, type=pa.binary())})


def sample_video_frames(ds: rd.Dataset, *, stride: int = 10,
                        concurrency=(1, 8), batch_size: int = 64,
                        id_col: str = "clip_id") -> rd.Dataset:
    """Actor-pool frame sampling over an opaque video column."""
    return ds.map_batches(
        VideoFrameSampleStage,
        fn_constructor_kwargs=dict(stride=stride, id_col=id_col),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)
