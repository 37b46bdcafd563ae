"""Outside-in tracer for pitchlab.

The tracer wraps pitchlab's public names from the benchmark's side: module
functions (at every module that imported them), the REGISTRY note
functions, NoteAnalysis's cached properties and a few class methods. No
file under src/ knows about it. Each call records one span:

    (span_id, parent_id, pid, name, start, end, info)

span ids are (pid, n) pairs; info is a small dict or None. Spans live in
memory. A forked `bench` worker starts with an empty span list and spills
its spans to a pickle file after every benchmark task; `collect` merges
those files with the parent's spans. Self time is a span's duration minus
the part of it that same-process child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pickle
import time
import weakref
from collections import defaultdict
from functools import cached_property
from pathlib import Path

from stats import median, vote_spread_cents

METHODS = ("acf", "nsdf", "yin", "hps", "stft", "ml", "cepstrum", "srh")
NOISE_KINDS = ("white", "pink", "hum50", "babble")


class Tracer:
    """Records spans around wrapped callables; `install` wraps, `uninstall` restores."""

    def __init__(self, spill_dir):
        self.spill_dir = Path(spill_dir)
        self.spans: list[tuple] = []
        self._stack: list[tuple] = []
        self._next = 0
        self._pid = os.getpid()
        self._owner = self._pid
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, describe=None, spill=False):
        """Return fn wrapped in a span; describe(args, kwargs, result) gives info."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = (tracer._pid, tracer._next)
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, tracer._pid, name, t0, t1, {"raised": type(exc).__name__}))
                raise
            t1 = time.perf_counter()
            tracer._stack.pop()
            info = describe(args, kwargs, result) if describe else None
            tracer.spans.append((sid, parent, tracer._pid, name, t0, t1, info))
            if spill and tracer._pid != tracer._owner:
                tracer._spill()
            return result

        return traced

    def _after_fork(self):
        self._pid = os.getpid()
        self.spans = []
        self._stack = []

    def _spill(self):
        with open(self.spill_dir / f"spans-{self._pid}.pkl", "ab") as fh:
            pickle.dump(self.spans, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.spans = []

    def collect(self) -> list[tuple]:
        """The parent's spans plus every span spilled by forked workers."""
        merged = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.pkl")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        merged.extend(pickle.load(fh))
                    except EOFError:
                        break
        return merged

    # -- patching ----------------------------------------------------------

    def patch_function(self, modules, attr, name, describe=None, spill=False):
        """Wrap one function at every module that binds it under `attr`."""
        original = getattr(modules[0], attr)
        traced = self.wrap(name, original, describe, spill)
        for module in modules:
            if getattr(module, attr) is original:
                setattr(module, attr, traced)
                self._undo.append((setattr, module, attr, original))

    def patch_method(self, cls, attr, name, describe=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, describe))
        self._undo.append((setattr, cls, attr, original))

    def patch_cached_property(self, cls, attr, name):
        original = cls.__dict__[attr]
        prop = cached_property(self.wrap(name, original.func))
        prop.__set_name__(cls, attr)
        setattr(cls, attr, prop)
        self._undo.append((setattr, cls, attr, original))

    def patch_registry(self, registry, describe=None):
        for method, entry in list(registry.items()):
            traced = self.wrap(f"estimators.{method}", entry.note_fn, describe)
            registry[method] = dataclasses.replace(entry, note_fn=traced)
            self._undo.append((dict.__setitem__, registry, method, entry))

    def install(self):
        """Wrap pitchlab's public names. Call after pitchlab is imported."""
        from pitchlab import audio_io, cli, ensemble, estimators, evaluation, noise, sigproc

        self.spill_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.spill_dir.glob("spans-*.pkl"):
            stale.unlink()
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: ref() and ref()._after_fork())

        self.patch_function([cli], "main", "cli.main")
        self.patch_function([audio_io, cli, evaluation, noise], "read_wav", "audio_io.read_wav", _wav_bytes)
        self.patch_function([audio_io, cli, evaluation], "write_wav", "audio_io.write_wav")
        self.patch_function([estimators, sigproc], "frame_signal", "sigproc.frame_signal", _frame_count)
        self.patch_function([estimators, sigproc], "magnitude_spectrum", "sigproc.magnitude_spectrum")
        self.patch_method(sigproc.Spectrum, "__post_init__", "sigproc.Spectrum")
        self.patch_method(estimators.NoteAnalysis, "__init__", "estimators.NoteAnalysis")
        for prop in ("hann_frames", "spectra", "spectrogram", "rect_corr"):
            self.patch_cached_property(estimators.NoteAnalysis, prop, f"estimators.analysis.{prop}")
        self.patch_registry(estimators.REGISTRY, _voiced_frames)
        self.patch_function([estimators], "lpc_residual", "estimators.lpc_residual")
        self.patch_function([ensemble, cli], "ensemble_estimate", "ensemble.ensemble_estimate")
        self.patch_function([ensemble], "member_votes", "ensemble.member_votes")
        self.patch_function([ensemble, evaluation], "fuse_votes", "ensemble.fuse_votes", _fusion)
        self.patch_method(noise.NoiseRef, "resolve", "noise.NoiseRef.resolve")
        self.patch_function([noise, cli], "synth_noise", "noise.synth_noise", _noise_kind)
        self.patch_function([noise, cli, evaluation], "mix_at_snr", "noise.mix_at_snr", _clipped)
        self.patch_function([evaluation, cli], "run_benchmark", "evaluation.run_benchmark")
        self.patch_function([evaluation, cli], "materialize_songs", "evaluation.materialize_songs")
        self.patch_function([evaluation], "_benchmark_task", "evaluation.benchmark_task", spill=True)

    def uninstall(self):
        for setter, target, key, original in reversed(self._undo):
            setter(target, key, original)
        self._undo.clear()


# -- span info -------------------------------------------------------------


def _wav_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _frame_count(args, kwargs, result):
    return {"frames": len(result)}


def _voiced_frames(args, kwargs, result):
    if result.per_frame is None:
        return {"f0": result.f0, "voiced": int(result.voiced), "frames": 1}
    voiced = sum(1 for v in result.per_frame if v is not None)
    return {"f0": result.f0, "voiced": voiced, "frames": len(result.per_frame)}


def _fusion(args, kwargs, result):
    votes = args[0] if args else kwargs["votes"]
    return {"spread": vote_spread_cents(list(votes)), "miss": int(result is None)}


def _noise_kind(args, kwargs, result):
    return {"kind": args[0] if args else kwargs["kind"]}


def _clipped(args, kwargs, result):
    return {"clipped": int((abs(result.samples) > 1.0).sum())}


# -- analysis --------------------------------------------------------------


def self_times(spans) -> dict:
    """Self time of every span: its duration minus what its children cover.

    Only children in the span's own process count; a child interval is
    clipped to its parent and overlapping children are counted once.
    """
    children = defaultdict(list)
    for sid, parent, pid, _name, t0, t1, _info in spans:
        if parent is not None and parent[0] == pid:
            children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _pid, _name, t0, t1, _info in spans:
        covered = 0.0
        cursor = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(spans, jobs: int) -> dict[str, float]:
    """Per-layer counts and self times (seconds) from a merged span list."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    info_sum = defaultdict(int)
    spreads = []
    for span in spans:
        sid, _parent, _pid, name, t0, t1, info = span
        if name == "noise.synth_noise" and info and "kind" in info:
            name = f"noise.synth_noise.{info['kind']}"
        calls[name] += 1
        self_s[name] += own[sid]
        total_s[name] += t1 - t0
        if not info:
            continue
        if info.get("raised") == "LpcUnstable":
            info_sum["estimators.lpc_unstable"] += 1
        for key in ("bytes", "frames", "voiced", "miss", "unvoiced", "clipped"):
            if key in info:
                info_sum[f"{name}.{key}"] += info[key]
        if info.get("spread") is not None:
            spreads.append(info["spread"])

    m: dict[str, float] = {}
    m["cli.main.self_s"] = self_s["cli.main"]
    m["audio_io.read_wav.calls"] = calls["audio_io.read_wav"]
    m["audio_io.read_wav.s"] = self_s["audio_io.read_wav"]
    m["audio_io.read_wav.bytes"] = info_sum["audio_io.read_wav.bytes"]
    m["audio_io.write_wav.s"] = self_s["audio_io.write_wav"]
    m["sigproc.frame_signal.calls"] = calls["sigproc.frame_signal"]
    m["sigproc.frame_signal.s"] = self_s["sigproc.frame_signal"]
    m["sigproc.frames"] = info_sum["sigproc.frame_signal.frames"]
    m["sigproc.Spectrum.count"] = calls["sigproc.Spectrum"]
    m["sigproc.Spectrum.s"] = self_s["sigproc.Spectrum"]
    m["sigproc.magnitude_spectrum.calls"] = calls["sigproc.magnitude_spectrum"]
    m["sigproc.magnitude_spectrum.s"] = self_s["sigproc.magnitude_spectrum"]
    m["estimators.NoteAnalysis.count"] = calls["estimators.NoteAnalysis"]
    for prop in ("hann_frames", "spectra", "spectrogram", "rect_corr"):
        m[f"estimators.analysis.{prop}.s"] = self_s[f"estimators.analysis.{prop}"]
    for method in METHODS:
        name = f"estimators.{method}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        frames = info_sum[f"{name}.frames"]
        m[f"{name}.voiced_frame_frac"] = info_sum[f"{name}.voiced"] / frames if frames else 0.0
    m["estimators.lpc_residual.calls"] = calls["estimators.lpc_residual"]
    m["estimators.lpc_residual.s"] = self_s["estimators.lpc_residual"]
    m["estimators.lpc_unstable"] = info_sum["estimators.lpc_unstable"]
    m["ensemble.ensemble_estimate.self_s"] = self_s["ensemble.ensemble_estimate"]
    m["ensemble.member_votes.s"] = self_s["ensemble.member_votes"]
    m["ensemble.fuse_votes.calls"] = calls["ensemble.fuse_votes"]
    m["ensemble.fuse_votes.s"] = self_s["ensemble.fuse_votes"]
    m["ensemble.fuse_votes.quorum_miss"] = info_sum["ensemble.fuse_votes.miss"]
    m["ensemble.vote_spread_cents_p50"] = median(spreads) if spreads else 0.0
    m["noise.NoiseRef.resolve.calls"] = calls["noise.NoiseRef.resolve"]
    m["noise.NoiseRef.resolve.s"] = self_s["noise.NoiseRef.resolve"]
    for kind in NOISE_KINDS:
        m[f"noise.synth_noise.{kind}.calls"] = calls[f"noise.synth_noise.{kind}"]
        m[f"noise.synth_noise.{kind}.s"] = self_s[f"noise.synth_noise.{kind}"]
    m["noise.mix_at_snr.calls"] = calls["noise.mix_at_snr"]
    m["noise.mix_at_snr.s"] = self_s["noise.mix_at_snr"]
    m["noise.clipped_samples"] = info_sum["noise.mix_at_snr.clipped"]
    wall = total_s["evaluation.run_benchmark"]
    busy = total_s["evaluation.benchmark_task"]
    m["evaluation.run_benchmark.s"] = self_s["evaluation.run_benchmark"]
    m["evaluation.worker_busy_s"] = busy
    m["evaluation.parallel_efficiency"] = busy / (jobs * wall) if wall else 0.0
    m["evaluation.materialize_songs.s"] = self_s["evaluation.materialize_songs"]
    return m


def note_estimates(spans, method: str, start: float, end: float) -> list:
    """f0s returned by one method's note function between two instants, in call order."""
    name = f"estimators.{method}"
    hits = sorted(
        (t0, info["f0"])
        for _sid, _parent, _pid, span_name, t0, _t1, info in spans
        if span_name == name and start <= t0 <= end and info
    )
    return [f0 for _t0, f0 in hits]
