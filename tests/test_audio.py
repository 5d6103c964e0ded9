import csv
import itertools
import os
import re
import struct
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from qpae import harness
from qpae.audio import (HANN, HOP, N_FFT, OVERLAP_PROFILE, PROFILES, SYNTH_CHUNK,
                        ManifestError, SynthProfile, WavClip, WavParseError,
                        _framed_power, crop_span, hz_to_mel, load_manifest, log_mel_batch,
                        log_mel_spectrogram, mel_filterbank, mel_to_hz, read_wav,
                        synth_clip, synth_dataset, synth_draws, synth_manifest, synth_waves,
                        write_wav)
from qpae.data import train_eval_split
from qpae.model import Classifier, TrainConfig, cross_entropy_loss, train
from qpae.rng import Rng, derive_seed

from helpers import (next_u64, one_hot, predict_classes, randbelow, reference_draws,
                     reference_log_mel_batch, reference_read_wav, uniform, write_manifest)

SR = 8000


def power_spectrogram(clip):
    """The framing `log_mel_batch` uses, for one clip: Hann-windowed
    |rfft|^2 per frame, shape (N_FFT//2 + 1, frames), a short clip
    zero-padded to one frame."""
    x = clip.samples
    if x.size < N_FFT:
        x = np.concatenate([x, np.zeros(N_FFT - x.size)])
    return _framed_power(x[None, :])[0].T


def wav_bytes(payload: bytes, fmt_tag: int, channels: int, sample_rate: int, bits: int,
              before: bytes = b"", after: bytes = b"") -> bytes:
    """A RIFF/WAVE file whose data chunk holds payload, padded to a word;
    extra chunks may come before the fmt chunk and after the data chunk."""
    block = channels * bits // 8
    body = (b"WAVE" + before
            + struct.pack("<4sIHHIIHH", b"fmt ", 16, fmt_tag, channels, sample_rate,
                          sample_rate * block, block, bits)
            + struct.pack("<4sI", b"data", len(payload)) + payload
            + b"\0" * (len(payload) & 1) + after)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def pcm16_wav_bytes(samples, sample_rate=SR, channels=1):
    return wav_bytes(np.asarray(samples, dtype="<i2").tobytes(), 1, channels, sample_rate, 16)


def float32_wav_bytes(samples, sample_rate=SR):
    return wav_bytes(np.asarray(samples, dtype="<f4").tobytes(), 3, 1, sample_rate, 32)


class TestReadWav:
    def test_pcm16_scaling(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(pcm16_wav_bytes([0, 16384, -32768]))
        clip = read_wav(p)
        assert clip.sample_rate == SR
        assert clip.samples.tolist() == [0.0, 0.5, -1.0]

    def test_stereo_averaged_to_mono(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(pcm16_wav_bytes([32767, 0], channels=2))
        clip = read_wav(p)
        assert clip.samples.shape == (1,)
        assert clip.samples[0] == pytest.approx(32767 / 32768 / 2)

    def test_float32_payload(self, tmp_path):
        p = tmp_path / "f.wav"
        p.write_bytes(float32_wav_bytes([0.25, -0.5]))
        assert read_wav(p).samples.tolist() == [0.25, -0.5]

    @pytest.mark.parametrize("blob", [
        pcm16_wav_bytes([0, 1], sample_rate=0),
        float32_wav_bytes([0.0], sample_rate=0),
        float32_wav_bytes([0.25, np.nan]),
        float32_wav_bytes([np.inf, 0.5]),
        float32_wav_bytes([-np.inf]),
        wav_bytes(struct.pack("<I", 0x7F800001), 3, 1, SR, 32)],
        ids=["pcm16_rate0", "float32_rate0", "nan", "inf", "neg_inf", "signalling_nan"])
    def test_bad_values_are_parse_errors(self, tmp_path, blob):
        """Each is a WavParseError, raised without a numpy warning."""
        p = tmp_path / "x.wav"
        p.write_bytes(blob)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WavParseError):
                read_wav(p)

    def test_rifx_rejected(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(b"RIFX" + pcm16_wav_bytes([0])[4:])
        with pytest.raises(WavParseError, match="big-endian RIFX files are not supported"):
            read_wav(p)

    def test_unsupported_codec(self, tmp_path):
        blob = bytearray(pcm16_wav_bytes([0, 1]))
        blob[20:22] = struct.pack("<H", 7)  # mu-law format tag
        p = tmp_path / "x.wav"
        p.write_bytes(bytes(blob))
        with pytest.raises(WavParseError, match="unsupported codec: format tag 7, 16-bit"):
            read_wav(p)

    def test_missing_chunks(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", 4) + b"WAVE")
        with pytest.raises(WavParseError, match="missing fmt chunk"):
            read_wav(p)

    def test_truncated_data_chunk(self, tmp_path):
        blob = pcm16_wav_bytes(list(range(100)))
        p = tmp_path / "x.wav"
        p.write_bytes(blob[:-50])
        with pytest.raises(WavParseError, match="chunk b'data' extends past end of file"):
            read_wav(p)

    def test_write_read_round_trip(self, tmp_path):
        rng = Rng(4)
        clip = WavClip(SR, uniform(rng, 500, low=-1.0, high=1.0))
        p = tmp_path / "rt.wav"
        write_wav(clip, p)
        back = read_wav(p)
        assert back.samples.size == clip.samples.size
        assert np.max(np.abs(back.samples - clip.samples)) <= 1.0 / 32768


def sine_clip(freq, n=2048, amp=1.0):
    t = np.arange(n) / SR
    return WavClip(SR, amp * np.sin(2 * np.pi * freq * t))


class TestLogMel:
    def test_silence_is_exactly_log_floor(self):
        clip = WavClip(SR, np.zeros(4000))
        feat = log_mel_spectrogram(clip)
        assert feat.shape == (32, 32)
        assert np.all(feat == np.log(1e-6))

    def test_sine_energy_lands_in_its_mel_band(self):
        # oracle: direct O(n^2) DFT of one windowed frame, no fft call
        n_fft, n_mels = N_FFT, 32
        filt = mel_filterbank(SR, n_mels)
        window = HANN
        for k_bin in (8, 16, 24, 40, 60):
            freq = k_bin * SR / n_fft
            clip = sine_clip(freq)
            frame = clip.samples[:n_fft] * window
            angles = -2j * np.pi * np.outer(np.arange(n_fft // 2 + 1), np.arange(n_fft)) / n_fft
            direct = np.abs(np.exp(angles) @ frame) ** 2
            expected_band = int(np.argmax(filt @ direct))
            feat = log_mel_spectrogram(clip, n_mels=n_mels, target_frames=8)
            assert int(np.argmax(feat.mean(axis=1))) == expected_band

    def test_gain_shifts_log_power_by_log4(self):
        quiet = sine_clip(500.0, amp=1.0)
        loud = sine_clip(500.0, amp=2.0)
        f_q = log_mel_spectrogram(quiet, target_frames=8)
        f_l = log_mel_spectrogram(loud, target_frames=8)
        # the additive 1e-6 floor perturbs log(power) by ~1e-6/power, so the
        # 1e-9 tolerance is only meaningful on strongly excited bins
        strong = f_q > np.log(1000.0)
        assert strong.any()
        diff = (f_l - f_q)[strong]
        assert np.max(np.abs(diff - np.log(4.0))) <= 1e-9

    def test_short_clip_zero_padded(self):
        clip = WavClip(SR, np.ones(10))
        feat = log_mel_spectrogram(clip, target_frames=4)
        assert feat.shape == (32, 4)
        assert np.all(np.isfinite(feat))

    def test_parseval_energy_reaches_spectrum(self):
        # full-spectrum power (interior rfft bins doubled) vs windowed
        # time-domain energy; nothing should be lost
        n_fft = N_FFT
        window = HANN
        for i in range(10):
            freq = 150.0 + 370.0 * i
            clip = sine_clip(freq, n=n_fft)
            power = power_spectrogram(clip)[:, 0]
            spectral = power[0] + power[-1] + 2.0 * power[1:-1].sum()
            time_energy = n_fft * np.sum((clip.samples[:n_fft] * window) ** 2)
            assert spectral >= 0.9 * time_energy
            assert spectral <= 1.1 * time_energy

    def test_mel_scale_round_trip(self):
        freqs = np.array([100.0, 700.0, 3999.0])
        assert np.allclose(mel_to_hz(hz_to_mel(freqs)), freqs, rtol=1e-12)

    @pytest.mark.parametrize("n", [100, 256, 257, 1000, 6437, 6400, 3001, 700])
    def test_power_spectrogram_matches_slice_loop(self, n):
        # reference: one slice per frame, stacked, as the framing was first written
        clip = WavClip(SR, Rng(n).normal(n, sigma=0.3))
        n_fft, hop = N_FFT, HOP
        x = clip.samples
        if x.size < n_fft:
            x = np.concatenate([x, np.zeros(n_fft - x.size)])
        n_frames = 1 + (x.size - n_fft) // hop
        frames = np.stack([x[t * hop:t * hop + n_fft] for t in range(n_frames)])
        spec = np.fft.rfft(frames * HANN, axis=1)
        want = (spec.real ** 2 + spec.imag ** 2).T
        got = power_spectrogram(clip)
        assert got.shape == want.shape == (n_fft // 2 + 1, n_frames)
        assert np.array_equal(got, want)

    def test_mel_filterbank_is_one_read_only_array_per_pair(self):
        a = mel_filterbank(SR, 32)
        assert mel_filterbank(SR, 32) is a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        b = mel_filterbank(SR, 16)
        assert b is not a and b.shape == (16, 129)

    def test_validation(self):
        clip = sine_clip(440.0)
        with pytest.raises(ValueError):
            log_mel_spectrogram(clip, n_mels=200)


class TestSynth:
    def test_deterministic(self):
        a = synth_dataset(4, 3, seed=7, n_mels=16, n_frames=8)
        b = synth_dataset(4, 3, seed=7, n_mels=16, n_frames=8)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels(), b.labels())

    def test_per_class_counts(self):
        data = synth_dataset(5, 4, seed=1, n_mels=8, n_frames=8)
        assert np.bincount(data.original_classes).tolist() == [4] * 5

    def test_noiseless_classes_linearly_separable(self):
        # oracle: train a linear probe; 100% train accuracy expected
        profile = SynthProfile(noise_sigma=0.0)
        data = synth_dataset(2, 50, seed=3, n_mels=16, n_frames=8, profile=profile)
        probe = Classifier.random_init(data.feature_dim, [], 2, Rng(2))
        train(probe, data, TrainConfig(learning_rate=0.1, epochs=30, seed=4),
              cross_entropy_loss)
        assert np.all(predict_classes(probe, data.features) == data.original_classes)

    def test_features_always_finite(self):
        rng = Rng(88)
        for i in range(1000):
            clip = synth_clip(int(randbelow(rng, 10)), rng)
            assert np.all(np.isfinite(clip.samples))
        data = synth_dataset(3, 5, seed=12, n_mels=8, n_frames=8)
        assert np.all(np.isfinite(data.features))

    def test_samples_stay_in_range(self):
        rng = Rng(5)
        for c in range(8):
            clip = synth_clip(c, rng)
            assert np.max(np.abs(clip.samples)) <= 1.0


def reference_log_mel(clip, n_mels=32, target_frames=32):
    """Log-mel of one clip as first written: pad, frame, one 2-D mel product,
    log, then crop."""
    n_fft, hop = 256, 128
    x = clip.samples
    needed = n_fft + (target_frames - 1) * hop
    if x.size < needed:
        x = np.concatenate([x, np.zeros(needed - x.size)])
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    spec = np.fft.rfft(frames * window, axis=1)
    power = (spec.real ** 2 + spec.imag ** 2).T
    values = np.log(1e-6 + mel_filterbank(clip.sample_rate, n_mels) @ power)
    start = (values.shape[1] - target_frames) // 2
    return values[:, start:start + target_frames]


def reference_synth_clip(class_id, rng, profile=None):
    """One tone as first written: scalar jitter draw, one sine per harmonic
    clear of Nyquist, then Box-Muller noise as Rng.normal first drew it."""
    p = profile or SynthProfile()
    jitter = uniform(rng, low=-p.freq_jitter, high=p.freq_jitter)
    f0 = (p.base_freq + p.class_spacing * class_id) * (1.0 + jitter)
    n = p.n_samples
    t = np.arange(n) / p.sample_rate
    x = np.zeros(n)
    for k, amp in enumerate(p.harmonic_amps, start=1):
        f = k * f0
        if f < 0.45 * p.sample_rate:
            x += amp * np.sin(2.0 * np.pi * f * t)
    pairs = (n + 1) // 2
    raw = rng.fill_u64(2 * pairs)
    u1 = ((raw[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
    x += 0.0 + p.noise_sigma * z
    return WavClip(p.sample_rate, np.clip(x, -1.0, 1.0))


def serial_synth_dataset(num_classes, per_class, seed, n_mels, n_frames, profile=None):
    """synth_dataset as a serial loop of the oracles: one shared Rng, whole
    clips one after another, each through reference_log_mel."""
    rng = Rng(seed)
    feats, classes = [], []
    for c in range(num_classes):
        for _ in range(per_class):
            clip = reference_synth_clip(c, rng, profile)
            feats.append(reference_log_mel(clip, n_mels=n_mels,
                                           target_frames=n_frames).reshape(-1))
            classes.append(c)
    labels = np.stack([one_hot(c, num_classes) for c in classes])
    return np.stack(feats), labels, np.array(classes, dtype=np.int64)


# the samples 32 frames read: a clip this long fills them without padding
NEEDED_32 = N_FFT + 31 * HOP


class TestBatchedFrontEnd:
    @pytest.mark.parametrize("n, target_frames", [
        (6400, 32), (6400, 49), (6400, 1), (4096, 8), (10, 4), (10, 1), (300, 32),
        (NEEDED_32 - 1, 32), (NEEDED_32, 32), (NEEDED_32 + 1, 32),
        (NEEDED_32 + HOP - 1, 32), (NEEDED_32 + HOP, 32)])
    def test_log_mel_spectrogram_matches_reference(self, n, target_frames):
        clip = WavClip(SR, Rng(n).normal(n, sigma=0.3))
        got = log_mel_spectrogram(clip, target_frames=target_frames)
        assert np.array_equal(got, reference_log_mel(clip, target_frames=target_frames))

    @pytest.mark.parametrize("m, n", [(1, 6400), (8, 6400), (13, 6400), (50, 6400),
                                      (5, 10), (9, 3000)])
    def test_each_batch_row_equals_its_single_clip(self, m, n):
        x = Rng(m * n).normal(m * n, sigma=0.2).reshape(m, n)
        lo, hi = crop_span(n, 8)
        batch = log_mel_batch(x[:, lo:hi], SR, n, n_mels=16, target_frames=8)
        assert batch.shape == (m, 16, 8)
        for row, samples in zip(batch, x):
            single = log_mel_spectrogram(WavClip(SR, samples), n_mels=16, target_frames=8)
            assert np.array_equal(row, single)

    def test_batch_validation(self):
        x = np.zeros((2, 6400))
        lo, hi = crop_span(6400, 32)
        with pytest.raises(ValueError):
            log_mel_batch(x[:, lo:hi], SR, 6400, n_mels=200)
        with pytest.raises(ValueError):
            log_mel_batch(x, SR, 6400, target_frames=0)
        with pytest.raises(ValueError, match="crop span"):
            log_mel_batch(x[:, :5000], SR, 6400)

    @pytest.mark.parametrize("n, target_frames, want", [
        (6400, 32, (1024, 5248)),    # 49 frames, the middle 32: frames 8 to 39
        (6400, 33, (1024, 5376)),    # frames 8 to 40
        (6400, 1, (3072, 3328)),     # frame 24 alone
        (6400, 49, (0, 6400)),       # every frame: 48 * HOP + N_FFT samples
        (6400, 64, (0, 6400)),       # zero-padded: the whole clip
        (NEEDED_32 - 1, 32, (0, NEEDED_32 - 1)),
        (NEEDED_32, 32, (0, NEEDED_32)),
        (NEEDED_32 + HOP, 32, (0, NEEDED_32)),   # 33 frames: frames 0 to 31
        (NEEDED_32 + 2 * HOP, 32, (HOP, NEEDED_32 + HOP)),
        (10, 4, (0, 10))])
    def test_crop_span(self, n, target_frames, want):
        assert crop_span(n, target_frames) == want

    @pytest.mark.parametrize("n", [10, 300, NEEDED_32 - 1, NEEDED_32, NEEDED_32 + 1,
                                   NEEDED_32 + HOP - 1, NEEDED_32 + HOP, 6400, 9000])
    @pytest.mark.parametrize("target_frames", [1, 8, 32, 33, 49, 64])
    def test_features_read_only_the_crop_span(self, n, target_frames):
        """The features of whole clips equal those of their crop span alone,
        and samples outside the span change nothing."""
        x = Rng(n + target_frames).normal(3 * n, sigma=0.3).reshape(3, n)
        lo, hi = crop_span(n, target_frames)
        want = reference_log_mel_batch(x, SR, target_frames=target_frames)
        got = log_mel_batch(x[:, lo:hi], SR, n, target_frames=target_frames)
        assert got.tobytes() == want.tobytes()
        outside = x.copy()
        outside[:, :lo] = 0.5
        outside[:, hi:] = -0.5
        for samples, row in zip(outside, want):
            got = log_mel_spectrogram(WavClip(SR, samples), target_frames=target_frames)
            assert got.tobytes() == row.tobytes()

    @pytest.mark.parametrize("profile", [
        PROFILES["default"], OVERLAP_PROFILE, SynthProfile(noise_sigma=0.0),
        SynthProfile(duration_s=0.000625)])  # 5 samples: an odd noise count
    def test_synth_clip_takes_the_documented_draws(self, profile):
        used = Rng(21)
        synth_clip(3, used, profile)
        assert next_u64(used) == reference_draws(21, synth_draws(profile), 1)[0]

    def test_draw_counts(self):
        assert synth_draws() == 1 + 6400
        assert synth_draws(SynthProfile(duration_s=0.000625)) == 1 + 6


# classes 8 and up lose the third harmonic to the Nyquist guard, class 30 all three
MIXED_CLASSES = [0, 8, 3, 30, 7, 9, 1, 12, 5, 2, 10, 4, 6]


class TestSynthWaves:
    @pytest.mark.parametrize("profile", [
        PROFILES["default"], OVERLAP_PROFILE, SynthProfile(noise_sigma=0.0),
        SynthProfile(duration_s=0.100125)],  # 801 samples: an odd noise count
        ids=["default", "overlap", "noiseless", "odd_n"])
    @pytest.mark.parametrize("m", [1, 3, 8, 13])
    def test_rows_equal_the_scalar_oracle(self, profile, m):
        class_ids = MIXED_CLASSES[:m]
        oracle = Rng(m)
        want = [reference_synth_clip(c, oracle, profile).samples for c in class_ids]
        raw = Rng(m).fill_u64(m * synth_draws(profile))
        waves = synth_waves(class_ids, raw, profile, (0, profile.n_samples))
        assert waves.shape == (m, profile.n_samples)
        assert np.array_equal(waves, np.stack(want))

    @pytest.mark.parametrize("profile", [
        PROFILES["default"], OVERLAP_PROFILE,
        SynthProfile(duration_s=0.100125)],  # 801 samples: an odd noise count
        ids=["default", "overlap", "odd_n"])
    @pytest.mark.parametrize("n_frames", [1, 8, 32, 33, 49, 64])
    def test_a_span_is_those_columns_of_the_whole_clips(self, profile, n_frames):
        m = 5
        raw = Rng(n_frames).fill_u64(m * synth_draws(profile))
        whole = synth_waves(MIXED_CLASSES[:m], raw, profile, (0, profile.n_samples))
        for lo, hi in [crop_span(profile.n_samples, n_frames), (0, 1),
                       (profile.n_samples - 1, profile.n_samples)]:
            got = synth_waves(MIXED_CLASSES[:m], raw, profile, (lo, hi))
            assert got.tobytes() == whole[:, lo:hi].tobytes()

    def test_synth_clip_is_a_chunk_of_one(self):
        rng, oracle = Rng(17), Rng(17)
        for c in MIXED_CLASSES:
            clip = synth_clip(c, rng, OVERLAP_PROFILE)
            assert clip.sample_rate == OVERLAP_PROFILE.sample_rate
            assert np.array_equal(clip.samples,
                                  reference_synth_clip(c, oracle, OVERLAP_PROFILE).samples)


@pytest.fixture()
def pool_sizes(monkeypatch):
    """The max_workers of every thread pool synth_dataset starts."""
    import concurrent.futures
    sizes = []
    real = concurrent.futures.ThreadPoolExecutor

    class Recording(real):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return sizes


class TestThreadedSynth:
    @pytest.mark.parametrize("k, per_class, n_mels, n_frames, profile", [
        (10, 20, 32, 32, PROFILES["default"]),
        (5, 13, 16, 8, OVERLAP_PROFILE),                   # 65 clips: 8 chunks + 1
        (3, 7, 16, 8, SynthProfile(noise_sigma=0.0)),
        (2, 3, 8, 8, PROFILES["default"]),                 # under one chunk
        (3, 4, 8, 8, SynthProfile(duration_s=0.01)),       # padded short clips
        (3, 5, 16, 1, PROFILES["default"]),                # one frame: an odd crop
        (3, 5, 16, 33, OVERLAP_PROFILE),                   # an odd frame count
        (3, 5, 16, 49, PROFILES["default"]),               # every frame: no crop
        (3, 5, 8, 64, PROFILES["default"]),                # zero padding
    ])
    def test_equals_serial_loop(self, k, per_class, n_mels, n_frames, profile):
        data = synth_dataset(k, per_class, seed=k * 100 + per_class, n_mels=n_mels,
                             n_frames=n_frames, profile=profile)
        feats, labels, classes = serial_synth_dataset(
            k, per_class, k * 100 + per_class, n_mels, n_frames, profile)
        assert np.array_equal(data.features, feats)
        assert np.array_equal(data.labels(), labels)
        assert np.array_equal(data.original_classes, classes)

    @pytest.mark.parametrize("cpus, want", [({0}, 1), (set(range(5)), 5)])
    def test_worker_count_follows_affinity(self, monkeypatch, pool_sizes, cpus, want):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: cpus, raising=False)
        data = synth_dataset(4, 11, seed=3, n_mels=8, n_frames=8)
        assert pool_sizes == [want]
        feats, _, _ = serial_synth_dataset(4, 11, 3, 8, 8)
        assert np.array_equal(data.features, feats)

    def test_many_workers_switching_often(self, monkeypatch):
        # more workers than cores, a cold filterbank cache and a thread
        # switch every microsecond: the rows must still land in place
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        mel_filterbank.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            data = synth_dataset(5, 13, seed=8, n_mels=16, n_frames=8)
        finally:
            sys.setswitchinterval(interval)
        feats, _, _ = serial_synth_dataset(5, 13, 8, 16, 8)
        assert np.array_equal(data.features, feats)

    def test_no_more_workers_than_chunks(self, monkeypatch, pool_sizes):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        synth_dataset(2, SYNTH_CHUNK, seed=3, n_mels=8, n_frames=8)
        assert pool_sizes == [2]

    def test_cpu_count_without_affinity(self, monkeypatch, pool_sizes):
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        synth_dataset(4, 11, seed=3, n_mels=8, n_frames=8)
        assert pool_sizes == [3]


def serial_synth_manifest(root, num_classes, per_class, seed, profile):
    """cmd_synth's directory as a serial loop over reference tones."""
    rng = Rng(seed)
    (root / "wavs").mkdir(parents=True)
    rows = [["path", "class_id"]]
    for i, c in enumerate(c for c in range(num_classes) for _ in range(per_class)):
        rel = f"wavs/clip_{i:05d}.wav"
        write_wav(reference_synth_clip(c, rng, profile), root / rel)
        rows.append([rel, c])
    with open(root / "labels.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def tree_bytes(root):
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*"))
            if f.is_file()}


class TestSynthManifest:
    @pytest.mark.parametrize("profile", ["default", "overlap"])
    @pytest.mark.parametrize("cpus, want", [({0}, 1), (set(range(5)), 5)])
    def test_cmd_synth_equals_serial_writer(self, monkeypatch, pool_sizes, tmp_path,
                                            profile, cpus, want):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: cpus, raising=False)
        cfg = harness.default_config("single", seed=23, dataset=harness.DatasetSpec(
            kind="synthetic", num_classes=4, per_class=11, profile=profile))
        harness.cmd_synth(cfg, tmp_path / "got")
        assert pool_sizes == [want]
        serial_synth_manifest(tmp_path / "want", 4, 11,
                              derive_seed(23, harness._SEED_DATA), PROFILES[profile])
        got, expected = tree_bytes(tmp_path / "got"), tree_bytes(tmp_path / "want")
        assert len(got) == 1 + 44
        assert got == expected

    @pytest.mark.parametrize("k", [1, 30, 45], ids=["first_wav", "a_later_wav", "labels"])
    def test_a_failed_write_leaves_no_manifest_and_no_temporary_file(
            self, monkeypatch, tmp_path, k):
        """A synth whose k-th of 45 file writes fails (the 45th is labels.csv)
        raises, and leaves no labels.csv to train on and no temporary file."""
        writes = itertools.count(1)
        rename = os.replace

        def failing_rename(src, dst):
            if next(writes) == k:
                raise OSError("no space left")
            rename(src, dst)

        monkeypatch.setattr(os, "replace", failing_rename)
        with pytest.raises(OSError, match="no space left"):
            synth_manifest(tmp_path, 4, 11, seed=3)
        assert not (tmp_path / "labels.csv").exists()
        assert list(tmp_path.rglob("*.tmp")) == []


class TestManifest:
    def test_round_trip(self, tmp_path):
        rng = Rng(6)
        clips = [(synth_clip(c, rng), c) for c in (0, 1, 2, 1)]
        write_manifest(tmp_path, clips)
        data = load_manifest(tmp_path, num_classes=3, n_mels=8, n_frames=8)
        assert data.n_samples == 4
        assert data.num_classes == 3
        assert data.original_classes.tolist() == [0, 1, 2, 1]

    def test_class_id_out_of_range_rejected(self, tmp_path):
        rng = Rng(6)
        write_manifest(tmp_path, [(synth_clip(0, rng), 0), (synth_clip(1, rng), 5)])
        with pytest.raises(ManifestError):
            load_manifest(tmp_path, num_classes=3, n_mels=8, n_frames=8)

    def test_huge_class_id_rejected_before_any_allocation(self, tmp_path):
        rng = Rng(6)
        write_manifest(tmp_path, [(synth_clip(0, rng), 0),
                                  (synth_clip(1, rng), 1_000_000_000_000)])
        with pytest.raises(ManifestError, match="line 3: class_id 1000000000000"):
            load_manifest(tmp_path, num_classes=2, n_mels=8, n_frames=8)

    def test_bad_header_rejected(self, tmp_path):
        (tmp_path / "labels.csv").write_text("file,label\nx.wav,0\n")
        with pytest.raises(ManifestError):
            load_manifest(tmp_path, num_classes=2)

    @pytest.mark.parametrize("text", [b"path,class_id\n\xff.wav,0\n",
                                      b"path,class_id\nwavs/a\x00.wav,0\n"],
                             ids=["not_utf8", "nul_in_path"])
    def test_unreadable_rows_rejected(self, tmp_path, text):
        (tmp_path / "labels.csv").write_bytes(text)
        with pytest.raises(ManifestError):
            load_manifest(tmp_path, num_classes=2)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "nope", num_classes=2)


def test_overlap_profile_is_harder_but_learnable():
    data = synth_dataset(6, 30, seed=9, n_mels=16, n_frames=8,
                         profile=SynthProfile(class_spacing=50.0, freq_jitter=0.05))
    tr, ev = (data.subset(rows) for rows in
              train_eval_split(data.original_classes, 6, seed=2))
    m = Classifier.random_init(data.feature_dim, [32], 6, Rng(3))
    train(m, tr, TrainConfig(learning_rate=0.01, epochs=6, seed=4), cross_entropy_loss)
    acc = float(np.mean(predict_classes(m, ev.features) == ev.original_classes))
    assert acc >= 0.6


def _pcm16(n, seed):
    values = uniform(Rng(seed), n, low=-32768.0, high=32768.0).astype(np.int64)
    values[:3] = [-32768, 0, 32767]
    return values.astype("<i2").tobytes()


def _float32(n, seed):
    values = Rng(seed).normal(n, sigma=0.4).astype("<f4")
    values[:4] = [-0.0, 0.0, np.float32(1e-45), -1.0]  # signed zeros and a denormal
    return values.tobytes()


JUNK = b"JUNK" + struct.pack("<I", 3) + b"abc\0"
LIST = b"LIST" + struct.pack("<I", 4) + b"INFO"

# (payload, format tag, channels, sample rate, bits, chunk before fmt, chunk after data)
ORACLE_WAVS = {
    "pcm16_mono": (_pcm16(6400, 1), 1, 1, 8000, 16, b"", b""),
    "pcm16_stereo": (_pcm16(2 * 6400, 2), 1, 2, 8000, 16, b"", b""),
    "pcm16_stereo_part_frame": (_pcm16(2 * 500 + 1, 3), 1, 2, 8000, 16, b"", b""),
    "float32_mono": (_float32(6400, 4), 3, 1, 8000, 32, b"", b""),
    "float32_stereo": (_float32(2 * 3000, 5), 3, 2, 8000, 32, b"", b""),
    "odd_data_chunk": (_pcm16(3001, 6)[:-1], 1, 1, 8000, 16, JUNK, LIST),
    "odd_float_chunk": (_float32(1200, 7)[:-3], 3, 1, 8000, 32, b"", LIST),
    "short_clip": (_pcm16(1000, 8), 1, 1, 8000, 16, b"", b""),
    "long_clip": (_pcm16(20000, 9), 1, 1, 8000, 16, b"", b""),
    "rate_16000": (_pcm16(12800, 10), 1, 1, 16000, 16, b"", b""),
    "rate_22050_stereo": (_float32(2 * 9000, 11), 3, 2, 22050, 32, JUNK, b""),
}


class TestLeanFrontEnd:
    """`read_wav` and `log_mel_batch` against their first versions in
    helpers.py: the same bytes out, for every input."""

    @pytest.mark.parametrize("name", sorted(ORACLE_WAVS))
    def test_read_wav_and_log_mel_equal_the_oracle(self, tmp_path, name):
        payload, tag, channels, rate, bits, before, after = ORACLE_WAVS[name]
        path = tmp_path / "clip.wav"
        path.write_bytes(wav_bytes(payload, tag, channels, rate, bits, before, after))
        got, want = read_wav(path), reference_read_wav(path)
        assert got.sample_rate == want.sample_rate == rate
        assert got.samples.dtype == want.samples.dtype == np.float64
        assert got.samples.tobytes() == want.samples.tobytes()  # -0.0 is no 0.0
        for n_frames in (1, 32, 49):
            feat = log_mel_spectrogram(got, target_frames=n_frames)
            oracle = reference_log_mel_batch(want.samples[None, :], rate,
                                             target_frames=n_frames)[0]
            assert feat.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("rate", [8000, 16000])
    @pytest.mark.parametrize("n", [10, 255, 256, 4095, 4096, 4097, 6400, 9000])
    def test_log_mel_batch_equals_the_oracle(self, rate, n):
        # needed = 256 + 31 * 128 = 4224 samples fill 32 frames without padding
        x = Rng(n + rate).normal(3 * n, sigma=0.3).reshape(3, n)
        for n_mels, target_frames in ((32, 32), (40, 7)):
            lo, hi = crop_span(n, target_frames)
            got = log_mel_batch(x[:, lo:hi], rate, n, n_mels=n_mels, target_frames=target_frames)
            want = reference_log_mel_batch(x, rate, n_mels=n_mels, target_frames=target_frames)
            assert got.tobytes() == want.tobytes()

    def test_hann_is_the_read_only_periodic_window_of_n_fft(self):
        assert not HANN.flags.writeable
        with pytest.raises(ValueError):
            HANN[0] = 1.0
        periodic = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(N_FFT) / N_FFT)
        assert HANN.tobytes() == periodic.tobytes()

    @pytest.mark.parametrize("blob", [
        b"", b"RIFF", b"RIFX" + bytes(40), b"RIFF\0\0\0\0WAVE",
        wav_bytes(b"", 1, 1, 8000, 16), wav_bytes(b"\0", 1, 1, 8000, 16),
        wav_bytes(bytes(6), 1, 4, 8000, 16), wav_bytes(bytes(8), 1, 0, 8000, 16),
        wav_bytes(bytes(8), 7, 1, 8000, 8), wav_bytes(bytes(8), 1, 1, 0, 16),
        wav_bytes(struct.pack("<2f", 0.5, np.nan), 3, 2, 8000, 32),
        wav_bytes(bytes(8), 1, 1, 8000, 16)[:-3],
        wav_bytes(bytes(8), 1, 1, 8000, 16)[:30],
    ], ids=["empty", "short_header", "rifx", "no_chunks", "empty_data", "half_sample",
            "part_frame_only", "zero_channels", "codec", "rate0", "nan_in_last_frame",
            "truncated_data", "truncated_fmt"])
    def test_malformed_files_raise_what_the_oracle_raises(self, tmp_path, blob):
        path = tmp_path / "bad.wav"
        path.write_bytes(blob)
        with pytest.raises(WavParseError) as want:
            reference_read_wav(path)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            read_wav(path)

    def test_mutated_files_behave_as_the_oracle(self, tmp_path):
        from test_fuzz import mutate, mutations
        from hypothesis import given, settings

        seeds = [wav_bytes(*ORACLE_WAVS[name]) for name in
                 ("pcm16_stereo_part_frame", "odd_float_chunk", "rate_22050_stereo")]
        path = tmp_path / "mutant.wav"

        @settings(max_examples=150, deadline=None)
        @given(which=st.integers(0, len(seeds) - 1), ops=mutations)
        def check(which, ops):
            path.write_bytes(mutate(seeds[which], ops))
            try:
                want = reference_read_wav(path)
            except WavParseError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    read_wav(path)
                return
            got = read_wav(path)
            assert got.sample_rate == want.sample_rate
            assert got.samples.tobytes() == want.samples.tobytes()

        check()


def _subsets(classes, num_classes):
    """Row lists a command or a caller builds: each side of the split, one
    row, the first and last clips, and a run across a chunk boundary."""
    train, held_out = train_eval_split(classes, num_classes, seed=3)
    n = len(classes)
    return {"train": train, "held_out": held_out, "one": [n // 2],
            "first_last": [0, n - 1],
            "across_chunk": list(range(SYNTH_CHUNK - 3, 2 * SYNTH_CHUNK + 2))}


def _assert_rows_of(part, full, rows):
    rows = np.asarray(rows, dtype=np.int64)
    assert part.num_classes == full.num_classes
    assert part.features.tobytes() == full.features[rows].tobytes()
    assert part.labels().tobytes() == full.labels()[rows].tobytes()
    assert part.original_classes.tolist() == full.original_classes[rows].tolist()


class TestSubsetBuilds:
    @pytest.mark.parametrize("cpus", [{0}, set(range(5))], ids=["one_cpu", "five_cpus"])
    @pytest.mark.parametrize("profile", [PROFILES["default"], SynthProfile(duration_s=0.2)],
                             ids=["default", "short_clips"])
    def test_synth_rows_equal_full_build_rows(self, monkeypatch, cpus, profile):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: cpus, raising=False)
        full = synth_dataset(5, 13, seed=8, n_mels=16, n_frames=8, profile=profile)
        for name, rows in _subsets(full.original_classes, 5).items():
            part = synth_dataset(5, 13, seed=8, n_mels=16, n_frames=8, profile=profile,
                                 rows=rows)
            _assert_rows_of(part, full, rows)

    def test_manifest_rows_equal_full_build_rows_and_open_only_their_clips(
            self, tmp_path, monkeypatch):
        cfg = harness.default_config("single", seed=23, dataset=harness.DatasetSpec(
            num_classes=4, per_class=11))
        harness.cmd_synth(cfg, tmp_path)
        full = load_manifest(tmp_path, num_classes=4, n_mels=16, n_frames=8)
        opened = []
        real = read_wav
        monkeypatch.setattr("qpae.audio.read_wav", lambda p: opened.append(p) or real(p))
        for name, rows in _subsets(full.original_classes, 4).items():
            opened.clear()
            part = load_manifest(tmp_path, num_classes=4, n_mels=16, n_frames=8, rows=rows)
            _assert_rows_of(part, full, rows)
            assert [Path(p).name for p in opened] == [f"clip_{i:05d}.wav" for i in rows]

    def test_no_rows_builds_an_empty_dataset(self, tmp_path, pool_sizes):
        assert synth_dataset(3, 4, seed=1, n_mels=8, n_frames=8, rows=[]).n_samples == 0
        assert pool_sizes == []
        write_manifest(tmp_path, [(WavClip(SR, np.zeros(300)), c) for c in (0, 1)])
        (tmp_path / "wavs" / "clip_00000.wav").unlink()
        data = load_manifest(tmp_path, num_classes=2, n_mels=8, n_frames=8, rows=[1])
        assert data.original_classes.tolist() == [1]

    @pytest.mark.parametrize("rows", [[12], [-1], [[0, 1]]])
    def test_rows_outside_the_dataset_are_refused(self, tmp_path, rows):
        with pytest.raises(ValueError, match="rows must"):
            synth_dataset(3, 4, seed=1, n_mels=8, n_frames=8, rows=rows)
        write_manifest(tmp_path, [(WavClip(SR, np.zeros(300)), c) for c in range(12)])
        with pytest.raises(ValueError, match="rows must"):
            load_manifest(tmp_path, num_classes=12, n_mels=8, n_frames=8, rows=rows)
