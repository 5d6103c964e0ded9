"""Audio ingestion and log-mel spectrogram features.

Raw audio comes from plain RIFF/WAVE files (PCM 16-bit or IEEE float 32)
or from a seeded synthetic tone generator; either way it ends up as a
fixed-size log-mel feature vector. At the clip lengths used here an FFT
is exact, so nothing fancy is needed for precision.
"""

from __future__ import annotations

import csv
import functools
import os
import struct
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import LabeledDataset
from .rng import Rng, box_muller, draws_at, unit_interval

POWER_FLOOR = 1e-6  # added inside log() so silence maps to log(1e-6) exactly

DEFAULT_SAMPLE_RATE = 8000
DEFAULT_N_MELS = 32
DEFAULT_N_FRAMES = 32


class WavParseError(ValueError):
    """A WAV file that cannot be parsed."""


@dataclass
class WavClip:
    sample_rate: int
    samples: np.ndarray  # mono float64 in [-1, 1]

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("need at least one mono sample")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")


def read_wav(path: str | Path) -> WavClip:
    """Parse a RIFF/WAVE file (PCM16 or float32; stereo averaged to mono)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise WavParseError("file too short for a RIFF header")
    if blob[:4] == b"RIFX":
        raise WavParseError("big-endian RIFX files are not supported")
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WavParseError("not a RIFF/WAVE file")

    fmt = None
    data = None  # (offset, size) of the data chunk's body in blob
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body_start = pos + 8
        if body_start + size > len(blob):
            raise WavParseError(f"chunk {cid!r} extends past end of file")
        if cid == b"fmt ":
            if size < 16:
                raise WavParseError("fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", blob, body_start)
        elif cid == b"data":
            data = (body_start, size)
        pos = body_start + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavParseError("missing fmt chunk")
    if data is None:
        raise WavParseError("missing data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels < 1:
        raise WavParseError("channel count must be >= 1")
    if sample_rate < 1:
        raise WavParseError("sample rate must be >= 1")
    offset, size = data
    if audio_format == 1 and bits == 16:
        raw = np.frombuffer(blob, dtype="<i2", count=size // 2, offset=offset)
        samples = raw.astype(np.float64) / 32768.0
    elif audio_format == 3 and bits == 32:
        raw = np.frombuffer(blob, dtype="<f4", count=size // 4, offset=offset)
        # checked before the cast, which warns on a signalling NaN
        if not np.all(np.isfinite(raw)):
            raise WavParseError("float samples must be finite")
        samples = raw.astype(np.float64)
    else:
        raise WavParseError(f"unsupported codec: format tag {audio_format}, {bits}-bit")

    if samples.size < channels or samples.size == 0:
        raise WavParseError("data chunk holds no complete frame")
    if channels > 1:
        frames = samples.size // channels
        samples = samples[:frames * channels].reshape(frames, channels).mean(axis=1)
    elif audio_format == 3:
        samples += 0.0  # as a one-channel mean would: -0.0 becomes 0.0
    return WavClip(sample_rate=sample_rate, samples=samples)


def write_wav(clip: WavClip, path: str | Path) -> None:
    """Write mono 16-bit PCM."""
    x = np.clip(clip.samples, -1.0, 1.0)
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    data = pcm.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, 1, clip.sample_rate, clip.sample_rate * 2, 2, 16,
        b"data", len(data))
    Path(path).write_bytes(header + data)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


# The one frame geometry: N_FFT-sample frames HOP samples apart, each
# weighted by the periodic Hann window, the standard choice for
# short-time analysis. Every caller shares the one read-only array.
N_FFT = 256
HOP = 128
HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(N_FFT) / N_FFT)
HANN.flags.writeable = False


@functools.lru_cache(maxsize=16)
def mel_filterbank(sample_rate: int, n_mels: int) -> np.ndarray:
    """Triangular filters, (n_mels, N_FFT//2 + 1), equally spaced in mel.

    Cached per argument pair; every caller shares the one read-only array.
    """
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2))
    bin_freqs = np.arange(N_FFT // 2 + 1) * (sample_rate / N_FFT)
    filt = np.zeros((n_mels, bin_freqs.size))
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (bin_freqs - lo) / max(mid - lo, 1e-12)
        falling = (hi - bin_freqs) / max(hi - mid, 1e-12)
        filt[m] = np.maximum(0.0, np.minimum(rising, falling))
    filt.flags.writeable = False
    return filt


def _framed_power(x: np.ndarray) -> np.ndarray:
    """Hann-windowed |rfft|^2 of each row's frames, (m, frames, N_FFT//2 + 1).

    Rows must hold at least N_FFT samples. The FFT of a frame does not
    depend on how many frames or rows share the call.
    """
    m, n = x.shape
    row, step = x.strides
    frames = np.lib.stride_tricks.as_strided(
        x, shape=(m, (n - N_FFT) // HOP + 1, N_FFT), strides=(row, HOP * step, step),
        writeable=False)
    spec = np.fft.rfft(frames * HANN, axis=-1)
    return spec.real ** 2 + spec.imag ** 2


def _frame_layout(n_samples: int, n_frames: int) -> tuple[int, int]:
    """(frames of an n_samples clip once zero-padded to fill n_frames,
    index of the first of the n_frames center-cropped ones)."""
    total = max(n_frames, (n_samples - N_FFT) // HOP + 1)
    return total, (total - n_frames) // 2


def crop_span(n_samples: int, n_frames: int) -> tuple[int, int]:
    """The samples [lo, hi) that the n_frames center-cropped frames of an
    n_samples clip read: from the first kept frame's start, N_FFT + (n_frames
    - 1) * HOP samples, clipped to the clip. A clip that is zero-padded to
    fill n_frames is read whole."""
    lo = _frame_layout(n_samples, n_frames)[1] * HOP
    return lo, min(n_samples, lo + N_FFT + (n_frames - 1) * HOP)


def log_mel_batch(x: np.ndarray, sample_rate: int, n_samples: int,
                  n_mels: int = DEFAULT_N_MELS,
                  target_frames: int = DEFAULT_N_FRAMES) -> np.ndarray:
    """Log mel-band power of m equal-length clips, in N_FFT-sample frames
    HOP samples apart.

    x (m, hi - lo) holds the `crop_span(n_samples, target_frames)` = [lo,
    hi) of clips n_samples long: all that the kept frames read. Returns
    shape (m, n_mels, target_frames). Each clip is zero-padded to fill
    target_frames, then its frames are center-cropped to target_frames; only
    the kept frames are Fourier-transformed. The mel projection is one
    stacked matmul, a (n_mels, bins) @ (bins, frames) product per clip over
    all of the clip's frames, the dropped ones as zero power: BLAS sums
    depend on the column count, so a product over the kept frames alone, or
    one over all clips' frames at once, would change the last bits of a row.
    """
    if n_mels > N_FFT // 2:
        raise ValueError(f"n_mels must be <= {N_FFT // 2}")
    if target_frames < 1:
        raise ValueError("target_frames must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    lo, hi = crop_span(n_samples, target_frames)
    if x.shape[1] != hi - lo:
        raise ValueError(f"x must hold the {hi - lo}-sample crop span of clips of "
                         f"{n_samples} samples, got {x.shape[1]}")
    needed = N_FFT + (target_frames - 1) * HOP
    if x.shape[1] < needed:
        x = np.concatenate([x, np.zeros((x.shape[0], needed - x.shape[1]))], axis=1)
    total, start = _frame_layout(n_samples, target_frames)
    power = np.zeros((x.shape[0], total, N_FFT // 2 + 1))
    power[:, start:start + target_frames] = _framed_power(x)
    mel_power = np.matmul(mel_filterbank(sample_rate, n_mels), power.transpose(0, 2, 1))
    return np.log(POWER_FLOOR + mel_power[:, :, start:start + target_frames])


def log_mel_spectrogram(clip: WavClip, n_mels: int = DEFAULT_N_MELS,
                        target_frames: int = DEFAULT_N_FRAMES) -> np.ndarray:
    """Log mel-band power of one clip, (n_mels, target_frames):
    `log_mel_batch` of its crop span."""
    lo, hi = crop_span(clip.samples.size, target_frames)
    return log_mel_batch(clip.samples[None, lo:hi], clip.sample_rate, clip.samples.size,
                         n_mels=n_mels, target_frames=target_frames)[0]


@dataclass
class SynthProfile:
    """Harmonic-tone generator settings; one tone family per class."""

    base_freq: float = 300.0
    class_spacing: float = 120.0
    freq_jitter: float = 0.03          # relative, uniform in +/- this
    noise_sigma: float = 0.02
    duration_s: float = 0.8
    sample_rate: int = DEFAULT_SAMPLE_RATE
    harmonic_amps: tuple[float, ...] = (0.5, 0.25, 0.125)

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate))


# narrower spacing and stronger jitter -> neighbouring classes overlap,
# the hard regime for erasing one class without hurting its neighbours
OVERLAP_PROFILE = SynthProfile(class_spacing=50.0, freq_jitter=0.05)

PROFILES = {"default": SynthProfile(), "overlap": OVERLAP_PROFILE}


def synth_draws(profile: SynthProfile = PROFILES["default"]) -> int:
    """How far one `synth_clip` call advances its Rng's stream.

    One draw for the frequency jitter, then 2 * ceil(n / 2) for the
    Box-Muller pairs of the noise on its n samples. Clip j of a stream
    therefore starts at draw j * synth_draws(profile).
    """
    return 1 + 2 * ((profile.n_samples + 1) // 2)


def synth_waves(class_ids, raw: np.ndarray, profile: SynthProfile,
                span: tuple[int, int]) -> np.ndarray:
    """Samples [lo, hi) = span of m seeded harmonic tones, (m, hi - lo), row
    i of class class_ids[i]; the whole clips are the span (0, n_samples).

    raw holds the m clips' stream draws, synth_draws(profile) per clip and
    clip after clip, as `Rng.fill_u64` or `draws_at` return them. Only the
    span's samples are computed. Every sample goes through the same IEEE
    operations whatever m and the span are, so a row does not depend on
    the chunk it is built in, and a span equals those columns of the
    whole clips, bit for bit.
    """
    class_ids = np.asarray(class_ids, dtype=np.int64)
    m = class_ids.size
    lo, hi = span
    raw = raw.reshape(m, synth_draws(profile))
    low, high = -profile.freq_jitter, profile.freq_jitter
    jitter = low + (high - low) * unit_interval(raw[:, 0])
    f0 = (profile.base_freq + profile.class_spacing * class_ids) * (1.0 + jitter)
    t = np.arange(lo, hi) / profile.sample_rate
    x = np.zeros((m, hi - lo))
    for k, amp in enumerate(profile.harmonic_amps, start=1):
        f = k * f0
        keep = f < 0.45 * profile.sample_rate  # keep harmonics clear of Nyquist
        x[keep] += amp * np.sin(2.0 * np.pi * f[keep, None] * t)
    x += 0.0 + profile.noise_sigma * box_muller(raw[:, 1:], hi, lo)
    return np.clip(x, -1.0, 1.0)


def synth_clip(class_id: int, rng: Rng,
               profile: SynthProfile = PROFILES["default"]) -> WavClip:
    """One seeded harmonic tone for the class, with jitter and noise.

    Takes exactly `synth_draws(profile)` draws from rng.
    """
    raw = rng.fill_u64(synth_draws(profile))
    wave = synth_waves([class_id], raw, profile, (0, profile.n_samples))[0]
    return WavClip(profile.sample_rate, wave)


SYNTH_CHUNK = 8  # clips per unit of work in synth_dataset


def _worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def synth_classes(num_classes: int, per_class: int) -> np.ndarray:
    """The class of every synthetic clip, class-major: clip j is of class
    j // per_class. The layout is known before any tone is made."""
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 1:
        raise ValueError("need at least 1 sample per class")
    return np.repeat(np.arange(num_classes, dtype=np.int64), per_class)


def _clip_rows(rows, n: int) -> np.ndarray:
    """rows as an index array into n clips; all n, in order, if rows is None."""
    if rows is None:
        return np.arange(n, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or (rows.size and (rows.min() < 0 or rows.max() >= n)):
        raise ValueError(f"rows must be a list of clip indices in [0, {n})")
    return rows


def _synth_chunks(classes: np.ndarray, clips: np.ndarray, seed: int,
                  profile: SynthProfile, span: tuple[int, int],
                  work: Callable[[int, np.ndarray], None]) -> None:
    """Synthesise the span of the listed clips (see `synth_waves`) and hand
    it to work in chunks.

    Clip j, of class classes[j], takes its draws from the Rng(seed)
    stream starting at draw j * synth_draws(profile), so its tone does not
    depend on which clips are built with it. The list is cut into chunks
    of SYNTH_CHUNK clips, built on a thread pool with one worker per
    available CPU: numpy releases the GIL in the sine and noise work. Each
    chunk calls work(first, waves) with the `synth_waves` of
    clips[first:first + len(waves)], so what work sees does not depend on
    the worker count.
    """
    from concurrent.futures import ThreadPoolExecutor

    draws = synth_draws(profile)

    def build(first: int) -> None:
        chunk = clips[first:first + SYNTH_CHUNK]
        work(first, synth_waves(classes[chunk], draws_at(seed, chunk * draws, draws),
                                profile, span))

    starts = range(0, clips.size, SYNTH_CHUNK)
    if not starts:
        return
    with ThreadPoolExecutor(max_workers=min(_worker_count(), len(starts))) as pool:
        list(pool.map(build, starts))  # list() re-raises a worker's exception


def synth_dataset(num_classes: int, per_class: int, seed: int,
                  n_mels: int = DEFAULT_N_MELS, n_frames: int = DEFAULT_N_FRAMES,
                  profile: SynthProfile = PROFILES["default"], rows=None) -> LabeledDataset:
    """Deterministic synthetic dataset: per_class tones for each class.

    The tones are those of `_synth_chunks`, made only over the
    `crop_span` that the kept frames read; each chunk writes its log-mel
    feature rows in place, so the features do not depend on the worker
    count. rows, if given, lists the clips to build (indices into the
    `synth_classes` layout); row i of the result is row rows[i] of the
    whole dataset, bit for bit.
    """
    classes = synth_classes(num_classes, per_class)
    clips = _clip_rows(rows, classes.size)
    features = np.empty((clips.size, n_mels * n_frames))

    def featurize(first: int, waves: np.ndarray) -> None:
        features[first:first + len(waves)] = log_mel_batch(
            waves, profile.sample_rate, profile.n_samples, n_mels=n_mels,
            target_frames=n_frames).reshape(len(waves), -1)

    _synth_chunks(classes, clips, seed, profile, crop_span(profile.n_samples, n_frames),
                  featurize)
    classes = classes[clips]
    return LabeledDataset(features, classes, num_classes)


class ManifestError(ValueError):
    pass


def _clip_path(i: int) -> str:
    return f"wavs/clip_{i:05d}.wav"


def _write_labels(root: Path, classes) -> None:
    with open(root / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "class_id"])
        writer.writerows((_clip_path(i), int(c)) for i, c in enumerate(classes))


def synth_manifest(dataset_dir: str | Path, num_classes: int, per_class: int, seed: int,
                   profile: SynthProfile = PROFILES["default"]) -> None:
    """Write the tones of synth_dataset as a load_manifest directory:
    wavs/clip_<i>.wav files plus labels.csv.

    Each chunk writes its own WAV files on the pool of `_synth_chunks`, so
    no more waveforms are held at once than the workers' chunks.
    """
    classes = synth_classes(num_classes, per_class)
    root = Path(dataset_dir)
    (root / "wavs").mkdir(parents=True, exist_ok=True)

    def write(first: int, waves: np.ndarray) -> None:
        for i, wave in enumerate(waves, start=first):
            write_wav(WavClip(profile.sample_rate, wave), root / _clip_path(i))

    _synth_chunks(classes, np.arange(classes.size), seed, profile, (0, profile.n_samples),
                  write)
    _write_labels(root, classes)


def read_labels(dataset_dir: str | Path, num_classes: int) -> tuple[list[str], np.ndarray]:
    """The checked rows of a manifest directory's labels.csv: each clip's
    path, relative to the directory, and its class. No WAV file is opened.

    Every class id must lie in [0, num_classes).
    """
    root = Path(dataset_dir)
    manifest = root / "labels.csv"
    if not manifest.exists():
        raise ManifestError(f"no labels.csv in {root}")
    paths: list[str] = []
    classes: list[int] = []
    with open(manifest, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ManifestError(f"labels.csv is not UTF-8 CSV: {exc}") from exc
    if not rows or rows[0] != ["path", "class_id"]:
        raise ManifestError("manifest header must be exactly 'path,class_id'")
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ManifestError(f"line {line_no}: expected 2 columns")
        if "\0" in row[0]:
            raise ManifestError(f"line {line_no}: NUL byte in path")
        try:
            class_id = int(row[1])
        except ValueError as exc:
            raise ManifestError(f"line {line_no}: bad class_id {row[1]!r}") from exc
        if not 0 <= class_id < num_classes:
            raise ManifestError(f"line {line_no}: class_id {class_id} out of "
                                f"range [0, {num_classes})")
        paths.append(row[0])
        classes.append(class_id)
    if not paths:
        raise ManifestError("manifest lists no samples")
    return paths, np.array(classes, dtype=np.int64)


def load_manifest(dataset_dir: str | Path, num_classes: int,
                  n_mels: int = DEFAULT_N_MELS, n_frames: int = DEFAULT_N_FRAMES,
                  rows=None) -> LabeledDataset:
    """Load a labels.csv manifest directory into a feature dataset.

    Every class id must lie in [0, num_classes). rows, if given, lists
    the manifest rows to load (0-based, in labels.csv order), and only
    their WAV files are opened; row i of the result is row rows[i] of the
    whole manifest, bit for bit.
    """
    paths, classes = read_labels(dataset_dir, num_classes)
    clips = _clip_rows(rows, len(paths))
    root = os.fspath(dataset_dir)
    features = np.empty((clips.size, n_mels * n_frames))
    for i, row in enumerate(clips.tolist()):
        # one read_wav and one log_mel_spectrogram per clip, looked up in
        # this module at call time, where the benchmark counts them
        clip = read_wav(os.path.join(root, paths[row]))
        features[i] = log_mel_spectrogram(clip, n_mels=n_mels,
                                          target_frames=n_frames).reshape(-1)
    classes = classes[clips]
    return LabeledDataset(features, classes, num_classes)
