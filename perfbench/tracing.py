"""Outside-in timing for the benchmark.

`Tracer.install()` wraps qpae's public functions by replacing the module
attributes the program looks up at call time, in every qpae module that
holds them (so `from .model import train` in eraser.py is wrapped too).
No source file changes. Spans are kept in memory and turned into the
per-layer metrics by `layer_metrics()`.

`HostRef` is a fixed reference kernel that uses no qpae code. The
workloads time it between their operations, so host drift shows as a
change in `host.ref_ms` rather than as a change in the program.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) pairs wrapped in a traced run; the span is named
# "<module>.<function>".
TARGETS = [
    ("audio", "synth_clip"), ("audio", "log_mel_spectrogram"),
    ("audio", "mel_filterbank"), ("audio", "read_wav"),
    ("data", "train_eval_split"), ("rng", "Rng.permutation"),
    ("model", "train"), ("model", "forward_batch"), ("model", "backward_batch"),
    ("eraser", "run_qp_audio_eraser"), ("eraser", "interference_transform"),
    ("eraser", "superpose_labels"), ("eraser", "build_mixing_matrix"),
    ("eraser", "apply_mixing"), ("eraser", "accuracy_snapshot"),
    ("baselines", "gradient_ascent_unlearn"),
    ("baselines", "negative_gradient_unlearn"),
    ("baselines", "fisher_forgetting"), ("baselines", "synaptic_dampening"),
    ("baselines", "estimate_diag_fisher"),
    ("metrics", "evaluate"),
    ("checkpoint", "save_checkpoint"), ("checkpoint", "load_checkpoint"),
    ("harness", "build_dataset"), ("harness", "cmd_train"),
    ("harness", "cmd_unlearn"), ("harness", "cmd_evaluate"),
    ("cli", "main"),
]

SCENARIO_LABELS = ("single", "multi", "sequential", "ablation", "accent")
CLI_VERBS = ("synth", "train", "unlearn", "evaluate", "sequential", "report")
BASELINE_FUNCS = {"gradient_ascent": "gradient_ascent_unlearn",
                  "negative_gradient": "negative_gradient_unlearn",
                  "fisher_forgetting": "fisher_forgetting",
                  "synaptic_dampening": "synaptic_dampening"}


def _cli_verb(args):
    argv = args[0] if args and args[0] is not None else sys.argv[1:]
    return argv[0] if argv else "none"


class Tracer:
    """In-memory spans (name, start_ns, end_ns, parent index) and counters."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = f"cli.main.{_cli_verb(args)}" if name == "cli.main" else name
            idx = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._note(name, args)
            return result
        return wrapper

    def _note(self, name: str, args) -> None:
        if name == "model.forward_batch":
            self.counts["model.forward_batch.rows"] += len(args[1])
        elif name == "audio.mel_filterbank":
            self.keys["audio.mel_filterbank"].add(tuple(args))
        elif name == "harness.build_dataset":
            cfg = args[0]
            self.keys["harness.build_dataset"].add((repr(cfg.dataset), cfg.seed))
        elif name == "checkpoint.save_checkpoint":
            self.counts["checkpoint.save_checkpoint.bytes"] += os.path.getsize(args[1])

    def install(self) -> None:
        """Wrap every TARGETS function in all loaded qpae modules."""
        import qpae.cli  # noqa: F401  (loads every qpae module)

        mods = [m for n, m in sys.modules.items()
                if n == "qpae" or n.startswith("qpae.")]
        for mod_name, attr in TARGETS:
            owner = sys.modules[f"qpae.{mod_name}"]
            span = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrapper(span, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrapper(span, original)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "keys": {k: sorted(map(repr, v)) for k, v in self.keys.items()},
                       **extra}, fh)


def _aggregate(spans: list[list]):
    """Per-name total ms, call count, self ms, and ms by (name, parent name)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child_ms = defaultdict(float)
    under = defaultdict(float)
    for name, start, end, parent in spans:
        ms = (end - start) / 1e6
        total[name] += ms
        calls[name] += 1
        if parent >= 0:
            child_ms[parent] += ms
            under[(name, spans[parent][0])] += ms
    self_ms = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        self_ms[name] += (end - start) / 1e6 - child_ms[i]
    return total, calls, self_ms, under


def layer_metrics(traces: list[dict], ref_ms: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one or more traces.

    Each trace is {"spans", "counts", "keys"}; a child process of the
    CLI workload contributes one, plus "startup_ms".
    """
    spans: list[list] = []
    counts = defaultdict(float)
    keys = defaultdict(set)
    startup = []
    for tr in traces:
        base = len(spans)
        spans += [[n, s, e, p + base if p >= 0 else -1] for n, s, e, p in tr["spans"]]
        for k, v in tr["counts"].items():
            counts[k] += v
        for k, v in tr["keys"].items():
            keys[k] |= set(v)
        if "startup_ms" in tr:
            startup.append(tr["startup_ms"])
    total, calls, self_ms, under = _aggregate(spans)
    out: dict[str, tuple[float, str]] = {}

    def ms(name, value):
        out[f"{name}.ms"] = (value, "ms")

    def count(name, value):
        out[name] = (float(value), "count")

    for fn in ("synth_clip", "log_mel_spectrogram", "read_wav"):
        ms(f"audio.{fn}", total[f"audio.{fn}"])
        count(f"audio.{fn}.calls", calls[f"audio.{fn}"])
    count("audio.mel_filterbank.calls", calls["audio.mel_filterbank"])
    count("audio.mel_filterbank.distinct", len(keys["audio.mel_filterbank"]))
    ms("harness.build_dataset", total["harness.build_dataset"])
    count("harness.build_dataset.calls", calls["harness.build_dataset"])
    count("harness.build_dataset.distinct", len(keys["harness.build_dataset"]))
    ms("data.train_eval_split", total["data.train_eval_split"])
    ms("rng.permutation", total["rng.permutation"])
    count("rng.permutation.calls", calls["rng.permutation"])
    ms("model.train", total["model.train"])
    out["model.train.self_ms"] = (self_ms["model.train"], "ms")
    ms("model.forward_batch", total["model.forward_batch"])
    count("model.forward_batch.rows", counts["model.forward_batch.rows"])
    ms("model.backward_batch", total["model.backward_batch"])
    count("model.backward_batch.calls", calls["model.backward_batch"])
    ms("eraser.interference_transform", total["eraser.interference_transform"])
    ms("eraser.superpose_labels", total["eraser.superpose_labels"])
    ms("eraser.phase3_train", under[("model.train", "eraser.run_qp_audio_eraser")])
    ms("eraser.mixing", total["eraser.build_mixing_matrix"] + total["eraser.apply_mixing"])
    ms("eraser.accuracy_snapshot", total["eraser.accuracy_snapshot"])
    count("eraser.accuracy_snapshot.calls", calls["eraser.accuracy_snapshot"])
    for label, fn in BASELINE_FUNCS.items():
        ms(f"baselines.{label}", total[f"baselines.{fn}"])
    ms("baselines.estimate_diag_fisher", total["baselines.estimate_diag_fisher"])
    ms("metrics.evaluate", total["metrics.evaluate"])
    ms("checkpoint.save_checkpoint", total["checkpoint.save_checkpoint"])
    out["checkpoint.save_checkpoint.bytes"] = (counts["checkpoint.save_checkpoint.bytes"], "bytes")
    ms("checkpoint.load_checkpoint", total["checkpoint.load_checkpoint"])
    for label in SCENARIO_LABELS:
        ms(f"harness.run_scenario.{label}", total[f"harness.run_scenario.{label}"])
    for fn in ("cmd_train", "cmd_unlearn", "cmd_evaluate"):
        ms(f"harness.{fn}", total[f"harness.{fn}"])
    out["cli.startup_ms"] = (statistics.median(startup) if startup else 0.0, "ms")
    for verb in CLI_VERBS:
        ms(f"cli.main.{verb}", total[f"cli.main.{verb}"])
    out["host.ref_ms"] = (ref_ms, "ms")
    return out


class HostRef:
    """A fixed numpy-and-Python kernel; its time tracks host speed only."""

    def __init__(self):
        gen = np.random.default_rng(12345)
        self._a = gen.standard_normal((32, 1024))
        self._b = gen.standard_normal((1024, 64))
        self._x = gen.standard_normal((16, 256))
        self.samples: list[float] = []

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(8):
            h = np.maximum(0.0, self._a @ self._b)
            acc += float(np.exp(h - h.max(axis=1, keepdims=True)).sum())
        spec = np.fft.rfft(self._x * np.sin(self._x), axis=1)
        acc += float(np.log(1e-6 + (spec.real ** 2 + spec.imag ** 2)).sum())
        z = 0
        for i in range(2000):
            z = (z * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
        return acc + z

    def sample(self, reps: int = 5) -> None:
        for _ in range(reps):
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(1e3 * (time.perf_counter() - t0))

    def median_ms(self) -> float:
        return statistics.median(self.samples)
