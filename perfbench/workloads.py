"""The benchmark's three closed-loop workloads, one client each.

A workload is set up `setup_reps` times (the last set-up is the one kept)
and then runs whole rounds: a round is a fixed list of operations whose
make-up is generated from the workload seed and the round index. Each
operation is timed alone; the benchmark's own work (checks, the host
reference kernel) runs between operations, outside the timers.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from checks import CheckFailed, require
from tracing import HostRef, Tracer

DESK_SEED = 7            # the master seed the acceptance criteria are defined on
METHODS = ("qp", "ga", "ng", "fisher", "ssd")
SCENARIOS = ("single", "multi", "sequential", "ablation", "accent")
ABLATION_NAMES = ("no_weight_transform", "no_uncertainty_maximization",
                  "no_matrix_m", "lambda_0.5", "lambda_2.0", "full")
MANIFEST_PER_CLASS = 20
OUT_OF_RANGE_CLASS = 10  # one past the last class of every dataset used here


def stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def master_seed(gen: np.random.Generator) -> int:
    return int(gen.integers(0, 2 ** 63))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


@dataclass
class Op:
    kind: str       # "scenario", "qp", "baseline" or a CLI verb
    ms: float
    ok: bool = True


class Workload:
    name = ""
    setup_reps = 5

    def __init__(self, root: Path, seed: int, tracer: Tracer, ref: HostRef):
        self.root = root
        self.seed = seed
        self.tracer = tracer
        self.ref = ref
        self.problems: list[str] = []
        # ms of each qp or baseline forget request
        self.requests: dict[str, list[float]] = {"qp": [], "baseline": []}

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailed as exc:
            self.problems.append(f"{self.name}: {exc}")

    @contextmanager
    def untraced(self):
        was, self.tracer.enabled = self.tracer.enabled, False
        try:
            yield
        finally:
            self.tracer.enabled = was

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def traces(self) -> list[dict]:
        return [{"spans": self.tracer.spans, "counts": self.tracer.counts,
                 "keys": self.tracer.keys}]

    def close(self) -> None:
        """Stop every process the workload started."""


# ---------------------------------------------------------------------------


def scenario_config(harness, label: str, seed: int, out: Path):
    """The five standard scenarios; accent is scripts/run_accent_style.py."""
    if label != "accent":
        return harness.default_config(label, seed=seed, output_dir=str(out))
    cfg = harness.default_config("single", seed=seed, output_dir=str(out))
    cfg.dataset.profile = "overlap"
    cfg.train.learning_rate = 0.01
    cfg.train.epochs = 8
    cfg.unlearn.learning_rate = 0.02
    return cfg


class ScenarioSuite(Workload):
    """harness.run_scenario for the five scenarios, for the desk seed and one
    seed drawn from the workload seed. Four of each seed's five dataset
    builds share one (spec, seed), so 6 of the 10 builds repeat an earlier
    one: the case a dataset cache serves."""

    name = "scenario_suite"

    def setup(self, rep: int) -> None:
        # A fresh interpreter importing the package: what a scenario script
        # pays before its first dataset. No dataset is built here, so any
        # in-process dataset cache starts cold in the timed part.
        subprocess.run([sys.executable, "-c", "import qpae.cli"], check=True)
        if rep == 0:
            self._time_requests()

    def _time_requests(self) -> None:
        """Time the unlearning of each request where the harness calls it:
        every QP run with no phase skipped (the single, multi and accent
        requests, each sequential step, and the full and two lambda
        ablation variants) and every baseline run."""
        from qpae import harness
        run_qp, run_baseline = harness.run_qp_audio_eraser, harness.run_baseline

        def timed_qp(model, data, cfg):
            t0 = time.perf_counter()
            result = run_qp(model, data, cfg)
            if not (cfg.skip_weight_transform or cfg.skip_uncertainty_max
                    or cfg.skip_mixing):
                self.requests["qp"].append(1e3 * (time.perf_counter() - t0))
            return result

        def timed_baseline(*args):
            t0 = time.perf_counter()
            result = run_baseline(*args)
            self.requests["baseline"].append(1e3 * (time.perf_counter() - t0))
            return result

        harness.run_qp_audio_eraser, harness.run_baseline = timed_qp, timed_baseline

    def round(self, index: int) -> list[Op]:
        from qpae import harness
        seeds = (DESK_SEED, master_seed(stream(self.seed, 0, index)))
        ops = []
        for k, seed in enumerate(seeds):
            firsts: dict[str, bytes] = {}
            for label in SCENARIOS:
                cfg = scenario_config(harness, label, seed,
                                      self.root / f"r{index}_s{k}_{label}")
                self.ref.sample()
                t0 = time.perf_counter()
                ws = self.tracer.call(f"harness.run_scenario.{label}",
                                      harness.run_scenario, cfg)
                ops.append(Op("scenario", 1e3 * (time.perf_counter() - t0)))
                with self.untraced():
                    self.check(self.check_scenario, label, seed, ws, firsts)
        return ops

    def check_scenario(self, label: str, seed: int, ws, firsts: dict) -> None:
        out = ws.out
        x, y = ws.eval_data.features, ws.eval_data.original_classes
        forget = sorted(ws.cfg.unlearn.forget_set)
        what = f"{label} seed {seed}"
        reports = {p.name[len("report_"):-len(".json")]: read_json(p)
                   for p in out.glob("report_*.json") if not p.name.endswith("_deltas.json")}
        original_blob = (out / "original.qpae").read_bytes()
        orig_layers = checks.parse_checkpoint(original_blob)
        if label != "accent":
            # the same (dataset, seed, training config) trains the same model
            first = firsts.setdefault("original", original_blob)
            require(first == original_blob, f"{what}: original.qpae differs from "
                                            "the one of an earlier scenario")

        if label == "sequential":
            series = read_json(out / "sequential_series.json")
            union: list[int] = []
            for step in series:
                union = sorted(set(union) | set(step["requested"]))
                rep = reports[f"step_{step['step']}"]
                orig = checks.score(orig_layers, x, y, union)
                checks.check_report(rep, union, orig["fa"], f"{what} step {step['step']}")
                require(step["forgotten_union"] == union and step["fa"] == rep["fa"]
                        and step["ra"] == rep["ra"], f"{what}: series != step report")
            checks.check_table((out / "sequential_table.csv").read_text(),
                               reports, [f"step_{s['step']}" for s in series], what)
            if seed == DESK_SEED:       # acceptance criterion 9
                require(series[-1]["ra"] >= 50.0, f"{what}: final RA {series[-1]['ra']}")
            return

        orig = checks.check_model_report(orig_layers, x, y, reports["original"],
                                         f"{what} original", quantized=True)
        checks.check_report(reports["original"], forget, None, f"{what} original")
        names = ([f"ablation_{n}" for n in ABLATION_NAMES] if label == "ablation"
                 else list(METHODS))
        scores = {}
        for name in names:
            stem = name[len("ablation_"):] if label == "ablation" else name
            ckpt = out / (f"unlearned_ablation_{stem}.qpae" if label == "ablation"
                          else f"unlearned_{name}.qpae")
            blob = ckpt.read_bytes()
            scores[name] = checks.check_model_report(
                checks.parse_checkpoint(blob), x, y, reports[name], f"{what} {name}",
                quantized=label == "ablation")
            checks.check_report(reports[name], forget, reports["original"]["fa"],
                                f"{what} {name}")
            if label != "ablation":
                checks.check_table((out / f"report_{name}.csv").read_text(),
                                   {name: reports[name]}, [name], f"{what} {name}")
            if name in ("qp", "ablation_full") and label != "accent":
                # qp and the full ablation variant are the same request
                first = firsts.setdefault(f"qp {forget}", blob)
                require(first == blob, f"{what}: {ckpt.name} differs from the same "
                                       "request in an earlier scenario")
        table = "ablation_table.csv" if label == "ablation" else "table.csv"
        checks.check_table((out / table).read_text(), reports, ["original"] + names, what)
        if seed != DESK_SEED:
            return
        if label == "ablation":     # acceptance criterion 10
            best = max(s["ra"] for n, s in scores.items() if n != "ablation_full")
            require(scores["ablation_full"]["ra"] >= best - 1.0,
                    f"{what}: full RA {scores['ablation_full']['ra']:.2f} < best "
                    f"ablated RA {best:.2f} - 1")
            checks.check_qp_erasure(orig, scores["ablation_full"], len(forget), what)
        else:       # acceptance criteria 2 (single, and accent) and 8 (multi)
            checks.check_qp_erasure(orig, scores["qp"], len(forget), what)


# ---------------------------------------------------------------------------


class ForgetRequests(Workload):
    """A seeded stream of forget requests against one trained desk model."""

    name = "forget_requests"
    setup_reps = 3          # each builds and trains the desk model
    QP_SIZES = (1,) * 8 + (2,) * 5 + (3,) * 3      # forget-set sizes per round
    BASELINE_SIZES = (1, 2)                         # per baseline method

    def setup(self, rep: int) -> None:
        from qpae import harness
        # earlier repetitions use other seeds, so each set-up builds cold
        seed = DESK_SEED if rep == self.setup_reps - 1 else master_seed(stream(self.seed, 1, rep))
        ws = harness.Workspace.create(harness.default_config("single", seed=seed),
                                      self.root / f"setup{rep}")
        harness.cmd_train(ws)
        self.bind(ws)

    def bind(self, ws) -> None:
        """Serve requests against the trained model in `ws`."""
        self.ws = ws
        self._orig_layers = checks.parse_checkpoint(ws.original_path().read_bytes())
        self._orig_reports: dict[tuple, object] = {}
        self._digests: dict[tuple, str] = {}

    def request_stream(self, index: int) -> list[tuple[str, tuple[int, ...]]]:
        gen = stream(self.seed, 2, index)

        def draw(size):
            return tuple(sorted(int(c) for c in gen.choice(10, size, replace=False)))

        reqs = [("qp", draw(s)) for s in self.QP_SIZES]
        reqs += [(m, draw(s)) for m in METHODS[1:] for s in self.BASELINE_SIZES]
        order = gen.permutation(len(reqs))
        reqs = [reqs[i] for i in order]
        qp_positions = [i for i, r in enumerate(reqs) if r[0] == "qp"]
        reqs.append(reqs[qp_positions[int(gen.integers(len(qp_positions)))]])
        return reqs

    def round(self, index: int) -> list[Op]:
        from qpae import harness
        ops = []
        for method, forget in self.request_stream(index):
            cfg = harness.default_config("multi" if len(forget) > 1 else "single",
                                         seed=DESK_SEED)
            cfg.unlearn.forget_set = list(forget)
            ws = harness.Workspace(cfg=cfg, out=self.ws.out,
                                   train_data=self.ws.train_data,
                                   eval_data=self.ws.eval_data)
            original = self._original_report(forget)
            kind = "qp" if method == "qp" else "baseline"
            self.ref.sample(2)
            t0 = time.perf_counter()
            try:
                path, _ = harness.cmd_unlearn(ws, method)
                harness.cmd_evaluate(ws, path, original_report=original, name=method)
            except Exception:
                traceback.print_exc()
                ops.append(Op(kind, 1e3 * (time.perf_counter() - t0), ok=False))
                continue
            ms = 1e3 * (time.perf_counter() - t0)
            ops.append(Op(kind, ms))
            self.requests[kind].append(ms)
            with self.untraced():
                self.check(self.check_request, ws, method, forget)
        return ops

    def _original_report(self, forget):
        if forget not in self._orig_reports:
            from qpae import metrics
            from qpae.checkpoint import load_checkpoint
            with self.untraced():
                model = load_checkpoint(self.ws.original_path())
                self._orig_reports[forget] = metrics.evaluate(
                    model, self.ws.eval_data, set(forget))
        return self._orig_reports[forget]

    def check_request(self, ws, method: str, forget: tuple[int, ...]) -> None:
        x, y = ws.eval_data.features, ws.eval_data.original_classes
        what = f"{method} {list(forget)}"
        orig = checks.score(self._orig_layers, x, y, list(forget))
        blob = (ws.out / f"unlearned_{method}.qpae").read_bytes()
        report_text = (ws.out / f"report_{method}.json").read_text()
        report = json.loads(report_text)
        got = checks.check_model_report(checks.parse_checkpoint(blob), x, y, report, what)
        checks.check_report(report, list(forget), orig["fa"], what)
        checks.check_table((ws.out / f"report_{method}.csv").read_text(),
                           {method: report}, [method], what)
        if method == "qp":
            checks.check_qp_erasure(orig, got, len(forget), what)
        digest = hashlib.sha256(blob + report_text.encode()).hexdigest()
        first = self._digests.setdefault((method, forget), digest)
        require(first == digest, f"{what}: a repeated request gave different outputs")


# ---------------------------------------------------------------------------


class ManifestCli(Workload):
    """Sessions of `qpae` commands, each a fresh process, over a WAV manifest
    written by `qpae synth` in set-up."""

    name = "manifest_cli"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        here = Path(__file__).resolve().parent
        self.launcher = here / "launch.py"
        # commands are started by spawn.py, so that their peak RSS does not
        # count this process's memory
        self.spawner = subprocess.Popen([sys.executable, str(here / "spawn.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)
        self.trace_files: list[Path] = []
        self.peak_kb = 0
        self.dataset: Path | None = None
        self._front_end_checked = False

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def command(self, args: list[str], log: Path) -> tuple[float, int]:
        """Run one command to its end; (wall ms, exit code)."""
        if self.tracer.enabled:
            trace_file = self.root / "traces" / f"{len(self.trace_files)}.json"
            trace_file.parent.mkdir(exist_ok=True)
            self.trace_files.append(trace_file)
            argv = [sys.executable, str(self.launcher), str(trace_file), "{spawn_ns}", *args]
        else:
            argv = [sys.executable, "-m", "qpae", *args]
        self.spawner.stdin.write(json.dumps({"argv": argv, "stderr": str(log)}) + "\n")
        self.spawner.stdin.flush()
        done = json.loads(self.spawner.stdout.readline())
        self.peak_kb = max(self.peak_kb, done["maxrss_kb"])
        return done["ms"], done["rc"]

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0

    def setup(self, rep: int) -> None:
        seed = master_seed(stream(self.seed, 3, rep))
        cfg = self.root / f"synth{rep}.json"
        cfg.write_text(json.dumps({"seed": seed,
                                   "dataset": {"per_class": MANIFEST_PER_CLASS}}))
        dataset = self.root / f"dataset{rep}"
        _, rc = self.command(["synth", "--config", str(cfg), "--out", str(dataset)],
                             self.root / "stderr.log")
        if rc != 0:
            raise RuntimeError(f"qpae synth exited {rc}")
        self.dataset = dataset

    def session(self, index: int) -> tuple[Path, Path, int, list]:
        gen = stream(self.seed, 4, index)
        forget = int(gen.integers(10))
        sequence = [[int(c)] for c in gen.choice(10, 3, replace=False)]
        out = self.root / f"session{index}"
        cfg = self.root / f"session{index}.json"
        cfg.write_text(json.dumps({
            "seed": master_seed(gen),
            "dataset": {"kind": "manifest", "path": str(self.dataset),
                        "per_class": MANIFEST_PER_CLASS},
            "unlearn": {"forget_set": [forget]},
            "sequential_requests": sequence}))
        common = ["--config", str(cfg), "--out", str(out)]
        cmds = [("command", ["train", *common], 0),
                ("command", ["unlearn", *common, "--method", "qp",
                             "--forget", str(OUT_OF_RANGE_CLASS)], 2)]
        for method in gen.permutation(list(METHODS)):
            kind = "qp" if method == "qp" else "baseline"
            cmds.append((kind, ["unlearn", *common, "--method", str(method)], 0))
            cmds.append((kind, ["evaluate", *common,
                                "--model", str(out / f"unlearned_{method}.qpae"),
                                "--original-report", str(out / "report_original.json")], 0))
        cmds.append(("command", ["sequential", *common], 0))
        cmds.append(("command", ["report", "--out", str(out)], 0))
        return cfg, out, forget, cmds

    def round(self, index: int) -> list[Op]:
        cfg, out, forget, cmds = self.session(index)
        log = self.root / "stderr.log"
        ops = []
        trained = b""
        for kind, args, expected in cmds:
            self.ref.sample(2)
            ms, rc = self.command(args, log)
            ops.append(Op(args[0], ms, ok=rc == expected))
            if args[0] == "train":
                trained = (out / "original.qpae").read_bytes()
            if kind != "command" and args[0] == "evaluate":
                # a request is the unlearn command plus this evaluate
                self.requests[kind].append(ops[-2].ms + ms)
        if all(op.ok for op, (_, _, expected) in zip(ops, cmds) if expected == 0):
            self.check(self.check_session, cfg, out, forget, trained)
        return ops

    def check_session(self, cfg: Path, out: Path, forget: int, trained: bytes) -> None:
        from qpae import harness
        config = harness.load_config(cfg)
        _, eval_data = harness.prepare_splits(config)
        if not self._front_end_checked:
            self._check_front_end()
            self._front_end_checked = True
        x, y = eval_data.features, eval_data.original_classes
        orig_blob = (out / "original.qpae").read_bytes()
        require(orig_blob == trained, "original.qpae rewritten by `sequential` differs "
                                      "from the one `train` wrote")
        orig_layers = checks.parse_checkpoint(orig_blob)
        reports = {p.name[len("report_"):-len(".json")]: read_json(p)
                   for p in out.glob("report_*.json") if not p.name.endswith("_deltas.json")}
        checks.check_model_report(orig_layers, x, y, reports["original"], "original",
                                  quantized=True)
        checks.check_report(reports["original"], [forget], None, "original")
        for method in METHODS:
            name = f"unlearned_{method}"
            layers = checks.parse_checkpoint((out / f"{name}.qpae").read_bytes())
            checks.check_model_report(layers, x, y, reports[name], name)
            checks.check_report(reports[name], [forget], reports["original"]["fa"], name)
            checks.check_table((out / f"report_{name}.csv").read_text(),
                               {name: reports[name]}, [name], name)
        union: list[int] = []
        for step in read_json(out / "sequential_series.json"):
            union = sorted(set(union) | set(step["requested"]))
            orig = checks.score(orig_layers, x, y, union)
            checks.check_report(reports[f"step_{step['step']}"], union, orig["fa"],
                                f"step {step['step']}")
        checks.check_table((out / "table.csv").read_text(), reports, ["original"],
                           "qpae report")

    def _check_front_end(self) -> None:
        """Recompute log-mel for a seeded sample of manifest clips."""
        from qpae import audio
        features = audio.load_manifest(self.dataset, num_classes=10).features
        rows = (self.dataset / "labels.csv").read_text().splitlines()[1:]
        pick = stream(self.seed, 5).choice(len(rows), 12, replace=False)
        checks.check_features([self.dataset / rows[i].split(",")[0] for i in pick],
                              features[pick], "manifest")

    def traces(self) -> list[dict]:
        return [json.loads(p.read_text()) for p in self.trace_files]


WORKLOADS = {w.name: w for w in (ScenarioSuite, ForgetRequests, ManifestCli)}
