"""Experiment orchestration: configs, scenarios, tables.

A single JSON config drives everything. All run-time seeds are derived
from the one master seed, so a config plus a seed pins the whole
experiment, byte for byte. Input files are never modified; every command
writes fresh artifacts into the output directory.
"""

from __future__ import annotations

import json
import logging
from dataclasses import (asdict, astuple, dataclass, field,
                         fields as dataclass_fields, is_dataclass, replace)
from pathlib import Path

import numpy as np

from . import audio
from .baselines import METHOD_NAMES, BaselineConfig, run_baseline
from .checkpoint import load_checkpoint, save_checkpoint
from .data import LabeledDataset, train_count, train_eval_split
from .eraser import (UnlearnConfig, accuracy_snapshot,
                     run_qp_audio_eraser, superpose_labels)
from .files import FIELD_KINDS, write_atomic
from .metrics import (TABLE_COLUMNS, EvaluationReport, compare_reports,
                      evaluate, report_csv_row, report_from_json,
                      report_to_json)
from .model import Classifier, TrainConfig, cross_entropy_loss, train
from .rng import Rng, derive_seed
from .timing import stage

log = logging.getLogger("qpae")

SCENARIOS = ("single", "multi", "sequential", "ablation", "accent")

# CLI method ids -> internal baseline method names ("qp" is the pipeline)
METHOD_IDS = {"qp": "qp", "ga": "gradient_ascent", "ng": "negative_gradient",
              "fisher": "fisher_forgetting", "ssd": "synaptic_dampening"}

METHOD_LABELS = {"qp": "QPAudioEraser", "ga": "Gradient Ascent",
                 "ng": "Negative Gradient", "fisher": "Fisher Forgetting",
                 "ssd": "Synaptic Dampening"}

# stage keys for seed derivation
_SEED_DATA, _SEED_SPLIT, _SEED_INIT, _SEED_TRAIN, _SEED_UNLEARN = 1, 2, 3, 4, 5

TRAIN_FRACTION = 0.8  # of each class's samples; the rest are held out

# config.json sections that must match for a run to reuse original.qpae
PROVENANCE_KEYS = ("seed", "dataset", "model", "train")


class ConfigError(ValueError):
    pass


@dataclass
class DatasetSpec:
    kind: str = "synthetic"            # "synthetic" | "manifest"
    num_classes: int = 10
    per_class: int = 200
    n_mels: int = audio.DEFAULT_N_MELS
    n_frames: int = audio.DEFAULT_N_FRAMES
    profile: str = "default"
    path: str | None = None            # manifest directory

    def __post_init__(self):
        if self.kind not in ("synthetic", "manifest"):
            raise ConfigError(f"dataset.kind must be synthetic or manifest, got {self.kind!r}")
        if self.kind == "manifest" and not self.path:
            raise ConfigError("dataset.path is required for manifest datasets")
        if self.kind == "synthetic" and self.profile not in audio.PROFILES:
            raise ConfigError(f"unknown synth profile {self.profile!r}")


@dataclass
class ModelSection:
    hidden: list[int] = field(default_factory=lambda: [64])  # ReLU layer widths


@dataclass
class ExperimentConfig:
    """The config's schema: every JSON object in it is one section dataclass."""

    seed: int = 7
    output_dir: str = "out"
    scenario: str = "single"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(learning_rate=0.005, epochs=3))
    unlearn: UnlearnConfig = field(default_factory=UnlearnConfig)
    # one section shared by the four baselines
    baselines: BaselineConfig = field(default_factory=BaselineConfig)
    sequential_requests: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")


def _merge(prefix: str, base, raw):
    """`base` with the JSON object `raw` laid over it, field by field; a
    section merges onto the section in `base`. Every value must hold its
    field's annotation."""
    what = prefix[:-1] or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be an object, got {raw!r}")
    # only the master seed is a key; the sections' seeds derive from it
    fields = {f.name: f for f in dataclass_fields(base)
              if not prefix or f.name != "seed"}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(f"unknown keys in {what}: {sorted(unknown)}")
    values = {}
    for key, value in raw.items():
        annotation = fields[key].type
        if is_dataclass(getattr(base, key)):
            values[key] = _merge(f"{prefix}{key}.", getattr(base, key), value)
            continue
        kind, holds = FIELD_KINDS[annotation]
        if not holds(value):
            raise ConfigError(f"{prefix}{key} must be {kind}, got {value!r}")
        values[key] = value
    try:
        return replace(base, **values)
    except ValueError as exc:  # a section's own range rules
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{what}: {exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The defaults of `ExperimentConfig()` with a JSON config laid over them."""
    cfg = _merge("", ExperimentConfig(), raw)
    if cfg.scenario == "sequential" and not cfg.sequential_requests:
        raise ConfigError("sequential scenario requires non-empty sequential_requests")
    return cfg


def _splits_both_sides(n: int) -> bool:
    """True if a class of n samples keeps some on each side of the split."""
    return 0 < train_count(n, TRAIN_FRACTION) < n


def check_ranges(cfg: ExperimentConfig) -> None:
    """Reject values of the wrong type, class ids, sizes and section values
    the run cannot use, before any work.

    `Workspace.open` and `cmd_synth` call it, so it sees the config after
    command-line overrides, which can change the forget set once the file
    is parsed.
    """
    # every field against its annotation, by the walk that parses a file
    _merge("", ExperimentConfig(), config_to_dict(cfg))
    # Rng and derive_seed read a seed modulo 2**64, so -1 would alias 2**64 - 1
    if not 0 <= cfg.seed < 2 ** 64:
        raise ConfigError(f"seed must be in [0, 2**64), got {cfg.seed}")
    k = cfg.dataset.num_classes
    if k < 2:
        raise ConfigError(f"dataset.num_classes must be >= 2, got {k}")
    n = cfg.dataset.per_class
    if cfg.dataset.kind == "synthetic" and not _splits_both_sides(n):
        raise ConfigError(f"dataset.per_class must leave samples on both sides "
                          f"of the {TRAIN_FRACTION:g} split, got {n}")
    if any(h < 1 for h in cfg.model.hidden):
        raise ConfigError(f"model.hidden widths must be >= 1, got {cfg.model.hidden}")
    requests = {"unlearn.forget_set": cfg.unlearn.forget_set}
    requests.update((f"sequential_requests[{i}]", req)
                    for i, req in enumerate(cfg.sequential_requests))
    for what, classes in requests.items():
        if not classes:
            raise ConfigError(f"{what} must name at least one class")
        bad = [c for c in classes if not 0 <= c < k]
        if bad:
            raise ConfigError(f"{what} holds {bad}, not class ids in [0, {k})")
    if len(set(cfg.unlearn.forget_set)) >= k:
        raise ConfigError("unlearn.forget_set must leave at least one class retained")
    if len(set().union(*cfg.sequential_requests)) >= k:
        raise ConfigError("sequential_requests together must leave at least one "
                          "class retained")
    max_mels = audio.DEFAULT_N_FFT // 2
    if not 1 <= cfg.dataset.n_mels <= max_mels:
        raise ConfigError(f"dataset.n_mels must be in [1, {max_mels}], "
                          f"got {cfg.dataset.n_mels}")
    if cfg.dataset.n_frames < 1:
        raise ConfigError(f"dataset.n_frames must be >= 1, got {cfg.dataset.n_frames}")
    # the run-time configs each command builds hold the remaining range rules
    what = "unlearn"
    try:
        cfg.unlearn.train_config()
        what = "baselines"
        cfg.baselines.train_config("ascent")
        cfg.baselines.train_config("finetune")
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def config_to_dict(cfg: ExperimentConfig) -> dict:
    raw = asdict(cfg)
    for section in (raw["train"], raw["unlearn"], raw["baselines"]):
        del section["seed"]  # derived from the master seed
    return raw


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    write_atomic(path, json.dumps(config_to_dict(cfg), indent=2) + "\n")


def default_config(scenario: str = "single", **overrides) -> ExperimentConfig:
    """The desk-scale benchmark config, adjusted per scenario."""
    fields: dict = {"scenario": scenario}
    if scenario == "multi":
        fields["unlearn"] = UnlearnConfig(forget_set=[0, 4])
        # twice the forget samples doubles the ascent steps; gentler
        # settings keep the ascent baselines finite
        fields["baselines"] = BaselineConfig(ascent_epochs=2, learning_rate=0.08,
                                             batch_size=32)
    if scenario == "sequential":
        fields["sequential_requests"] = [[0], [1], [2]]
    if scenario == "accent":
        # neighbouring classes share spectral structure on the overlap
        # profile: they train more slowly and tolerate less entropy
        # pressure than the well-separated default tones
        fields["dataset"] = DatasetSpec(profile="overlap")
        fields["train"] = TrainConfig(learning_rate=0.01, epochs=8)
        fields["unlearn"] = UnlearnConfig(learning_rate=0.02)
    fields.update(overrides)
    unknown = set(fields) - {f.name for f in dataclass_fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config attributes {sorted(unknown)}")
    return ExperimentConfig(**fields)


# ---------------------------------------------------------------------------
# dataset + model construction


def dataset_classes(cfg: ExperimentConfig) -> np.ndarray:
    """The class of every clip of the config's dataset, known before any
    audio is read: the class-major tone order of a synthetic spec, or a
    manifest's labels.csv.

    A manifest class with too few clips for both sides of the split is a
    ConfigError: check_ranges' per_class rule, for counts that only
    labels.csv holds.
    """
    spec = cfg.dataset
    if spec.kind == "synthetic":
        return audio.synth_classes(spec.num_classes, spec.per_class)
    classes = audio.read_labels(spec.path, spec.num_classes)[1]
    counts = np.bincount(classes, minlength=spec.num_classes)
    short = {c: int(n) for c, n in enumerate(counts) if not _splits_both_sides(n)}
    if short:
        raise ConfigError(f"manifest classes hold too few clips for the "
                          f"{TRAIN_FRACTION:g} split (class: clips) {short}")
    return classes


def build_dataset(cfg: ExperimentConfig, rows=None) -> LabeledDataset:
    """The config's dataset, or only its listed rows (see `dataset_classes`
    for their order); a row is the same either way."""
    spec = cfg.dataset
    if spec.kind == "synthetic":
        return audio.synth_dataset(
            spec.num_classes, spec.per_class, derive_seed(cfg.seed, _SEED_DATA),
            n_mels=spec.n_mels, n_frames=spec.n_frames,
            profile=audio.PROFILES[spec.profile], rows=rows)
    return audio.load_manifest(spec.path, num_classes=spec.num_classes,
                               n_mels=spec.n_mels, n_frames=spec.n_frames, rows=rows)


# The sides built of the last synthetic dataset, by side, under its key.
# Scenarios run back to back share no object, so reuse has to live here;
# one entry catches every repeat of a run of scenarios on one seed and
# holds no more than the previous Workspace already keeps alive.
_last_splits: dict[tuple, dict[int, LabeledDataset]] = {}


def prepare_split(cfg: ExperimentConfig, side: int) -> LabeledDataset:
    """Side 0 (training) or 1 (held out) of the config's seeded 80/20
    split, built from only that side's clips.

    The split comes from the class layout alone, before any audio is
    touched. A synthetic dataset is a pure function of its spec and the
    master seed, so a side already built for the same spec and seed is
    returned again, with every array read-only; a manifest's files can
    change on disk, so it is always read afresh.
    """
    key = (astuple(cfg.dataset), cfg.seed) if cfg.dataset.kind == "synthetic" else None
    if key not in _last_splits:
        _last_splits.clear()  # before the build, so two datasets are never held
    elif side in _last_splits[key]:
        return _last_splits[key][side]
    rows = train_eval_split(dataset_classes(cfg), cfg.dataset.num_classes,
                            TRAIN_FRACTION, derive_seed(cfg.seed, _SEED_SPLIT))[side]
    data = build_dataset(cfg, rows)
    if key is not None:
        for array in (data.features, data.labels, data.original_classes):
            array.flags.writeable = False
        _last_splits.setdefault(key, {})[side] = data
    return data


def prepare_splits(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Both sides of the config's split, each from `prepare_split`."""
    return prepare_split(cfg, 0), prepare_split(cfg, 1)


def _train_config(cfg: ExperimentConfig) -> TrainConfig:
    return replace(cfg.train, seed=derive_seed(cfg.seed, _SEED_TRAIN))


def _unlearn_config(cfg: ExperimentConfig) -> UnlearnConfig:
    return replace(cfg.unlearn, seed=derive_seed(cfg.seed, _SEED_UNLEARN))


def _baseline_config(cfg: ExperimentConfig, name: str) -> BaselineConfig:
    """The shared baselines section, seeded by the method's index in
    METHOD_NAMES."""
    return replace(cfg.baselines,
                   seed=derive_seed(cfg.seed, 16 + METHOD_NAMES.index(name)))


# ---------------------------------------------------------------------------
# commands


class Workspace:
    """One experiment's config, its output directory and its data splits.

    Each side is built on first use, from only that side's clips, unless
    the sides are passed in: a workspace from `open` lets a command refuse
    its inputs before it pays for the dataset, and read no clip it does
    not use. `create` builds both sides before it makes the directory.
    """

    def __init__(self, cfg: ExperimentConfig, out: str | Path,
                 train_data: LabeledDataset | None = None,
                 eval_data: LabeledDataset | None = None):
        self.cfg = cfg
        self.out = Path(out)
        self._sides = [train_data, eval_data]

    @classmethod
    def open(cls, cfg: ExperimentConfig, out: str | Path | None = None) -> "Workspace":
        """A workspace on a checked config; nothing is built or made yet."""
        check_ranges(cfg)
        return cls(cfg, out if out is not None else cfg.output_dir)

    @classmethod
    def create(cls, cfg: ExperimentConfig, out: str | Path | None = None) -> "Workspace":
        """`open`, then build both sides, then make the output directory."""
        ws = cls.open(cfg, out)
        # a dataset that fails to build leaves no directory behind
        for side in (0, 1):
            ws._side(side)
        ws.out.mkdir(parents=True, exist_ok=True)
        return ws

    def _side(self, side: int) -> LabeledDataset:
        if self._sides[side] is None:
            self._sides[side] = prepare_split(self.cfg, side)
        return self._sides[side]

    @property
    def train_data(self) -> LabeledDataset:
        return self._side(0)

    @property
    def eval_data(self) -> LabeledDataset:
        return self._side(1)

    @property
    def forget_set(self) -> set[int]:
        return set(self.cfg.unlearn.forget_set)

    def original_path(self) -> Path:
        return self.out / "original.qpae"

    def check_provenance(self) -> None:
        """Refuse an `original.qpae` that `cmd_train` wrote under another config.

        `cmd_train` writes config.json beside the checkpoint. Its seed,
        dataset, model and train sections must equal this run's; the forget
        set and the baselines may differ, since one trained model serves
        many forget requests.
        """
        path = self.out / "config.json"
        try:
            recorded = json.loads(path.read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"no {path}: train into this output directory "
                              "first") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(recorded, dict):
            raise ConfigError(f"{path} does not hold a config object")
        # compared as save_config writes it: tuples become lists in JSON
        current = json.loads(json.dumps(config_to_dict(self.cfg)))
        for key in PROVENANCE_KEYS:
            if recorded.get(key) != current[key]:
                raise ConfigError(
                    f"the original model in {self.out} was trained with another "
                    f"{key} ({recorded.get(key)!r}; this run: {current[key]!r})")

    def check_fits(self, model: Classifier, data: LabeledDataset) -> None:
        if (model.feature_dim, model.num_classes) != (data.feature_dim, data.num_classes):
            raise ConfigError(
                f"model takes {model.feature_dim} features into {model.num_classes} "
                f"classes; the dataset has {data.feature_dim} and {data.num_classes}")

    def report_path(self, name: str) -> Path:
        return self.out / f"report_{name}.json"

    def write_report(self, name: str, report: EvaluationReport) -> Path:
        path = self.report_path(name)
        write_atomic(path, report_to_json(report) + "\n")
        return path


def cmd_train(ws: Workspace) -> tuple[Path, EvaluationReport]:
    """Train from a seeded init; write the checkpoint and original report."""
    cfg = ws.cfg
    model = Classifier.random_init(ws.train_data.feature_dim, cfg.model.hidden,
                                   ws.train_data.num_classes,
                                   Rng(derive_seed(cfg.seed, _SEED_INIT)))
    train(model, ws.train_data, _train_config(cfg), cross_entropy_loss)
    save_checkpoint(model, ws.original_path())
    save_config(cfg, ws.out / "config.json")
    report = evaluate(model, ws.eval_data, ws.forget_set)
    ws.write_report("original", report)
    return ws.original_path(), report


def forget(model: Classifier, data: LabeledDataset, method_id: str,
           cfg: ExperimentConfig) -> tuple[Classifier, list[dict]]:
    """Apply one method to `model` for `cfg`'s forget set: the unit of work.

    `method_id` is a METHOD_IDS key: "qp" runs the four-phase eraser, the
    others a baseline, each seeded from the master seed. The model is
    changed in place and nothing is written. The phase log holds one entry
    per eraser phase, or one for the baseline, scored on `data`.
    """
    if method_id not in METHOD_IDS:
        raise ConfigError(f"unknown method {method_id!r}; expected one of "
                          f"{sorted(METHOD_IDS)}")
    # both runners are read from this module at call time, where the
    # benchmark times them
    if method_id == "qp":
        return run_qp_audio_eraser(model, data, _unlearn_config(cfg))
    name = METHOD_IDS[method_id]
    forget_set = set(cfg.unlearn.forget_set)
    with stage() as span:
        run_baseline(model, data, forget_set, name, _baseline_config(cfg, name))
    fa, ra = accuracy_snapshot(model, data, frozenset(forget_set))
    return model, [{"phase": name, "forget_accuracy": fa, "retain_accuracy": ra,
                    "wall_ms": span["wall_ms"], "skipped": False}]


def cmd_unlearn(ws: Workspace, method_id: str) -> tuple[Path, list[dict]]:
    """`forget` on the original checkpoint; write the result and its phase log."""
    model = load_checkpoint(ws.original_path())
    ws.check_provenance()
    ws.check_fits(model, ws.train_data)
    model, phase_log = forget(model, ws.train_data, method_id, ws.cfg)
    path = ws.out / f"unlearned_{method_id}.qpae"
    save_checkpoint(model, path)
    write_atomic(ws.out / f"phase_log_{method_id}.json",
                 json.dumps(phase_log, indent=2) + "\n")
    return path, phase_log


def cmd_evaluate(ws: Workspace, model_path: str | Path,
                 original_report: EvaluationReport | None = None,
                 name: str | None = None) -> EvaluationReport:
    """Evaluate a checkpoint on the held-out split; write JSON + CSV row."""
    if original_report is not None:
        theirs = (original_report.forget_set, original_report.num_classes)
        ours = (sorted(ws.forget_set), ws.cfg.dataset.num_classes)
        if theirs != ours:
            raise ConfigError(
                f"the original report covers forget set {theirs[0]} of "
                f"{theirs[1]} classes; this run forgets {ours[0]} of {ours[1]}")
    model = load_checkpoint(model_path)
    ws.check_provenance()
    ws.check_fits(model, ws.eval_data)
    original_fa = original_report.fa if original_report is not None else None
    report = evaluate(model, ws.eval_data, ws.forget_set, original_fa=original_fa)
    stem = name if name is not None else Path(model_path).stem
    ws.write_report(stem, report)
    write_atomic(ws.out / f"report_{stem}.csv", emit_table([(stem, report)])[1])
    if original_report is not None:
        deltas = compare_reports(original_report, report)
        write_atomic(ws.out / f"report_{stem}_deltas.json",
                     json.dumps(deltas, indent=2) + "\n")
    return report


def emit_table(rows: list[tuple[str, EvaluationReport]]) -> tuple[str, str]:
    """Render reports as (markdown, csv) with identical numeric values."""
    if not rows:
        raise ValueError("need at least one report row")
    cells = [report_csv_row(name, rep) for name, rep in rows]
    md_lines = ["| " + " | ".join(TABLE_COLUMNS) + " |",
                "|" + "---|" * len(TABLE_COLUMNS)]
    md_lines += ["| " + " | ".join(row) + " |" for row in cells]
    csv_lines = [",".join(TABLE_COLUMNS)] + [",".join(row) for row in cells]
    return "\n".join(md_lines) + "\n", "\n".join(csv_lines) + "\n"


def write_table(out: Path, rows: list[tuple[str, EvaluationReport]],
                stem: str = "table") -> tuple[Path, Path]:
    markdown, csv_text = emit_table(rows)
    md_path = out / f"{stem}.md"
    csv_path = out / f"{stem}.csv"
    write_atomic(md_path, markdown)
    write_atomic(csv_path, csv_text)
    return md_path, csv_path


def table_stem(scenario: str) -> str:
    """The stem of the table a scenario writes: `<stem>.md` and `<stem>.csv`."""
    return f"{scenario}_table" if scenario in ("sequential", "ablation") else "table"


def _standard_step(ws: Workspace, original_report: EvaluationReport) -> None:
    """unlearn with every method -> evaluate -> assemble the table."""
    for mid in METHOD_IDS:
        path, _ = cmd_unlearn(ws, mid)
        cmd_evaluate(ws, path, original_report=original_report, name=mid)
    cmd_report(ws.out)


def _sequential_step(ws: Workspace) -> None:
    """Apply the pipeline per forget request to the evolving model.

    After each step the model is scored with the forget set equal to the
    union of everything forgotten so far. Labels superposed at earlier
    steps persist in the evolving training data, so prior erasure keeps
    being reinforced rather than re-learned.
    """
    cfg = ws.cfg
    original = load_checkpoint(ws.original_path())
    model = original.copy()
    current = ws.train_data
    forgotten: set[int] = set()
    series: list[dict] = []
    rows: list[tuple[str, EvaluationReport]] = []
    for step, request in enumerate(cfg.sequential_requests, start=1):
        request = set(request)
        overlap = request & forgotten
        if overlap:
            log.warning("step %d: classes %s already forgotten; using union semantics",
                        step, sorted(overlap))
        new = request - forgotten
        if new:
            step_cfg = replace(cfg, unlearn=replace(cfg.unlearn, forget_set=sorted(new)))
            forget(model, current, "qp", step_cfg)
            current = superpose_labels(current, new)
            forgotten |= new
        original_union = evaluate(original, ws.eval_data, forgotten)
        report = evaluate(model, ws.eval_data, forgotten,
                          original_fa=original_union.fa)
        name = f"step_{step}"
        ws.write_report(name, report)
        rows.append((name, report))
        series.append({"step": step, "requested": sorted(request),
                       "forgotten_union": sorted(forgotten),
                       "fa": report.fa, "ra": report.ra, "per": report.per,
                       "retained_classes": ws.eval_data.num_classes - len(forgotten)})
    write_atomic(ws.out / "sequential_series.json", json.dumps(series, indent=2) + "\n")
    write_table(ws.out, rows, stem=table_stem(cfg.scenario))


ABLATION_VARIANTS: list[tuple[str, dict]] = [
    ("no_weight_transform", {"skip_weight_transform": True}),
    ("no_uncertainty_maximization", {"skip_uncertainty_max": True}),
    ("no_matrix_m", {"skip_mixing": True}),
    ("lambda_0.5", {"entropy_lambda": 0.5}),
    ("lambda_2.0", {"entropy_lambda": 2.0}),
    ("full", {}),
]


def _ablation_step(ws: Workspace, original_report: EvaluationReport) -> None:
    """Run the five ablated variants plus the full method from one seed."""
    rows = [("Original", original_report)]
    original = load_checkpoint(ws.original_path())
    for name, tweaks in ABLATION_VARIANTS:
        model = original.copy()
        forget(model, ws.train_data, "qp",
               replace(ws.cfg, unlearn=replace(ws.cfg.unlearn, **tweaks)))
        save_checkpoint(model, ws.out / f"unlearned_ablation_{name}.qpae")
        report = evaluate(model, ws.eval_data, ws.forget_set,
                          original_fa=original_report.fa)
        ws.write_report(f"ablation_{name}", report)
        rows.append((name, report))
    write_table(ws.out, rows, stem=table_stem(ws.cfg.scenario))


def run_scenario(cfg: ExperimentConfig, out: str | Path | None = None) -> Workspace:
    """Check cfg.scenario's shape before anything is built, train once, then
    run the scenario's step; returns the workspace with artifacts written."""
    classes = len(set(cfg.unlearn.forget_set))
    if cfg.scenario in ("single", "accent") and classes != 1:
        raise ConfigError(f"{cfg.scenario} scenario requires exactly one forget class")
    if cfg.scenario == "multi" and classes < 2:
        raise ConfigError("multi scenario requires at least two forget classes")
    if cfg.scenario == "sequential" and not cfg.sequential_requests:
        raise ConfigError("sequential scenario requires non-empty sequential_requests")
    ws = Workspace.create(cfg, out)
    _, original_report = cmd_train(ws)
    if cfg.scenario == "sequential":
        _sequential_step(ws)
    elif cfg.scenario == "ablation":
        _ablation_step(ws, original_report)
    else:
        _standard_step(ws, original_report)
    return ws


def cmd_synth(cfg: ExperimentConfig, out: str | Path) -> Path:
    """Write the synthetic dataset as WAV files plus a labels.csv manifest."""
    spec = cfg.dataset
    if spec.kind != "synthetic":
        raise ConfigError("synth requires a synthetic dataset spec")
    check_ranges(cfg)
    out_dir = Path(out)
    audio.synth_manifest(out_dir, spec.num_classes, spec.per_class,
                         derive_seed(cfg.seed, _SEED_DATA), audio.PROFILES[spec.profile])
    return out_dir


def cmd_report(out: str | Path) -> tuple[Path, Path]:
    """Assemble a table from the report JSONs already in a directory."""
    out_dir = Path(out)
    rows = []
    for stem, label in [("original", "Original"), *METHOD_LABELS.items()]:
        # `evaluate` names a report after its checkpoint, unlearned_<id>
        for path in (out_dir / f"report_{stem}.json",
                     out_dir / f"report_unlearned_{stem}.json"):
            if path.exists():
                rows.append((label, report_from_json(path.read_text())))
                break
    if not rows:
        raise FileNotFoundError(f"no report_*.json files found in {out_dir}")
    return write_table(out_dir, rows)
