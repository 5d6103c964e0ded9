"""Experiment orchestration: configs, scenarios, tables.

A single JSON config drives everything. All run-time seeds are derived
from the one master seed, so a config plus a seed pins the whole
experiment, byte for byte. Input files are never modified; every command
writes fresh artifacts into the output directory, and `evaluate` refuses to
write over the report it reads or the one `train` wrote.
"""

from __future__ import annotations

import json
import logging
from dataclasses import (asdict, astuple, dataclass, field,
                         fields as dataclass_fields, is_dataclass, replace)
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import audio
from .baselines import BaselineConfig, run_baseline
from .checkpoint import CheckpointError, check_layer_shape, load_checkpoint, save_checkpoint
from .data import (TRAIN_FRACTION, LabeledDataset, check_forget_set, train_count,
                   train_eval_split)
from .eraser import (UnlearnConfig, penultimate, phase_entry,
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

# CLI method ids in table order ("qp" is the pipeline): each method's phase-log
# name (a baseline's in run_baseline), table label and seed's stage key
Method = NamedTuple("Method", [("name", str), ("label", str), ("seed_key", int)])
METHOD_IDS = {
    "qp": Method("qp", "QPAudioEraser", 5),
    "ga": Method("gradient_ascent", "Gradient Ascent", 16),
    "ng": Method("negative_gradient", "Negative Gradient", 17),
    "fisher": Method("fisher_forgetting", "Fisher Forgetting", 18),
    "ssd": Method("synaptic_dampening", "Synaptic Dampening", 19),
}

Row = tuple[str, EvaluationReport]  # one table row: label, report

# stage keys for seed derivation; each method's is in METHOD_IDS
_SEED_DATA, _SEED_SPLIT, _SEED_INIT, _SEED_TRAIN = 1, 2, 3, 4

# config.json sections that must match for a run to reuse original.qpae
PROVENANCE_KEYS = ("seed", "dataset", "model", "train")


class ConfigError(ValueError):
    pass


def _splits_both_sides(n: int) -> bool:
    """True if a class of n samples keeps some on each side of the split."""
    return 0 < train_count(n) < n


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
        if self.num_classes < 2:
            raise ConfigError(f"dataset.num_classes must be >= 2, got {self.num_classes}")
        if self.kind == "synthetic" and not _splits_both_sides(self.per_class):
            raise ConfigError(f"dataset.per_class must leave samples on both sides "
                              f"of the {TRAIN_FRACTION:g} split, got {self.per_class}")
        if not 1 <= self.n_mels <= audio.N_FFT // 2:
            raise ConfigError(f"dataset.n_mels must be in [1, {audio.N_FFT // 2}], "
                              f"got {self.n_mels}")
        if self.n_frames < 1:
            raise ConfigError(f"dataset.n_frames must be >= 1, got {self.n_frames}")


@dataclass
class ModelSection:
    hidden: list[int] = field(default_factory=lambda: [64])  # ReLU layer widths

    def __post_init__(self):
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"model.hidden widths must be >= 1, got {self.hidden}")


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
    return _merge("", ExperimentConfig(), raw)


def check_ranges(cfg: ExperimentConfig) -> None:
    """Reject a config the run cannot use, before any work: re-parse it,
    each section by its own rules, then apply the rules that tie sections
    together or read a value a command-line flag replaces. The `Workspace`
    constructor and `cmd_synth` call it, so it sees the config after the
    overrides, which can change the forget set, seed or output directory.
    """
    # every field and section against its own rules, by the walk that parses a file
    _merge("", ExperimentConfig(), config_to_dict(cfg))
    if cfg.scenario == "sequential" and not cfg.sequential_requests:
        raise ConfigError("sequential scenario requires non-empty sequential_requests")
    # "" would be the working directory
    if not cfg.output_dir:
        raise ConfigError("output_dir must name a directory, got ''")
    # Rng and derive_seed read a seed modulo 2**64, so -1 would alias 2**64 - 1
    if not 0 <= cfg.seed < 2 ** 64:
        raise ConfigError(f"seed must be in [0, 2**64), got {cfg.seed}")
    k = cfg.dataset.num_classes
    requests = {"unlearn.forget_set": cfg.unlearn.forget_set}
    requests.update((f"sequential_requests[{i}]", req)
                    for i, req in enumerate(cfg.sequential_requests))
    if cfg.sequential_requests:
        requests["sequential_requests together"] = set().union(*cfg.sequential_requests)
    try:
        for what, classes in requests.items():
            check_forget_set(classes, k, what)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # every layer the model will have, by the bound a stored model keeps to
    features = cfg.dataset.n_mels * cfg.dataset.n_frames
    widths = [features, *cfg.model.hidden, k]
    try:
        for i, shape in enumerate(zip(widths, widths[1:])):
            check_layer_shape(i, *shape)
    except CheckpointError as exc:
        raise ConfigError(f"model {exc}: the widths are n_mels * n_frames, then "
                          f"model.hidden, then num_classes") from exc
    n = cfg.dataset.per_class
    if cfg.dataset.kind == "synthetic" and 8 * k * n * features > 2 ** 63:
        raise ConfigError(f"dataset of {k} x {n} clips of {features} float64 features "
                          f"would take more than 2**63 bytes")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    raw = asdict(cfg)
    for section in (raw["train"], raw["unlearn"], raw["baselines"]):
        del section["seed"]  # derived from the master seed
    return raw


def _read_json(path: str | Path, missing: str):
    """The JSON value in the UTF-8 file at `path`. No file there, as for a
    directory or "" (the working directory), is ConfigError(missing)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (FileNotFoundError, IsADirectoryError) as exc:
        raise ConfigError(missing) from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(_read_json(path, f"config file not found: {path}"))


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
    return ExperimentConfig(**fields)


# ---------------------------------------------------------------------------
# dataset + model construction


def dataset_classes(cfg: ExperimentConfig) -> np.ndarray:
    """The class of every clip of the config's dataset, known before any
    audio is read: the class-major tone order of a synthetic spec, or a
    manifest's labels.csv.

    A manifest class with too few clips for both sides of the split is a
    ConfigError: `DatasetSpec`'s per_class rule, for counts that only
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


@dataclass
class _Kept:
    """What a process keeps of the last synthetic dataset: its sides, by
    side, as they are built, and the originals trained on its side 0, by
    their model and train sections."""

    sides: dict[int, LabeledDataset] = field(default_factory=dict)
    originals: dict[str, Classifier] = field(default_factory=dict)


# The one `_Kept` entry, under its dataset's key (`_split_key`).
# Scenarios run back to back share no object, so reuse has to live here;
# one entry catches every repeat of a run of scenarios on one seed and
# holds no more than the previous Workspace already keeps alive, plus the
# originals trained on it.
_last_splits: dict[tuple, _Kept] = {}


def _split_key(cfg: ExperimentConfig) -> tuple | None:
    """The key a synthetic dataset is kept under: every dataset field and
    the master seed. None for a manifest, whose files can change on disk."""
    return (astuple(cfg.dataset), cfg.seed) if cfg.dataset.kind == "synthetic" else None


def prepare_split(cfg: ExperimentConfig, side: int) -> LabeledDataset:
    """Side 0 (training) or 1 (held out) of the config's seeded 80/20
    split, built from only that side's clips.

    The split comes from the class layout alone, before any audio is
    touched. A synthetic dataset is a pure function of its spec and the
    master seed, so a side already built for the same spec and seed is
    returned again, with every array read-only; a manifest's files can
    change on disk, so it is always read afresh.
    """
    key = _split_key(cfg)
    if key not in _last_splits:
        _last_splits.clear()  # before the build, so two datasets are never held
    elif side in _last_splits[key].sides:
        return _last_splits[key].sides[side]
    rows = train_eval_split(dataset_classes(cfg), cfg.dataset.num_classes,
                            derive_seed(cfg.seed, _SEED_SPLIT))[side]
    data = build_dataset(cfg, rows)
    if key is not None:
        for array in (data.features, data.original_classes):
            array.flags.writeable = False
        _last_splits.setdefault(key, _Kept()).sides[side] = data
    return data


def prepare_splits(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Both sides of the config's split, each from `prepare_split`."""
    return prepare_split(cfg, 0), prepare_split(cfg, 1)


def _train_config(cfg: ExperimentConfig) -> TrainConfig:
    return replace(cfg.train, seed=derive_seed(cfg.seed, _SEED_TRAIN))


def _unlearn_config(cfg: ExperimentConfig) -> UnlearnConfig:
    return replace(cfg.unlearn, seed=derive_seed(cfg.seed, METHOD_IDS["qp"].seed_key))


# ---------------------------------------------------------------------------
# commands


class Workspace:
    """One checked experiment config, its output directory and its data splits.

    Each side is built on first use from only that side's clips, unless
    the sides are passed in. `load` checks a stored model from files alone,
    so a command refuses its inputs before it reads a clip. `create` checks
    the directory's provenance, then builds both sides before it makes it.
    """

    def __init__(self, cfg: ExperimentConfig, out: str | Path | None = None,
                 train_data: LabeledDataset | None = None,
                 eval_data: LabeledDataset | None = None):
        check_ranges(cfg)
        self.cfg = cfg
        self.out = Path(out if out is not None else cfg.output_dir)
        self._sides = [train_data, eval_data]

    @classmethod
    def create(cls, cfg: ExperimentConfig, out: str | Path | None = None) -> "Workspace":
        """A workspace with both sides built, then its output directory made.
        A config.json there must record this run's provenance: a retrain with
        another would strand the artifacts derived from the old original."""
        ws = cls(cfg, out)
        if (ws.out / "config.json").is_file():
            ws.check_provenance()
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
        """`cmd_train` writes config.json beside `original.qpae`. Its seed,
        dataset, model and train sections must equal this run's; the forget
        set and the baselines may differ, since one trained model serves
        many forget requests."""
        config_path = self.out / "config.json"
        recorded = _read_json(config_path, f"no {config_path}: train into this "
                                           "output directory first")
        if not isinstance(recorded, dict):
            raise ConfigError(f"{config_path} does not hold a config object")
        # compared as save_config writes it: tuples become lists in JSON
        current = json.loads(json.dumps(config_to_dict(self.cfg)))
        for key in PROVENANCE_KEYS:
            if recorded.get(key) != current[key]:
                raise ConfigError(
                    f"the original model in {self.out} was trained with another "
                    f"{key} ({recorded.get(key)!r}; this run: {current[key]!r})")

    def load(self, path: str | Path) -> Classifier:
        """The checkpoint at `path`, if this run may use it: its file, then
        `check_provenance`, then the fit. The model must take the dataset's
        n_mels * n_frames features into num_classes, the sizes of every side
        built from it. Checked from files alone: no clip is read.
        """
        model = load_checkpoint(path)
        self.check_provenance()
        spec = self.cfg.dataset
        fit = (spec.n_mels * spec.n_frames, spec.num_classes)
        if (model.feature_dim, model.num_classes) != fit:
            raise ConfigError(f"model takes {model.feature_dim} features into "
                              f"{model.num_classes} classes; the dataset has {fit[0]} "
                              f"and {fit[1]}")
        return model

    def write_report(self, name: str, report: EvaluationReport) -> None:
        write_atomic(self.out / f"report_{name}.json", report_to_json(report) + "\n")


def cmd_train(ws: Workspace) -> tuple[Path, EvaluationReport]:
    """Train from a seeded init; write config.json, then the checkpoint
    and the original report.

    If the training side is the one `prepare_split` keeps, the model is
    kept beside it, and a later run with the same model and train sections
    copies it instead of training again: every input of the training is
    the same. A manifest, or a side passed in, trains every time.
    """
    cfg = ws.cfg
    data = ws.train_data
    kept = _last_splits.get(_split_key(cfg))
    if kept is None or kept.sides.get(0) is not data:
        kept = _Kept()  # nothing to share: the model goes with this run
    # the sections besides the dataset and the seed that training reads
    key = json.dumps([asdict(cfg.model), asdict(cfg.train)])
    if key not in kept.originals:
        model = Classifier.random_init(data.feature_dim, cfg.model.hidden,
                                       data.num_classes,
                                       Rng(derive_seed(cfg.seed, _SEED_INIT)))
        train(model, data, _train_config(cfg), cross_entropy_loss)
        kept.originals[key] = model
    model = kept.originals[key].copy()
    # config.json first: a checkpoint is never left without its provenance
    save_config(cfg, ws.out / "config.json")
    save_checkpoint(model, ws.original_path())
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
    name, _, seed_key = METHOD_IDS[method_id]
    forget_set = set(cfg.unlearn.forget_set)
    with stage() as span:
        run_baseline(model, data, forget_set, name,
                     replace(cfg.baselines, seed=derive_seed(cfg.seed, seed_key)))
    return model, [phase_entry(name, span, model, data, frozenset(forget_set),
                               penultimate(model, data))]


def cmd_unlearn(ws: Workspace, method_id: str) -> tuple[Path, list[dict]]:
    """`forget` on the original checkpoint; write the result and its phase log."""
    model = ws.load(ws.original_path())
    model, phase_log = forget(model, ws.train_data, method_id, ws.cfg)
    path = ws.out / f"unlearned_{method_id}.qpae"
    save_checkpoint(model, path)
    write_atomic(ws.out / f"phase_log_{method_id}.json",
                 json.dumps(phase_log, indent=2) + "\n")
    return path, phase_log


def cmd_evaluate(ws: Workspace, model_path: str | Path,
                 original_report: EvaluationReport | str | Path | None = None,
                 name: str | None = None) -> EvaluationReport:
    """Evaluate a checkpoint on the held-out split; write JSON + CSV row.

    `original_report` is a report or the path of a report file. The files
    are named after `name`, or else the checkpoint. After every other
    check, a name whose report would replace `report_original.json`, which
    `train` wrote, or the report file read is refused, with nothing written.
    """
    source = None
    if isinstance(original_report, (str, Path)):
        source = Path(original_report)
        original_report = report_from_json(source.read_bytes())
    if original_report is not None:
        theirs = (original_report.forget_set, original_report.num_classes)
        ours = (sorted(ws.forget_set), ws.cfg.dataset.num_classes)
        if theirs != ours:
            raise ConfigError(
                f"the original report covers forget set {theirs[0]} of "
                f"{theirs[1]} classes; this run forgets {ours[0]} of {ours[1]}")
    model = ws.load(model_path)
    original_fa = original_report.fa if original_report is not None else None
    report = evaluate(model, ws.eval_data, ws.forget_set, original_fa=original_fa)
    stem = name if name is not None else Path(model_path).stem
    path = ws.out / f"report_{stem}.json"
    if stem == "original" or (source is not None and path.exists()
                              and path.samefile(source)):
        raise ConfigError(f"evaluate would write its report over {path}, which "
                          "train wrote or this run reads; give the checkpoint "
                          "another name")
    ws.write_report(stem, report)
    write_atomic(ws.out / f"report_{stem}.csv", emit_table([(stem, report)])[1])
    if original_report is not None:
        deltas = compare_reports(original_report, report)
        write_atomic(ws.out / f"report_{stem}_deltas.json",
                     json.dumps(deltas, indent=2) + "\n")
    return report


def emit_table(rows: list[Row]) -> tuple[str, str]:
    """Render reports as (markdown, csv) with identical numeric values."""
    if not rows:
        raise ValueError("need at least one report row")
    cells = [report_csv_row(name, rep) for name, rep in rows]
    md_lines = ["| " + " | ".join(TABLE_COLUMNS) + " |",
                "|" + "---|" * len(TABLE_COLUMNS)]
    md_lines += ["| " + " | ".join(row) + " |" for row in cells]
    csv_lines = [",".join(TABLE_COLUMNS)] + [",".join(row) for row in cells]
    return "\n".join(md_lines) + "\n", "\n".join(csv_lines) + "\n"


def write_table(out: Path, rows: list[Row],
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


def _standard_step(ws: Workspace, original_report: EvaluationReport) -> list[Row]:
    """unlearn with every method, then evaluate: one table row per method."""
    rows = []
    for mid, method in METHOD_IDS.items():
        path, _ = cmd_unlearn(ws, mid)
        rows.append((method.label, cmd_evaluate(ws, path, original_report, name=mid)))
    return rows


def _sequential_step(ws: Workspace) -> list[Row]:
    """Apply the pipeline per forget request to the evolving model.

    The training data's superposed classes are the one record of what
    has been forgotten. After each step the model is scored with the
    forget set equal to that union. At later steps the rows of
    earlier-forgotten classes keep their uniform labels and are retained
    rows, trained by cross-entropy toward them. No table measures
    whether that keeps those classes from being re-learned.
    """
    cfg = ws.cfg
    original = ws.load(ws.original_path())
    model = original.copy()
    current = ws.train_data
    series: list[dict] = []
    rows: list[Row] = []
    for step, request in enumerate(cfg.sequential_requests, start=1):
        request = set(request)
        overlap = request & current.superposed
        if overlap:
            log.warning("step %d: classes %s already forgotten; using union semantics",
                        step, sorted(overlap))
        new = request - current.superposed
        if new:
            step_cfg = replace(cfg, unlearn=replace(cfg.unlearn, forget_set=sorted(new)))
            forget(model, current, "qp", step_cfg)
            current = superpose_labels(current, new)
        forgotten = current.superposed
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
    return rows


ABLATION_VARIANTS: list[tuple[str, dict]] = [
    ("no_weight_transform", {"skip_weight_transform": True}),
    ("no_uncertainty_maximization", {"skip_uncertainty_max": True}),
    ("no_matrix_m", {"skip_mixing": True}),
    ("lambda_0.5", {"entropy_lambda": 0.5}),
    ("lambda_2.0", {"entropy_lambda": 2.0}),
    ("full", {}),
]


def _ablation_step(ws: Workspace, original_report: EvaluationReport) -> list[Row]:
    """Run the five ablated variants plus the full method from one seed."""
    rows = []
    original = ws.load(ws.original_path())
    for name, tweaks in ABLATION_VARIANTS:
        model = original.copy()
        forget(model, ws.train_data, "qp",
               replace(ws.cfg, unlearn=replace(ws.cfg.unlearn, **tweaks)))
        save_checkpoint(model, ws.out / f"unlearned_ablation_{name}.qpae")
        report = evaluate(model, ws.eval_data, ws.forget_set,
                          original_fa=original_report.fa)
        ws.write_report(f"ablation_{name}", report)
        rows.append((name, report))
    return rows


def run_scenario(cfg: ExperimentConfig) -> Workspace:
    """Check cfg.scenario's shape before anything is built, train once, run
    the scenario's step, then write the one table of the rows it returns."""
    classes = len(set(cfg.unlearn.forget_set))
    if cfg.scenario in ("single", "accent") and classes != 1:
        raise ConfigError(f"{cfg.scenario} scenario requires exactly one forget class")
    if cfg.scenario == "multi" and classes < 2:
        raise ConfigError("multi scenario requires at least two forget classes")
    ws = Workspace.create(cfg)
    _, original_report = cmd_train(ws)
    if cfg.scenario == "sequential":
        rows = _sequential_step(ws)
    else:
        step = _ablation_step if cfg.scenario == "ablation" else _standard_step
        rows = [("Original", original_report), *step(ws, original_report)]
    write_table(ws.out, rows, stem=table_stem(cfg.scenario))
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
    """Assemble a table from the report JSONs already in a directory; each
    must cover the forget set and class count of the first one found."""
    if not str(out):
        raise ConfigError("--out must name a directory, got ''")
    out_dir = Path(out)
    rows, first = [], None
    labels = [("original", "Original"), *((mid, m.label) for mid, m in METHOD_IDS.items())]
    for stem, label in labels:
        # `evaluate` names a report after its checkpoint, unlearned_<id>
        for path in (out_dir / f"report_{stem}.json",
                     out_dir / f"report_unlearned_{stem}.json"):
            if path.exists():
                report = report_from_json(path.read_bytes())
                request = (report.forget_set, report.num_classes)
                first = first or (path, request)
                if request != first[1]:
                    raise ConfigError(
                        f"{path} covers forget set {request[0]} of {request[1]} "
                        f"classes; {first[0]} covers {first[1][0]} of {first[1][1]}")
                rows.append((label, report))
                break
    if not rows:
        raise FileNotFoundError(f"no report_*.json files found in {out_dir}")
    return write_table(out_dir, rows)
