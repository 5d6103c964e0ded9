import gc
import hashlib
import json
import re
import weakref
from contextlib import nullcontext
from dataclasses import fields as dataclass_fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from qpae import harness
from qpae.audio import WavClip, write_wav
from qpae.baselines import BaselineConfig
from qpae.checkpoint import load_checkpoint
from qpae.cli import main
from qpae.data import train_eval_split
from qpae.files import FIELD_KINDS
from qpae.harness import (ConfigError, Workspace, cmd_report, cmd_synth,
                          config_from_dict, config_to_dict, default_config,
                          emit_table, load_config)
from qpae.metrics import evaluate, per_score, report_from_json, report_to_json
from qpae.model import Classifier, TrainConfig
from qpae.rng import Rng, derive_seed

from helpers import equals_bits


@pytest.fixture()
def small_cfg(tmp_path):
    """A scaled-down experiment that runs in well under a second."""
    return default_config(
        "single",
        seed=5,
        output_dir=str(tmp_path / "out"),
        dataset=harness.DatasetSpec(kind="synthetic", num_classes=4,
                                    per_class=20, n_mels=8, n_frames=8),
        model=harness.ModelSection([16]),
        train=TrainConfig(learning_rate=0.05, epochs=10),
        baselines=BaselineConfig(ascent_epochs=1, learning_rate=0.02),
    )


# a JSON value of the wrong kind for each annotation a config field has
WRONG_KIND = {"int": 1.5, "float": "x", "bool": 1, "str": 5, "str | None": 5,
              "list[int]": [1.5], "list[list[int]]": [[1.5]]}


def _config_fields():
    """One case per config field: the top level and each section. Section
    seeds are no config keys."""
    cfg = default_config("sequential")
    cases = []
    for f in dataclass_fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            cases += [(f"{f.name}.{g.name}", (f.name, g.name), g.type)
                      for g in dataclass_fields(value) if g.name != "seed"]
        else:
            cases.append((f.name, (f.name,), f.type))
    return [pytest.param(*case, id=case[0]) for case in cases]


class TestConfig:
    @pytest.mark.parametrize("cfg", [
        *(default_config(s) for s in harness.SCENARIOS),
        default_config(model=harness.ModelSection([32, 16]))],
        ids=[*harness.SCENARIOS, "hidden_32_16"])
    def test_round_trip(self, cfg):
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert config_to_dict(again) == config_to_dict(cfg)

    @pytest.mark.parametrize("name, path, annotation", _config_fields())
    def test_every_field_refuses_a_wrong_kind(self, name, path, annotation):
        # a field whose annotation the walk does not know would go unchecked
        assert annotation in FIELD_KINDS
        wrong = WRONG_KIND[annotation]
        raw = config_to_dict(default_config("sequential"))
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = wrong
        with pytest.raises(ConfigError):
            harness.check_ranges(config_from_dict(raw))
        # the walk alone, on a config built in code rather than parsed
        cfg = default_config("sequential")
        node = cfg
        for key in path[:-1]:
            node = getattr(node, key)
        setattr(node, path[-1], wrong)
        with pytest.raises(ConfigError, match=re.escape(f"{name} must be")):
            harness.check_ranges(cfg)

    def test_section_seed_is_no_key(self):
        with pytest.raises(ConfigError, match="unknown keys in train"):
            config_from_dict({"train": {"seed": 3}})
        with pytest.raises(ConfigError, match="unknown keys in baselines"):
            config_from_dict({"baselines": {"seed": 3}})
        with pytest.raises(ConfigError, match="unknown keys in unlearn"):
            config_from_dict({"unlearn": {"seed": 1}})

    @pytest.mark.parametrize("scenario", harness.SCENARIOS)
    def test_unlearn_section_keys(self, scenario):
        assert list(config_to_dict(default_config(scenario))["unlearn"]) == [
            "forget_set", "phi", "entropy_lambda", "alpha", "epochs",
            "learning_rate", "batch_size", "skip_weight_transform",
            "skip_uncertainty_max", "skip_mixing"]

    @pytest.mark.parametrize("scenario", harness.SCENARIOS)
    def test_baselines_section_keys(self, scenario):
        assert list(config_to_dict(default_config(scenario))["baselines"]) == [
            "ascent_epochs", "finetune_epochs", "learning_rate", "batch_size",
            "fisher_noise_scale", "ssd_threshold", "ssd_dampening_floor"]

    def test_default_config_has_32_settable_values(self):
        def leaves(node):
            if isinstance(node, dict):
                return sum(leaves(v) for v in node.values())
            return 1
        assert leaves(config_to_dict(default_config())) == 32

    def test_round_trip_through_file(self, tmp_path):
        cfg = default_config("multi")
        path = tmp_path / "cfg.json"
        harness.save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"sed": 7})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"train": {"learning_rte": 0.1}})
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"baselines": {"ascent_epochs": 1, "gamma": 1.0}})
        # the method is a --method argument, not a config key
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"baselines": {"method": "gradient_ascent"}})

    def test_bad_scenario_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"scenario": "both"})

    def test_sequential_requires_requests(self):
        with pytest.raises(ConfigError):
            harness.check_ranges(config_from_dict({"scenario": "sequential"}))

    def test_manifest_requires_path(self):
        with pytest.raises(ConfigError):
            config_from_dict({"dataset": {"kind": "manifest"}})

    @pytest.mark.parametrize("build, message", [
        (lambda: config_from_dict({"dataset": {"n_mels": 0}}),
         "dataset.n_mels must be in [1, 128], got 0"),
        (lambda: config_from_dict({"dataset": {"n_frames": 0}}),
         "dataset.n_frames must be >= 1, got 0"),
        (lambda: harness.DatasetSpec(num_classes=1), "dataset.num_classes must be >= 2, got 1"),
        (lambda: harness.DatasetSpec(per_class=2),
         "dataset.per_class must leave samples on both sides of the 0.8 split, got 2"),
        (lambda: harness.ModelSection(hidden=[0]), "model.hidden widths must be >= 1, got [0]")],
        ids=["n_mels", "n_frames", "num_classes", "per_class", "hidden"])
    def test_dataset_and_model_sections_check_their_own_values(self, build, message):
        """From a file or from Python, a section refuses a bad value when it
        is built, with the message `check_ranges` used to give."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build()

    def test_a_section_rule_is_reported_before_a_cross_section_one(self):
        """A forget set out of range needs `check_ranges`; a bad n_mels is
        refused while the file is parsed, so with both the n_mels one wins."""
        raw = {"unlearn": {"forget_set": [99]}}
        with pytest.raises(ConfigError, match="forget_set"):
            harness.check_ranges(config_from_dict(raw))
        with pytest.raises(ConfigError, match=r"^dataset\.n_mels must be in"):
            harness.check_ranges(config_from_dict({**raw, "dataset": {"n_mels": 0}}))

    def test_not_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match=re.escape(f"{p} is not valid JSON")):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    @pytest.mark.parametrize("per_class", range(1, 9))
    def test_per_class_accepted_iff_split_keeps_both_sides(self, per_class):
        classes = np.repeat(np.arange(3), per_class)
        sides = train_eval_split(classes, 3, seed=1)
        both_sides = all(np.any(classes[rows] == c) for rows in sides for c in range(3))
        # the spec itself refuses a per_class the split leaves one side of
        with nullcontext() if both_sides else pytest.raises(ConfigError, match="per_class"):
            harness.check_ranges(default_config(
                dataset=harness.DatasetSpec(num_classes=3, per_class=per_class)))


class TestWorkspace:
    @pytest.mark.parametrize("section, key, value", [
        ("unlearn", "forget_set", [10]), ("dataset", "per_class", 2),
        (None, "seed", -1), (None, "output_dir", "")],
        ids=["forget_set", "per_class", "seed", "output_dir"])
    def test_a_directly_built_workspace_is_checked(self, small_cfg, tmp_path,
                                                   section, key, value):
        """The constructor refuses a config the run cannot use, even with
        both sides passed in and the output directory named."""
        sides = harness.prepare_splits(small_cfg)
        setattr(getattr(small_cfg, section) if section else small_cfg, key, value)
        with pytest.raises(ConfigError):
            Workspace(cfg=small_cfg, out=tmp_path / "out", train_data=sides[0],
                      eval_data=sides[1])


    @pytest.mark.parametrize("scenario", ["sequential", "ablation"])
    def test_scenarios_load_the_original_through_load(self, small_cfg, monkeypatch,
                                                      scenario):
        """`Workspace.load` is the one way a scenario reads a stored model,
        and each model it reads is a checkpoint in its output directory:
        train reads back the original, and each ablation variant is read by
        unlearn (the original) and evaluate (the variant)."""
        loads, real = [], Workspace.load
        monkeypatch.setattr(Workspace, "load",
                            lambda ws, path: loads.append(Path(path)) or real(ws, path))
        small_cfg.scenario = scenario
        small_cfg.unlearn.epochs = 1
        small_cfg.sequential_requests = [[0], [1]]
        ws = harness.run_scenario(small_cfg)
        assert all(p.parent == ws.out and p.suffix == ".qpae" and p.is_file()
                   for p in loads)
        expected = ["original.qpae", "original.qpae"]
        if scenario == "ablation":
            expected = ["original.qpae"] + [
                name for method in harness.ABLATION_ROWS
                for name in ("original.qpae", f"unlearned_{method}.qpae")]
        assert [p.name for p in loads] == expected


class TestCommands:
    def test_train_writes_checkpoint_and_report(self, small_cfg):
        ws = Workspace.create(small_cfg)
        path, report = harness.cmd_train(ws)
        assert path.exists()
        assert report.fa is not None
        on_disk = report_from_json((ws.out / "report_original.json").read_text())
        assert on_disk.fa == report.fa

    def test_train_rerun_identical_checkpoint(self, small_cfg, tmp_path):
        ws1 = Workspace.create(small_cfg, tmp_path / "a")
        ws2 = Workspace.create(small_cfg, tmp_path / "b")
        harness.cmd_train(ws1)
        harness.cmd_train(ws2)
        assert (ws1.out / "original.qpae").read_bytes() == \
            (ws2.out / "original.qpae").read_bytes()

    def test_unlearn_never_mutates_original(self, small_cfg):
        ws = Workspace.create(small_cfg)
        harness.cmd_train(ws)
        digest = hashlib.sha256(ws.original_path().read_bytes()).hexdigest()
        harness.cmd_unlearn(ws, "qp")
        harness.cmd_unlearn(ws, "ng")
        assert hashlib.sha256(ws.original_path().read_bytes()).hexdigest() == digest

    def test_unlearn_records_the_digest_of_its_original(self, small_cfg):
        ws = Workspace.create(small_cfg)
        harness.cmd_train(ws)
        path, _ = harness.cmd_unlearn(ws, "ng")
        digest = hashlib.sha256(ws.original_path().read_bytes()).hexdigest()
        assert path == ws.out / "unlearned_ng.qpae"
        assert (ws.out / "unlearned_ng.parent").read_text() == digest + "\n"
        named = ws.out / "copy.parent"  # a checkpoint is not its own record
        named.write_bytes(path.read_bytes())
        ws.load(named)
        (ws.out / "unlearned_ng.parent").write_text("0" * 64 + "\n")
        with pytest.raises(ConfigError, match="another original"):
            ws.load(path)

    def test_one_workspace_hashes_its_original_once(self, small_cfg, monkeypatch):
        """unlearn hashes original.qpae for its record and evaluate checks
        that record on the same workspace without reading it again; a
        train, which writes the original, drops the kept digest."""
        ws = Workspace.create(small_cfg)
        harness.cmd_train(ws)
        hashed, real = [], harness._sha256
        monkeypatch.setattr(harness, "_sha256", lambda data: hashed.append(data) or real(data))
        path, _ = harness.cmd_unlearn(ws, "ng")
        harness.cmd_evaluate(ws, path)
        original = ws.original_path().read_bytes()
        assert hashed == [original]
        # a matching original is scored as it stands; a train writes one
        # only where there is none
        ws.original_path().unlink()
        harness.cmd_train(ws)
        assert ws.original_digest() == hashlib.sha256(original).hexdigest()
        assert hashed == [original, original]

    @pytest.mark.parametrize("scenario", ["single", "ablation"])
    def test_a_scenario_hashes_its_original_once(self, small_cfg, monkeypatch, scenario):
        """Every row of a scenario runs on the one workspace `run_scenario`
        made, so all the rows' `.parent` records come from one hash."""
        hashed, real = [], harness._sha256
        monkeypatch.setattr(harness, "_sha256", lambda data: hashed.append(data) or real(data))
        small_cfg.unlearn.epochs = 1
        ws = harness.run_scenario(replace(small_cfg, scenario=scenario))
        assert hashed == [ws.original_path().read_bytes()]

    def test_unlearn_unknown_method(self, small_cfg):
        ws = Workspace.create(small_cfg)
        harness.cmd_train(ws)
        with pytest.raises(ConfigError):
            harness.cmd_unlearn(ws, "distillation")

    def test_qp_phase_log_written_with_skips(self, small_cfg):
        small_cfg.unlearn.epochs = 1
        ws = Workspace.create(small_cfg)
        harness.cmd_train(ws)
        harness.cmd_unlearn(ws, "qp")
        log = json.loads((ws.out / "phase_log_qp.json").read_text())
        assert [e["phase"] for e in log] == ["interference", "superposition",
                                             "optimization", "mixing"]
        assert all(not e["skipped"] for e in log)

    def test_qp_skip_mixing_flag_logged(self, small_cfg):
        small_cfg.unlearn.epochs = 1
        small_cfg.unlearn.skip_mixing = True
        ws = Workspace.create(small_cfg)
        harness.cmd_train(ws)
        harness.cmd_unlearn(ws, "qp")
        log = json.loads((ws.out / "phase_log_qp.json").read_text())
        by_phase = {e["phase"]: e for e in log}
        assert by_phase["mixing"]["skipped"] is True
        assert by_phase["interference"]["skipped"] is False

    def test_skip_flags_survive_config_round_trip(self, small_cfg):
        small_cfg.unlearn.skip_uncertainty_max = True
        again = config_from_dict(config_to_dict(small_cfg))
        assert again.unlearn.skip_uncertainty_max is True
        assert again == small_cfg

    def test_evaluate_attaches_per_and_deltas(self, small_cfg):
        ws = Workspace.create(small_cfg)
        _, original = harness.cmd_train(ws)
        path, _ = harness.cmd_unlearn(ws, "qp")
        report = harness.cmd_evaluate(ws, path, original_report=original, name="qp")
        assert report.per is not None
        assert (ws.out / "report_qp_deltas.json").exists()
        csv_text = (ws.out / "report_qp.csv").read_text()
        assert csv_text.splitlines()[0] == "Method,FA,FAR,RA,FRR,PER,IL,ERB"

    def test_self_evaluation_gives_per_zero(self, small_cfg):
        ws = Workspace.create(small_cfg)
        _, original = harness.cmd_train(ws)
        report = harness.cmd_evaluate(ws, ws.original_path(),
                                      original_report=original, name="self")
        assert report.per == 0.0


def without_wall_ms(phase_log):
    return [{k: v for k, v in entry.items() if k != "wall_ms"} for entry in phase_log]


class TestForget:
    @pytest.mark.parametrize("method_id", sorted(harness.METHOD_ROWS))
    def test_matches_what_cmd_unlearn_writes(self, small_cfg, tmp_path, monkeypatch,
                                             method_id):
        ws = Workspace.create(small_cfg)
        harness.cmd_train(ws)
        model = load_checkpoint(ws.original_path())
        monkeypatch.chdir(tmp_path)
        files = sorted(tmp_path.rglob("*"))
        result, phase_log = harness.forget(model, ws.train_data, method_id, ws.cfg)
        assert result is model
        assert sorted(tmp_path.rglob("*")) == files  # forget writes nothing
        path, written_log = harness.cmd_unlearn(ws, method_id)
        # the checkpoint holds float32 parameters
        stored = Classifier([(w.astype(np.float32), b.astype(np.float32))
                             for w, b in model.layers])
        assert equals_bits(load_checkpoint(path), stored)
        on_disk = json.loads((ws.out / f"phase_log_{method_id}.json").read_text())
        assert without_wall_ms(phase_log) == without_wall_ms(on_disk) == \
            without_wall_ms(written_log)

    @pytest.mark.parametrize("method_id", sorted(harness.METHOD_ROWS))
    def test_phase_log_ends_on_what_evaluate_counts(self, small_cfg, method_id):
        # the phase log and a report count FA and RA by one rule
        ws = Workspace.create(small_cfg)
        harness.cmd_train(ws)
        model, phase_log = harness.forget(load_checkpoint(ws.original_path()),
                                          ws.train_data, method_id, ws.cfg)
        report = evaluate(model, ws.train_data, ws.forget_set)
        last = phase_log[-1]
        assert (last["forget_accuracy"], last["retain_accuracy"]) == (report.fa, report.ra)

    def test_unknown_method_leaves_the_model_untouched(self, small_cfg):
        ws = Workspace.create(small_cfg)
        model = Classifier.random_init(ws.train_data.feature_dim, [16],
                                       ws.train_data.num_classes, Rng(3))
        before = model.copy()
        with pytest.raises(ConfigError, match="unknown method"):
            harness.forget(model, ws.train_data, "distillation", ws.cfg)
        assert equals_bits(model, before)

    @pytest.mark.parametrize("method_id", sorted(harness.METHOD_ROWS))
    def test_bad_forget_set_leaves_the_model_untouched(self, small_cfg, method_id):
        """Every method refuses a class past the split's 4 before it trains."""
        ws = Workspace.create(small_cfg)
        harness.cmd_train(ws)
        model = load_checkpoint(ws.original_path())
        before = model.copy()
        cfg = replace(ws.cfg, unlearn=replace(ws.cfg.unlearn, forget_set=[7]))
        with pytest.raises(ValueError, match=r"holds \[7\], not class ids in \[0, 4\)"):
            harness.forget(model, ws.train_data, method_id, cfg)
        assert equals_bits(model, before)

    @pytest.mark.parametrize("scenario", harness.SCENARIOS)
    def test_baseline_seed_is_its_method_table_key(self, small_cfg, monkeypatch,
                                                   scenario):
        """`forget` hands each baseline the scenario's baselines section,
        seeded with derive_seed(seed, k) for its written-out key k. It reaches
        both runners through harness's globals, where the benchmark wraps them."""
        cfg = replace(small_cfg, seed=99, baselines=default_config(scenario).baselines)
        ws = Workspace(cfg)
        model = Classifier.random_init(ws.train_data.feature_dim, [16],
                                       ws.train_data.num_classes, Rng(3))
        handed = []
        monkeypatch.setattr(harness, "run_baseline",
                            lambda m, data, forget_set, name, bcfg:
                            handed.append((name, bcfg)) or m)
        monkeypatch.setattr(harness, "run_qp_audio_eraser",
                            lambda m, data, ucfg: handed.append(("qp", ucfg)) or (m, []))
        for mid in ("ga", "ng", "fisher", "ssd", "qp"):
            harness.forget(model, ws.train_data, mid, cfg)
        assert handed.pop()[0] == "qp"
        assert [name for name, _ in handed] == [
            "gradient_ascent", "negative_gradient", "fisher_forgetting",
            "synaptic_dampening"]
        for (_, bcfg), k in zip(handed, (16, 17, 18, 19)):
            assert bcfg.seed == derive_seed(99, k)
            assert replace(bcfg, seed=cfg.baselines.seed) == cfg.baselines

    @pytest.mark.parametrize("scenario, qp_calls, baseline_calls", [
        ("single", 1, 4), ("multi", 1, 4), ("sequential", 3, 0), ("ablation", 6, 0),
        ("accent", 1, 4)])
    def test_every_request_goes_through_the_module_globals(self, tmp_path, monkeypatch,
                                                           scenario, qp_calls,
                                                           baseline_calls):
        """The benchmark times requests by replacing harness.run_qp_audio_eraser
        and harness.run_baseline: every request of every scenario goes through them."""
        default = default_config(scenario)
        cfg = default_config(
            scenario, output_dir=str(tmp_path),
            dataset=replace(default.dataset, per_class=20, n_mels=8, n_frames=8),
            train=replace(default.train, epochs=2), unlearn=replace(default.unlearn, epochs=1))
        calls = {"run_qp_audio_eraser": 0, "run_baseline": 0}
        for name in calls:
            def counted(*args, _name=name, _runner=getattr(harness, name)):
                calls[_name] += 1
                return _runner(*args)
            monkeypatch.setattr(harness, name, counted)
        harness.run_scenario(cfg)
        assert calls == {"run_qp_audio_eraser": qp_calls, "run_baseline": baseline_calls}

    def test_full_ablation_variant_is_the_qp_request(self, small_cfg):
        small_cfg.unlearn.epochs = 1
        small_cfg.scenario = "ablation"
        ws = harness.run_scenario(small_cfg)
        path, _ = harness.cmd_unlearn(ws, "qp")
        assert path.read_bytes() == \
            (ws.out / "unlearned_ablation_full.qpae").read_bytes()


def sequential_series(ws: Workspace) -> list[dict]:
    return json.loads((ws.out / "sequential_series.json").read_text())


class TestSequentialScenario:
    def test_retained_class_count_shrinks(self, small_cfg):
        small_cfg.scenario = "sequential"
        small_cfg.sequential_requests = [[0], [1]]
        series = sequential_series(harness.run_scenario(small_cfg))
        assert [s["retained_classes"] for s in series] == [3, 2]
        assert [s["forgotten_union"] for s in series] == [[0], [0, 1]]

    def test_overlapping_requests_union_semantics(self, small_cfg, caplog):
        small_cfg.scenario = "sequential"
        small_cfg.sequential_requests = [[0], [0, 1]]
        with caplog.at_level("WARNING", logger="qpae"):
            series = sequential_series(harness.run_scenario(small_cfg))
        assert series[-1]["forgotten_union"] == [0, 1]
        assert any("union semantics" in r.message for r in caplog.records)

    def test_per_reads_the_original_fa_on_each_union(self, small_cfg):
        """Each step's PER is against what `evaluate` gives the stored
        original on that step's union, bit for bit."""
        small_cfg.scenario = "sequential"
        small_cfg.sequential_requests = [[0], [0, 1], [2]]
        # an original that misses half of class 0, so each union's FA differs
        small_cfg.train = TrainConfig(learning_rate=0.05, epochs=8)
        ws = harness.run_scenario(small_cfg)
        original = ws.load(ws.original_path())
        original_fas = []
        for step, union in enumerate(([0], [0, 1], [0, 1, 2]), start=1):
            report = report_from_json((ws.out / f"report_step_{step}.json").read_text())
            original_fas.append(evaluate(original, ws.eval_data, set(union)).fa)
            want = per_score(original_fas[-1], report.fa)
            assert report.forget_set == union
            assert want is not None and report.per.hex() == want.hex()
        assert len(set(original_fas)) == 3

    def test_empty_requests_rejected(self, small_cfg, monkeypatch):
        small_cfg.scenario = "sequential"
        small_cfg.sequential_requests = []
        builds = []
        monkeypatch.setattr(harness, "_last_splits", {})
        monkeypatch.setattr(harness, "build_dataset", builds.append)
        with pytest.raises(ConfigError):
            harness.run_scenario(small_cfg)
        assert builds == []
        assert not Path(small_cfg.output_dir).exists()


class TestAblationScenario:
    def test_grid_has_six_variants_and_shared_original(self, small_cfg):
        small_cfg.unlearn.epochs = 1
        small_cfg.scenario = "ablation"
        ws = harness.run_scenario(small_cfg)
        reports = {p.stem[len("report_"):]: report_from_json(p.read_text())
                   for p in ws.out.glob("report_*.json") if not p.stem.endswith("_deltas")}
        assert set(reports) == {"original", "ablation_no_weight_transform",
                                "ablation_no_uncertainty_maximization",
                                "ablation_no_matrix_m", "ablation_lambda_0.5",
                                "ablation_lambda_2.0", "ablation_full"}
        table = (ws.out / "ablation_table.csv").read_text()
        assert table.count("\n") == 8  # header + original + six variants

    def test_full_variant_is_stored_and_scored_as_qp(self, small_cfg, tmp_path):
        """The full variant is the `single` scenario's `qp` request: the same
        checkpoint, scored from that file into the same report bytes."""
        small_cfg.unlearn.epochs = 1
        single = harness.run_scenario(replace(small_cfg, output_dir=str(tmp_path / "s")))
        ablation = harness.run_scenario(replace(small_cfg, scenario="ablation",
                                                output_dir=str(tmp_path / "a")))
        for qp, full in (("unlearned_qp.qpae", "unlearned_ablation_full.qpae"),
                         ("report_qp.json", "report_ablation_full.json"),
                         ("report_qp_deltas.json", "report_ablation_full_deltas.json")):
            assert (single.out / qp).read_bytes() == (ablation.out / full).read_bytes(), full


class TestTables:
    def test_emit_table_original_row_per_dash(self, small_cfg):
        ws = Workspace.create(small_cfg)
        _, original = harness.cmd_train(ws)
        markdown, csv_text = emit_table([("Original", original)])
        md_row = markdown.splitlines()[2]
        csv_row = csv_text.splitlines()[1]
        assert md_row.split("|")[6].strip() == "--"
        assert csv_row.split(",")[5] == "--"

    def test_markdown_and_csv_carry_identical_values(self, small_cfg):
        ws = Workspace.create(small_cfg)
        _, original = harness.cmd_train(ws)
        markdown, csv_text = emit_table([("Original", original)])
        md_cells = [c.strip() for c in markdown.splitlines()[2].split("|")[1:-1]]
        csv_cells = csv_text.splitlines()[1].split(",")
        assert md_cells == csv_cells

    def test_cmd_report_assembles_existing_reports(self, small_cfg):
        ws = Workspace.create(small_cfg)
        _, original = harness.cmd_train(ws)
        path, _ = harness.cmd_unlearn(ws, "ng")
        harness.cmd_evaluate(ws, path, original_report=original, name="ng")
        md_path, csv_path = cmd_report(ws.out)
        text = csv_path.read_text()
        assert text.splitlines()[1].startswith("Original,")
        assert any(line.startswith("Negative Gradient,") for line in text.splitlines())

    @pytest.mark.parametrize("scenario, forget_set", [("single", [0]), ("multi", [0, 2])])
    def test_cmd_report_rewrites_the_scenario_table(self, small_cfg, scenario,
                                                    forget_set):
        """`run_scenario` writes the table from the reports it holds;
        `report` reads the same reports back into the same bytes."""
        cfg = replace(small_cfg, scenario=scenario,
                      unlearn=replace(small_cfg.unlearn, forget_set=forget_set))
        ws = harness.run_scenario(cfg)
        table = {name: (ws.out / name).read_bytes() for name in ("table.md", "table.csv")}
        assert len(table["table.csv"].splitlines()) == 7  # header, original, 5 methods
        for path in ws.out.glob("table.*"):
            path.unlink()
        cmd_report(ws.out)
        assert {name: (ws.out / name).read_bytes() for name in table} == table

    def test_cmd_report_empty_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cmd_report(tmp_path)


class TestSynthCommand:
    def test_manifest_round_trip_through_training(self, small_cfg, tmp_path):
        out = tmp_path / "dataset"
        cmd_synth(small_cfg, out)
        assert (out / "labels.csv").exists()
        manifest_cfg = default_config(
            "single", seed=5, output_dir=str(tmp_path / "out2"),
            dataset=harness.DatasetSpec(kind="manifest", path=str(out),
                                        num_classes=4, n_mels=8, n_frames=8),
            model=harness.ModelSection([16]))
        data = harness.build_dataset(manifest_cfg)
        assert data.n_samples == 4 * 20
        assert data.num_classes == 4

    def test_synth_requires_synthetic_spec(self, small_cfg, tmp_path):
        small_cfg.dataset = harness.DatasetSpec(kind="manifest", path=str(tmp_path))
        with pytest.raises(ConfigError):
            cmd_synth(small_cfg, tmp_path / "x")


class TestSplitReuse:
    @pytest.fixture()
    def builds(self, monkeypatch):
        """Record each side prepare_split builds, as (seed, row count)."""
        calls = []
        real = harness.build_dataset

        def counting(cfg, rows):
            calls.append((cfg.seed, len(rows)))
            return real(cfg, rows)
        monkeypatch.setattr(harness, "build_dataset", counting)
        return calls

    def test_hit_returns_read_only_arrays(self, small_cfg, builds):
        first = harness.prepare_splits(small_cfg)
        builds.clear()
        again = harness.prepare_splits(replace(small_cfg, output_dir="elsewhere"))
        assert builds == []
        for part, same in zip(again, first):
            assert part is same
            for array in (part.features, part.original_classes):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    @pytest.mark.parametrize("change", [
        {"num_classes": 3}, {"per_class": 21}, {"n_mels": 16}, {"n_frames": 9},
        {"profile": "overlap"}, {"path": "unused"}, {"seed": 6}])
    def test_any_spec_field_or_seed_misses(self, small_cfg, builds, change):
        base = harness.prepare_splits(small_cfg)
        builds.clear()
        seed = change.get("seed", small_cfg.seed)
        fields = {k: v for k, v in change.items() if k != "seed"}
        cfg = replace(small_cfg, seed=seed,
                      dataset=replace(small_cfg.dataset, **fields))
        other = harness.prepare_splits(cfg)
        assert [s for s, _ in builds] == [seed, seed]
        assert other[0] is not base[0]
        assert len(harness._last_splits) == 1  # the first dataset was dropped

    def test_manifest_is_read_afresh(self, small_cfg, tmp_path, builds):
        data_dir = cmd_synth(small_cfg, tmp_path / "dataset")
        cfg = replace(small_cfg, dataset=harness.DatasetSpec(
            kind="manifest", path=str(data_dir), num_classes=4, n_mels=8, n_frames=8))
        before, _ = harness.prepare_splits(cfg)
        assert before.features.flags.writeable
        assert harness._last_splits == {}
        for wav in (data_dir / "wavs").iterdir():
            write_wav(WavClip(8000, np.zeros(6400)), wav)
        after, _ = harness.prepare_splits(cfg)
        assert builds == [(small_cfg.seed, 64), (small_cfg.seed, 16)] * 2
        assert np.all(after.features == np.log(1e-6))
        assert not np.array_equal(after.features, before.features)

    def test_cold_and_warm_runs_write_identical_files(self, small_cfg, tmp_path,
                                                      builds, monkeypatch):
        monkeypatch.setattr(harness, "_last_splits", {})
        files = []
        for run in ("cold", "warm"):
            ws = harness.run_scenario(replace(small_cfg, output_dir=str(tmp_path / run)))
            files.append({p.name: p.read_bytes() for pattern in
                          ("report_*.json", "*.csv", "*.qpae")
                          for p in ws.out.glob(pattern)})
        assert builds == [(small_cfg.seed, 64), (small_cfg.seed, 16)]
        assert files[0] == files[1]
        assert "unlearned_qp.qpae" in files[0] and "table.csv" in files[0]


def _train_into_out(cfg) -> Workspace:
    """`qpae train`: `cmd_train` into the config's output directory."""
    ws = Workspace.create(cfg)
    harness.cmd_train(ws)
    return ws


class TestTrainOnce:
    """`cmd_train` keeps each original beside the training side it was
    trained on, and copies it for a later run with the same provenance;
    an original already in --out it scores as it stands."""

    @pytest.fixture()
    def trainings(self, monkeypatch):
        """The training side of each original `cmd_train` trains, from a
        cold process."""
        sides = []
        real = harness.train

        def recording(model, data, *args):
            sides.append(data)
            return real(model, data, *args)
        monkeypatch.setattr(harness, "train", recording)
        monkeypatch.setattr(harness, "_last_splits", {})
        return sides

    @staticmethod
    def _original(ws):
        return {name: (ws.out / name).read_bytes()
                for name in ("original.qpae", "report_original.json")}

    def test_a_second_run_trains_nothing_and_writes_the_same_bytes(
            self, small_cfg, tmp_path, trainings):
        files = [self._original(harness.run_scenario(
            replace(small_cfg, output_dir=str(tmp_path / run)))) for run in ("a", "b")]
        assert len(trainings) == 1
        assert files[0] == files[1]

    @pytest.mark.parametrize("command", [harness.run_scenario, _train_into_out],
                             ids=["run_scenario", "cmd_train"])
    def test_a_matching_original_in_out_is_scored_not_trained(
            self, small_cfg, trainings, monkeypatch, command):
        """A second run or train on one --out, in a fresh process, trains
        nothing and leaves original.qpae as it was; every file it writes
        keeps its bytes."""
        small_cfg.unlearn.epochs = 1
        ws = command(small_cfg)

        def written():
            # phase logs hold wall times
            return {p.name: p.read_bytes() for p in ws.out.iterdir()
                    if not p.name.startswith("phase_log_")}
        before, stat = written(), ws.original_path().stat()
        monkeypatch.setattr(harness, "_last_splits", {})
        command(small_cfg)
        assert len(trainings) == 1
        after = ws.original_path().stat()
        assert (after.st_ino, after.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)
        assert written() == before

    @pytest.mark.parametrize("change", [
        {"train": TrainConfig(learning_rate=0.05, epochs=9)},
        {"train": TrainConfig(learning_rate=0.04, epochs=10)},
        {"model": harness.ModelSection([8])}], ids=["epochs", "learning_rate", "hidden"])
    def test_another_model_or_train_section_trains_again(self, small_cfg, tmp_path,
                                                         trainings, change):
        first = Workspace.create(small_cfg, tmp_path / "a")
        harness.cmd_train(first)
        other = Workspace.create(replace(small_cfg, **change), tmp_path / "b")
        harness.cmd_train(other)
        assert trainings == [first.train_data, first.train_data]
        assert self._original(other)["original.qpae"] != \
            self._original(first)["original.qpae"]
        # both stay kept beside the one split
        harness.cmd_train(Workspace.create(small_cfg, tmp_path / "c"))
        harness.cmd_train(Workspace.create(replace(small_cfg, **change), tmp_path / "d"))
        assert len(trainings) == 2

    def test_a_manifest_trains_every_time(self, small_cfg, tmp_path, trainings):
        data_dir = cmd_synth(small_cfg, tmp_path / "dataset")
        cfg = replace(small_cfg, dataset=harness.DatasetSpec(
            kind="manifest", path=str(data_dir), num_classes=4, n_mels=8, n_frames=8))
        files = []
        for run in ("a", "b"):
            ws = Workspace.create(cfg, tmp_path / run)
            harness.cmd_train(ws)
            files.append(self._original(ws))
        assert len(trainings) == 2
        assert files[0] == files[1]

    def test_sides_passed_in_train_again(self, small_cfg, tmp_path, trainings):
        kept = Workspace.create(small_cfg, tmp_path / "a")
        harness.cmd_train(kept)
        train_data = kept.train_data.subset(np.arange(kept.train_data.n_samples))
        passed = Workspace(small_cfg, tmp_path / "b", train_data=train_data,
                           eval_data=kept.eval_data)
        passed.out.mkdir()
        harness.cmd_train(passed)
        assert trainings == [kept.train_data, train_data]
        assert self._original(passed) == self._original(kept)

    def test_no_original_outlives_its_split(self, small_cfg, tmp_path, trainings):
        harness.cmd_train(Workspace.create(small_cfg, tmp_path / "a"))
        (entry,) = harness._last_splits.values()
        (model,) = entry.originals.values()
        gone = weakref.ref(model)
        del entry, model
        harness.prepare_split(replace(small_cfg, seed=6), 0)
        gc.collect()
        assert gone() is None
        (entry,) = harness._last_splits.values()
        assert entry.originals == {}


class TestOneSide:
    @pytest.fixture()
    def manifest_cfg(self, small_cfg, tmp_path):
        data_dir = cmd_synth(small_cfg, tmp_path / "dataset")
        return replace(small_cfg, dataset=harness.DatasetSpec(
            kind="manifest", path=str(data_dir), num_classes=4, n_mels=8, n_frames=8))

    @pytest.mark.parametrize("kind", ["synthetic", "manifest"])
    def test_each_side_equals_that_side_of_a_full_build(self, small_cfg, manifest_cfg,
                                                        monkeypatch, kind):
        cfg = small_cfg if kind == "synthetic" else manifest_cfg
        monkeypatch.setattr(harness, "_last_splits", {})
        full = harness.build_dataset(cfg)
        sides = train_eval_split(full.original_classes, cfg.dataset.num_classes,
                                 derive_seed(cfg.seed, harness._SEED_SPLIT))
        for side, rows in enumerate(sides):
            want = full.subset(rows)
            part = harness.prepare_split(cfg, side)
            assert part.features.tobytes() == want.features.tobytes()
            assert part.labels().tobytes() == want.labels().tobytes()
            assert part.original_classes.tolist() == want.original_classes.tolist()

    def test_a_kept_synthetic_pair_is_reused(self, small_cfg, monkeypatch):
        monkeypatch.setattr(harness, "_last_splits", {})
        full = harness.prepare_splits(small_cfg)
        for side in (0, 1):
            assert harness.prepare_split(small_cfg, side) is full[side]

    def test_a_side_built_alone_is_kept_for_both_sides(self, small_cfg, monkeypatch):
        monkeypatch.setattr(harness, "_last_splits", {})
        held_out = harness.prepare_split(small_cfg, 1)
        builds = []
        real = harness.build_dataset
        monkeypatch.setattr(harness, "build_dataset",
                            lambda cfg, rows: builds.append(len(rows)) or real(cfg, rows))
        assert harness.prepare_splits(small_cfg)[1] is held_out
        assert builds == [64]

    def test_each_command_builds_the_rows_it_reads(self, manifest_cfg, tmp_path,
                                                   monkeypatch):
        """train builds both sides, one after the other; unlearn only the
        training rows, evaluate only the held-out ones."""
        builds = []
        real = harness.build_dataset

        def recording(cfg, rows=None):
            builds.append(None if rows is None else len(rows))
            return real(cfg, rows)
        monkeypatch.setattr(harness, "build_dataset", recording)
        cfg_path = tmp_path / "manifest.json"
        harness.save_config(manifest_cfg, cfg_path)
        common = ["--config", str(cfg_path)]
        out = Path(manifest_cfg.output_dir)
        assert main(["train", *common]) == 0
        assert main(["unlearn", *common, "--method", "qp"]) == 0
        assert main(["evaluate", *common, "--model", str(out / "unlearned_qp.qpae")]) == 0
        assert builds == [64, 16, 64, 16]


class TestScenarioValidation:
    def test_single_needs_one_class(self, small_cfg):
        small_cfg.unlearn.forget_set = [0, 1]
        with pytest.raises(ConfigError):
            harness.run_scenario(small_cfg)

    @pytest.mark.parametrize("forget_set", [[0], [0, 0]], ids=["one", "repeated"])
    def test_multi_needs_two_classes(self, small_cfg, forget_set):
        small_cfg.scenario = "multi"
        small_cfg.unlearn.forget_set = forget_set
        with pytest.raises(ConfigError):
            harness.run_scenario(small_cfg)


def test_accent_style_run_on_overlap_profile(tmp_path):
    """Single-class forgetting where classes share spectral structure:
    erasure must still be total with retention roughly preserved."""
    out = tmp_path / "accent"
    assert main(["run", "--scenario", "accent", "--out", str(out)]) == 0
    original = report_from_json((out / "report_original.json").read_text())
    report = report_from_json((out / "report_qp.json").read_text())
    assert original.ra >= 75.0
    assert report.fa == 0.0
    assert report.ra >= original.ra - 10.0


@pytest.mark.parametrize("scenario", harness.SCENARIOS)
def test_every_report_a_scenario_writes_reads_back_unchanged(tmp_path, scenario):
    """Each report agrees with its own confusion matrix, so reading it back
    refuses nothing and writing it again gives the same bytes. A report
    with its checkpoint beside it is that checkpoint's report, byte for byte."""
    ws = harness.run_scenario(harness.default_config(scenario, output_dir=str(tmp_path)))
    paths = [p for p in ws.out.glob("report_*.json") if not p.stem.endswith("_deltas")]
    assert paths
    original_fa = report_from_json((ws.out / "report_original.json").read_text()).fa
    for path in paths:
        text = path.read_text()
        assert report_to_json(report_from_json(text)) + "\n" == text, path.name
        stem = path.stem[len("report_"):]
        checkpoint = ws.out / ("original.qpae" if stem == "original"
                               else f"unlearned_{stem}.qpae")
        if checkpoint.exists():
            scored = evaluate(ws.load(checkpoint), ws.eval_data, ws.forget_set,
                              original_fa=None if stem == "original" else original_fa)
            assert report_to_json(scored) + "\n" == text, path.name
