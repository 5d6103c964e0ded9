import json
import os
import struct
from dataclasses import replace

import pytest

from qpae import harness
from qpae.baselines import BaselineConfig
from qpae.cli import build_parser, main
from qpae.data import train_eval_split
from qpae.harness import DatasetSpec, default_config
from qpae.metrics import format_metric
from qpae.model import TrainConfig
from qpae.rng import derive_seed

from helpers import FailingWrite


@pytest.fixture()
def cfg_path(tmp_path):
    cfg = default_config(
        "single", seed=5, output_dir=str(tmp_path / "out"),
        dataset=DatasetSpec(kind="synthetic", num_classes=4, per_class=15,
                            n_mels=8, n_frames=8),
        model=harness.ModelSection([16]),
        train=TrainConfig(learning_rate=0.05, epochs=10),
        baselines=BaselineConfig(ascent_epochs=1, learning_rate=0.02))
    path = tmp_path / "cfg.json"
    harness.save_config(cfg, path)
    return path


def _error_line(capsys, kind):
    """The one line a failed command printed on stderr, which must start
    with "<kind> error: "."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{kind} error: "), err
    return err[0]


@pytest.mark.parametrize("kind", ["synthetic", "manifest"])
def test_train_then_unlearn_then_evaluate(request, cfg_path, tmp_path, capsys, kind):
    """Every method runs on a synthetic split, which is cached read-only, so
    a write into it raises, and on a manifest's, which is writeable."""
    if kind == "manifest":
        cfg_path = request.getfixturevalue("manifest")["config"]
    config = str(cfg_path)
    out = tmp_path / "out"
    assert main(["train", "--config", config]) == 0
    assert (out / "original.qpae").exists()
    for method in harness.METHOD_IDS:
        assert main(["unlearn", "--config", config, "--method", method]) == 0
        assert (out / f"unlearned_{method}.qpae").exists()
        assert main(["evaluate", "--config", config,
                     "--model", str(out / f"unlearned_{method}.qpae"),
                     "--original-report", str(out / "report_original.json")]) == 0
        assert (out / f"report_unlearned_{method}_deltas.json").exists()
    assert main(["report", "--out", str(out)]) == 0
    rows = (out / "table.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        "Original", *(m.label for m in harness.METHOD_IDS.values())]
    assert "FA=" in capsys.readouterr().out


def test_method_choices_are_the_method_table():
    verbs = build_parser()._subparsers._group_actions[0].choices
    method = next(a for a in verbs["unlearn"]._actions if a.dest == "method")
    assert method.choices == sorted(harness.METHOD_IDS)


def test_forget_override(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["unlearn", "--config", str(cfg_path), "--method", "qp",
                 "--forget", "2"]) == 0
    report = json.loads((out / "phase_log_qp.json").read_text())
    assert report  # ran with the overridden class
    # each phase prints its FA and RA as the tables do
    printed = capsys.readouterr().out
    for entry in report:
        assert (f"  {entry['phase']}: FA={format_metric(entry['forget_accuracy'])} "
                f"RA={format_metric(entry['retain_accuracy'])} (") in printed
    assert main(["evaluate", "--config", str(cfg_path), "--forget", "2",
                 "--model", str(out / "unlearned_qp.qpae")]) == 0
    rep = json.loads((out / "report_unlearned_qp.json").read_text())
    assert rep["forget_set"] == [2]


def test_usage_error_exits_2(cfg_path):
    with pytest.raises(SystemExit) as exc:
        main(["unlearn", "--config", str(cfg_path), "--method", "teleport"])
    assert exc.value.code == 2


def test_ablation_is_a_scenario_not_a_verb(cfg_path, capsys):
    """The grid runs through `run`; an `ablation` verb is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["ablation", "--config", str(cfg_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'ablation'" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    json.dumps({"sed": 1}).encode(), b"\xff{}", "{}".encode("utf-16"), b"[" * 200000,
    # a path that names no file is no config, and no request for the defaults
    "directory", "empty path",
], ids=["unknown_key", "not_utf8", "utf16", "deep_nesting", "directory", "empty_path"])
def test_config_error_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    if content == "directory":
        bad.mkdir()
    elif content != "empty path":
        bad.write_bytes(content)
    out = tmp_path / "fresh"
    config = "" if content == "empty path" else str(bad)
    assert main(["train", "--config", config, "--out", str(out)]) == 2
    _error_line(capsys, "config")
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    {"baselines": [{"method": "negative_gradient", "ascent_epochs": 1}]},
    {"train": {"shuffle": True}},
], ids=["baselines_list", "train_shuffle"])
def test_retired_config_shape_exits_2(cfg_path, tmp_path, capsys, edit):
    """A config file written in the per-method baselines list form, or one
    setting train.shuffle, is refused before --out is made."""
    old = _edit(cfg_path, tmp_path, "old.json", **edit)
    out = tmp_path / "fresh"
    assert main(["train", "--config", str(old), "--out", str(out)]) == 2
    _error_line(capsys, "config")
    assert not out.exists()


@pytest.mark.parametrize("verb, flags, edit", [
    pytest.param("unlearn", ["--method", "qp", "--forget", "10"], {},
                 id="unlearn-forget_past_k"),
    pytest.param("unlearn", ["--method", "qp", "--forget", "4"], {}, id="unlearn-forget_k"),
    pytest.param("train", ["--forget", "-1"], {}, id="train-forget_negative"),
    pytest.param("train", ["--forget", "0,1,2,3"], {}, id="train-forget_every_class"),
    pytest.param("train", [], {"unlearn": {"forget_set": [0, 1, 2, 3]}},
                 id="train-forget_set_every_class"),
    pytest.param("sequential", [],
                 {"scenario": "sequential", "sequential_requests": [[0], [7]]},
                 id="sequential-request_past_k"),
    pytest.param("train", [], {"model": {"hidden": [0]}}, id="train-hidden_zero"),
    pytest.param("train", [], {"model": {"hidden": [16, -3]}}, id="train-hidden_negative"),
    pytest.param("train", ["--forget", "0"], {"dataset": {"num_classes": 1}},
                 id="train-one_class"),
    pytest.param("synth", ["--forget", "0"], {"dataset": {"num_classes": 1}},
                 id="synth-one_class"),
    pytest.param("train", [], {"unlearn": {"forget_set": ["a"]}},
                 id="train-forget_set_string"),
    pytest.param("train", [], {"unlearn": {"forget_set": [1.5]}},
                 id="train-forget_set_float"),
    # the 80/20 split leaves no held-out sample of a class
    pytest.param("train", [], {"dataset": {"per_class": 1}}, id="train-per_class_1"),
    pytest.param("train", [], {"dataset": {"per_class": 2}}, id="train-per_class_2"),
    pytest.param("synth", [], {"dataset": {"per_class": 2}}, id="synth-per_class_2"),
    pytest.param("train", [], {"dataset": {"per_class": 0}}, id="train-per_class_0"),
    pytest.param("train", [], {"dataset": {"per_class": 7.5}}, id="train-per_class_float"),
    # non-integers are refused, not truncated
    pytest.param("train", [], {"seed": 7.9}, id="train-seed_float"),
    pytest.param("train", [], {"seed": True}, id="train-seed_bool"),
    pytest.param("train", [], {"model": {"hidden": [1.5]}}, id="train-hidden_float"),
    pytest.param("train", [], {"model": {"hidden": ["16"]}}, id="train-hidden_string"),
    pytest.param("sequential", [],
                 {"scenario": "sequential", "sequential_requests": [[1.5]]},
                 id="sequential-request_float"),
    # an empty request would train first and fail only at that step
    pytest.param("sequential", [],
                 {"scenario": "sequential", "sequential_requests": [[0], []]},
                 id="sequential-request_empty"),
    # together the requests would forget every class
    pytest.param("sequential", [],
                 {"scenario": "sequential", "sequential_requests": [[0, 1], [2, 3]]},
                 id="sequential-requests_forget_every_class"),
    # the master seed is a u64: Rng would alias any other value to one
    pytest.param("train", ["--seed", "-1"], {}, id="train-seed_flag_negative"),
    pytest.param("train", ["--seed", "18446744073709551616"], {},
                 id="train-seed_flag_2_64"),
    pytest.param("train", [], {"seed": -1}, id="train-seed_negative"),
    # an empty --forget names no class; it is not "no override"
    pytest.param("unlearn", ["--method", "qp", "--forget", ""], {},
                 id="unlearn-forget_empty"),
    pytest.param("evaluate", ["--model", "original.qpae", "--forget", ""], {},
                 id="evaluate-forget_empty"),
    # an empty --out is no directory; it is not the working directory
    pytest.param("train", ["--out", ""], {}, id="train-out_empty"),
    pytest.param("unlearn", ["--method", "qp", "--out", ""], {}, id="unlearn-out_empty"),
    pytest.param("evaluate", ["--model", "original.qpae", "--out", ""], {},
                 id="evaluate-out_empty"),
    pytest.param("run", ["--out", ""], {}, id="run-out_empty"),
    pytest.param("sequential", ["--out", ""], {"sequential_requests": [[0]]},
                 id="sequential-out_empty"),
    pytest.param("synth", ["--out", ""], {}, id="synth-out_empty"),
])
def test_out_of_range_config_exits_2(cfg_path, tmp_path, monkeypatch, capsys, verb,
                                     flags, edit):
    raw = json.loads(cfg_path.read_text())
    for key, value in edit.items():
        raw[key] = {**raw[key], **value} if isinstance(value, dict) else value
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "fresh"
    out.mkdir()
    # whatever lands in the working directory lands in out too
    monkeypatch.chdir(out)
    assert main([verb, "--config", str(cfg_path), "--out", str(out), *flags]) == 2
    _error_line(capsys, "config")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("verb", ["unlearn", "evaluate"])
def test_inputs_are_read_before_the_dataset(cfg_path, tmp_path, monkeypatch, capsys,
                                            verb):
    """A missing checkpoint or a report that is no report exits 3 before
    any dataset is built, and leaves no --out behind."""
    builds = []
    monkeypatch.setattr(harness, "_last_splits", {})
    monkeypatch.setattr(harness, "build_dataset", builds.append)
    out = tmp_path / "fresh"
    if verb == "unlearn":
        extra = ["--method", "qp"]
    else:
        bad = tmp_path / "r.json"
        bad.write_text("{nope")
        extra = ["--model", str(tmp_path / "original.qpae"),
                 "--original-report", str(bad)]
    assert main([verb, "--config", str(cfg_path), "--out", str(out), *extra]) == 3
    _error_line(capsys, "io")
    assert not out.exists()
    assert builds == []


@pytest.mark.parametrize("argv", [
    ["train"], ["unlearn", "--method", "qp"], ["evaluate", "--model", "original.qpae"],
    ["run"], ["synth"],
], ids=["train", "unlearn", "evaluate", "run", "synth"])
def test_empty_output_dir_in_the_config_exits_2(cfg_path, tmp_path, monkeypatch, capsys,
                                                argv):
    """An output_dir of "" in the config file is refused as an empty --out
    is, with nothing written in the working directory."""
    raw = json.loads(cfg_path.read_text())
    cfg_path.write_text(json.dumps({**raw, "output_dir": ""}))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main([*argv, "--config", str(cfg_path)]) == 2
    _error_line(capsys, "config")
    assert list(cwd.iterdir()) == []


def test_report_with_an_empty_out_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "report_original.json").write_text("{}")
    assert main(["report", "--out", ""]) == 2
    _error_line(capsys, "config")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report_original.json"]


def test_empty_original_report_exits_3(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path)]) == 0
    before = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path), "--model",
                 str(out / "original.qpae"), "--original-report", ""]) == 3
    _error_line(capsys, "io")
    assert sorted(p.name for p in out.iterdir()) == before


def test_report_refuses_reports_of_another_request(cfg_path, tmp_path, capsys):
    """`report` tabulates one forget request: a method's report for another
    forget set than the original's exits 2, naming both, with no table."""
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["unlearn", "--config", str(cfg_path), "--method", "qp",
                 "--forget", "3"]) == 0
    assert main(["evaluate", "--config", str(cfg_path), "--forget", "3",
                 "--model", str(out / "unlearned_qp.qpae")]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    line = _error_line(capsys, "config")
    assert "report_original.json" in line and "report_unlearned_qp.json" in line
    assert not (out / "table.md").exists() and not (out / "table.csv").exists()


@pytest.mark.parametrize("verb, flags, kind", [
    ("run", ["--forget", "0,1"], "synthetic"),
    ("sequential", [], "synthetic"),
    ("run", [], "manifest"),
], ids=["run", "sequential", "run-manifest_sequential"])
def test_scenario_shape_is_checked_before_the_dataset(request, cfg_path, tmp_path,
                                                      monkeypatch, capsys, verb, flags,
                                                      kind):
    """A single scenario with two forget classes, or a sequential one with
    no requests, exits 2 before any dataset is built, and leaves no --out
    behind. A manifest's classes are read from labels.csv alone."""
    if kind == "manifest":
        manifest = request.getfixturevalue("manifest")["config"]
        cfg_path = _edit(manifest, tmp_path, "sequential.json", scenario="sequential")
    builds = []
    monkeypatch.setattr(harness, "_last_splits", {})
    monkeypatch.setattr(harness, "build_dataset", builds.append)
    out = tmp_path / "fresh"
    assert main([verb, "--config", str(cfg_path), "--out", str(out), *flags]) == 2
    _error_line(capsys, "config")
    assert not out.exists()
    assert builds == []


def test_run_prints_the_scenario_table(cfg_path, tmp_path, capsys):
    out = tmp_path / "run_out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    table = (out / "table.md").read_text()
    assert table in capsys.readouterr().out
    assert "| QPAudioEraser |" in table


def test_run_of_the_ablation_scenario_stores_each_variant(cfg_path, tmp_path, capsys):
    path = _edit(cfg_path, tmp_path, "ablation.json", scenario="ablation")
    out = tmp_path / "ablation_out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "ablation_table.md").read_text() in capsys.readouterr().out
    for name, _ in harness.ABLATION_VARIANTS:
        assert (out / f"unlearned_ablation_{name}.qpae").exists()


def test_run_takes_a_config_or_a_scenario(cfg_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg_path), "--scenario", "ablation",
              "--out", str(tmp_path / "run_out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not allowed with" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_bad_forget_flag_exits_2(cfg_path, capsys):
    assert main(["train", "--config", str(cfg_path), "--forget", "a,b"]) == 2
    _error_line(capsys, "config")


def test_io_error_exits_3(cfg_path, capsys):
    # unlearn before any train: the original checkpoint is missing
    assert main(["unlearn", "--config", str(cfg_path), "--method", "qp"]) == 3
    _error_line(capsys, "io")


def test_train_writes_no_checkpoint_without_its_config(cfg_path, tmp_path, capsys):
    """config.json is written before the checkpoint: if it cannot be, train
    exits 3 and leaves no original.qpae that no config describes."""
    out = tmp_path / "out"
    (out / "config.json").mkdir(parents=True)
    assert main(["train", "--config", str(cfg_path)]) == 3
    assert "Is a directory" in _error_line(capsys, "io")
    assert not (out / "original.qpae").exists()


@pytest.mark.filterwarnings("error")
def test_numeric_error_exits_4(cfg_path, tmp_path, capsys):
    """A weight of +inf, or a signalling NaN that numpy warns about when it
    casts one: exit 4 with one line on stderr, and nothing written."""
    import zlib
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path)]) == 0
    payload = bytearray((out / "original.qpae").read_bytes())[:-4]
    before = sorted(p.name for p in out.iterdir())
    broken = tmp_path / "broken.qpae"
    for word in (0x7F800000, 0x7F800001):
        payload[20:24] = struct.pack("<I", word)
        crc = struct.pack("<I", zlib.crc32(bytes(payload)) & 0xFFFFFFFF)
        broken.write_bytes(bytes(payload) + crc)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path),
                     "--model", str(broken)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "numeric failure: non-finite model parameter detected"]
        assert sorted(p.name for p in out.iterdir()) == before


@pytest.mark.parametrize("verb", ["train", "unlearn"])
def test_overflow_exits_4_with_one_line(cfg_path, tmp_path, capsys, verb):
    """numpy's overflow warnings on the way to a non-finite parameter are
    not printed: stderr holds only the error line."""
    if verb == "train":  # the desk defaults, diverging in the first epoch
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "output_dir": str(tmp_path / "out"), "dataset": {"per_class": 10},
            "train": {"epochs": 1, "learning_rate": 1e300}}))
        extra = []
    else:
        assert main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        bad = _edit(cfg_path, tmp_path, "bad.json",
                    baselines={"fisher_noise_scale": 1e308})
        extra = ["--method", "fisher"]
    assert main([verb, "--config", str(bad), *extra]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "numeric failure: non-finite model parameter detected"]


@pytest.mark.parametrize("forget_set", [[], [-1]], ids=["empty", "negative"])
def test_forget_flag_replaces_any_forget_set_in_the_file(cfg_path, tmp_path, capsys,
                                                         forget_set):
    """The forget-set rule applies once the flags are applied."""
    bad = _edit(cfg_path, tmp_path, "bad.json", unlearn={"forget_set": forget_set})
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "a")]) == 2
    assert _error_line(capsys, "config").startswith("config error: unlearn.forget_set ")
    assert not (tmp_path / "a").exists()
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "b"),
                 "--forget", "1"]) == 0


def test_seed_override_changes_artifacts(cfg_path, tmp_path):
    out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
    assert main(["train", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(out_b),
                 "--seed", "99"]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(out_c)]) == 0
    a = (out_a / "original.qpae").read_bytes()
    assert a != (out_b / "original.qpae").read_bytes()
    assert a == (out_c / "original.qpae").read_bytes()


def test_synth_writes_manifest(cfg_path, tmp_path):
    dest = tmp_path / "wavs_out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(dest)]) == 0
    lines = (dest / "labels.csv").read_text().splitlines()
    assert lines[0] == "path,class_id"
    assert len(lines) == 1 + 4 * 15


def test_sequential_verb_is_run_of_the_sequential_scenario(tmp_path, capsys):
    """`qpae sequential --config c` is `qpae run` on c with its scenario set
    to sequential: the same files with the same bytes, bar output_dir, and
    the scenario's table on stdout."""
    verb = "sequential"
    cfg = default_config(
        "single", seed=5,
        dataset=DatasetSpec(kind="synthetic", num_classes=4, per_class=15,
                            n_mels=8, n_frames=8),
        model=harness.ModelSection([16]), sequential_requests=[[0], [1]],
        train=TrainConfig(learning_rate=0.05, epochs=10))
    cfg.unlearn.epochs = 1
    harness.save_config(cfg, tmp_path / "verb.json")
    harness.save_config(replace(cfg, scenario=verb), tmp_path / "run.json")
    outputs = {}
    for name, argv in (("verb", [verb]), ("run", ["run"])):
        out = tmp_path / f"{name}_out"
        capsys.readouterr()
        assert main([*argv, "--config", str(tmp_path / f"{name}.json"),
                     "--out", str(out)]) == 0
        table = (out / f"{verb}_table.md").read_text()
        assert table in capsys.readouterr().out
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        recorded = json.loads(files.pop("config.json"))
        assert recorded.pop("output_dir") == str(out)
        assert recorded["scenario"] == verb
        outputs[name] = files, recorded
    assert outputs["verb"] == outputs["run"]
    assert "sequential_series.json" in outputs["verb"][0]


def _edit(cfg_path, tmp_path, name, **sections):
    """A copy of the config at cfg_path with some sections replaced."""
    raw = json.loads(cfg_path.read_text())
    for key, value in sections.items():
        merge = isinstance(value, dict) and isinstance(raw[key], dict)
        raw[key] = {**raw[key], **value} if merge else value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def _verb_args(verb, out):
    """The flags beyond --config that each verb needs on a trained --out."""
    return {"unlearn": ["--method", "qp"],
            "evaluate": ["--model", str(out / "original.qpae")]}.get(verb, [])


@pytest.mark.parametrize("verb", ["train", "run", "unlearn", "evaluate"])
@pytest.mark.parametrize("flags, edit", [
    (["--seed", "8"], {}),
    ([], {"dataset": {"n_mels": 16}}),
    ([], {"train": {"epochs": 11}}),
    ([], {"model": {"hidden": [8]}}),
], ids=["seed", "n_mels", "epochs", "hidden"])
def test_stale_original_is_refused(cfg_path, tmp_path, capsys, verb, flags, edit):
    """An --out trained with another provenance is refused by every verb
    that reads or rewrites its original, and nothing in it changes."""
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path)]) == 0
    other = _edit(cfg_path, tmp_path, "other.json", **edit)
    before = sorted(p.name for p in out.iterdir())
    original = (out / "original.qpae").read_bytes()
    capsys.readouterr()
    assert main([verb, "--config", str(other), *flags, *_verb_args(verb, out)]) == 2
    assert "trained with another" in _error_line(capsys, "config")
    assert sorted(p.name for p in out.iterdir()) == before
    assert (out / "original.qpae").read_bytes() == original


def test_retrain_with_the_same_provenance_is_byte_identical(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path)]) == 0
    original = (out / "original.qpae").read_bytes()
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (out / "original.qpae").read_bytes() == original


@pytest.mark.parametrize("model, report", [
    ("original.qpae", None),
    ("original.qpae", "report_original.json"),
    ("unlearned_qp.qpae", "report_unlearned_qp.json"),
])
def test_evaluate_never_writes_over_a_report_it_reads(cfg_path, tmp_path, capsys, model,
                                                      report):
    """The report `train` wrote and the --original-report file are inputs:
    an evaluate whose report would replace one exits 2 and changes no file."""
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["unlearn", "--config", str(cfg_path), "--method", "qp"]) == 0
    assert main(["evaluate", "--config", str(cfg_path),
                 "--model", str(out / "unlearned_qp.qpae")]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    extra = [] if report is None else ["--original-report", str(out / report)]
    assert main(["evaluate", "--config", str(cfg_path), "--model", str(out / model),
                 *extra]) == 2
    target = "report_original.json" if report is None else report
    assert str(out / target) in _error_line(capsys, "config")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("dataset, hidden", [
    ({"num_classes": 2, "per_class": 3, "n_mels": 1, "n_frames": 1}, [1048577]),
    ({"n_frames": 10 ** 9}, [16]),
    ({"n_frames": 10 ** 18}, [16]),
    ({}, [10 ** 9]),
    ({"num_classes": 2 ** 20 + 1}, [16]),
], ids=["hidden_past_2_20", "n_frames_1e9", "n_frames_1e18", "hidden_1e9",
        "classes_past_2_20"])
@pytest.mark.parametrize("verb", ["train", "run"])
def test_model_no_checkpoint_can_hold_exits_2(cfg_path, tmp_path, capsys, verb, dataset,
                                              hidden):
    """Every layer the config implies keeps to the bound a stored model
    keeps to, checked before any build: exit 2 and no --out."""
    path = _edit(cfg_path, tmp_path, "wide.json", dataset=dataset, model={"hidden": hidden})
    out = tmp_path / "wide_out"
    assert main([verb, "--config", str(path), "--out", str(out)]) == 2
    assert "out of range" in _error_line(capsys, "config")
    assert not out.exists()


@pytest.mark.parametrize("per_class, message", [
    # 8 * 2 * 10**19 * 64 bytes of features: past the 2**63 bound
    (10 ** 19, "more than 2**63 bytes"),
    # within the bound; its 1.4 PiB class list is past any address space
    (10 ** 14, "more memory than this host can hold"),
])
def test_dataset_the_host_cannot_hold_exits_2(cfg_path, tmp_path, capsys, per_class,
                                              message):
    path = _edit(cfg_path, tmp_path, "huge.json",
                 dataset={"num_classes": 2, "per_class": per_class})
    out = tmp_path / "huge_out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    assert message in _error_line(capsys, "config")
    assert not out.exists()


@pytest.mark.parametrize("verb", ["train", "run", "unlearn", "evaluate"])
def test_stale_config_is_refused_before_the_dataset(cfg_path, tmp_path, monkeypatch,
                                                    capsys, verb):
    """A checkpoint is read first, then config.json; a stale config.json
    exits 2 before either side of the split is built."""
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path)]) == 0
    builds = []
    monkeypatch.setattr(harness, "_last_splits", {})
    monkeypatch.setattr(harness, "build_dataset", builds.append)
    capsys.readouterr()
    assert main([verb, "--config", str(cfg_path), "--seed", "8",
                 *_verb_args(verb, out)]) == 2
    assert "trained with another seed" in _error_line(capsys, "config")
    assert builds == []


@pytest.mark.parametrize("verb", ["unlearn", "evaluate"])
@pytest.mark.parametrize("spoiled", [None, "dir", b"{nope", b"\xff{}", b"[" * 200000],
                         ids=["missing", "directory", "not_json", "not_utf8",
                              "deep_nesting"])
def test_original_without_its_config_is_refused(cfg_path, tmp_path, capsys, verb,
                                                spoiled):
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path)]) == 0
    if not isinstance(spoiled, bytes):
        (out / "config.json").unlink()
        if spoiled == "dir":
            (out / "config.json").mkdir()
    else:
        (out / "config.json").write_bytes(spoiled)
    before = {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main([verb, "--config", str(cfg_path), *_verb_args(verb, out)]) == 2
    assert "config.json" in _error_line(capsys, "config")
    assert {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("verb", ["unlearn", "evaluate"])
@pytest.mark.parametrize("edit", [{"dataset": {"n_mels": 16}},
                                  {"dataset": {"num_classes": 5}}],
                         ids=["n_mels", "num_classes"])
def test_model_that_does_not_fit_the_dataset_is_refused(cfg_path, tmp_path, capsys,
                                                        monkeypatch, verb, edit):
    """The fit is checked against the config's sizes, before either side of
    the split is built."""
    # a checkpoint trained elsewhere, copied over the one config.json describes
    out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
    other = _edit(cfg_path, tmp_path, "other.json", **edit)
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(other), "--out", str(elsewhere)]) == 0
    (out / "original.qpae").write_bytes((elsewhere / "original.qpae").read_bytes())
    builds = []
    monkeypatch.setattr(harness, "_last_splits", {})
    monkeypatch.setattr(harness, "build_dataset", builds.append)
    capsys.readouterr()
    assert main([verb, "--config", str(cfg_path), *_verb_args(verb, out)]) == 2
    assert "the dataset has" in _error_line(capsys, "config")
    assert builds == []


def test_forget_set_and_baselines_may_differ_from_training(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path)]) == 0
    other = _edit(cfg_path, tmp_path, "other.json", unlearn={"forget_set": [2, 3]},
                  baselines={"ascent_epochs": 2})
    assert main(["unlearn", "--config", str(other), "--method", "ga"]) == 0
    assert main(["evaluate", "--config", str(other),
                 "--model", str(out / "unlearned_ga.qpae")]) == 0


def test_manifest_with_too_few_clips_per_class_exits_2(cfg_path, tmp_path, capsys):
    dataset = tmp_path / "dataset"
    assert main(["synth", "--config", str(cfg_path), "--out", str(dataset)]) == 0
    lines = (dataset / "labels.csv").read_text().splitlines()
    kept = {}
    for line in lines[1:]:
        kept.setdefault(line.split(",")[1], []).append(line)
    (dataset / "labels.csv").write_text(
        "\n".join([lines[0]] + [row for rows in kept.values() for row in rows[:2]]) + "\n")
    manifest = _edit(cfg_path, tmp_path, "manifest.json",
                     dataset={"kind": "manifest", "path": str(dataset)})
    out = tmp_path / "fresh"
    assert main(["train", "--config", str(manifest), "--out", str(out)]) == 2
    assert "too few clips" in _error_line(capsys, "config")
    assert not out.exists()


# a fmt chunk with sample rate 0, and a float32 payload holding NaN or inf
_BAD_CLIPS = {
    "rate0": struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 38, b"WAVE", b"fmt ", 16, 1, 1,
                         0, 0, 2, 16, b"data", 2) + b"\x00\x00",
    **{name: struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 40, b"WAVE", b"fmt ", 16, 3, 1,
                         8000, 32000, 4, 32, b"data", 4) + struct.pack("<f", value)
       for name, value in (("nan", float("nan")), ("inf", float("inf")))},
    # a signalling NaN, which numpy warns about when it is cast
    "snan": struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 40, b"WAVE", b"fmt ", 16, 3, 1,
                        8000, 32000, 4, 32, b"data", 4) + struct.pack("<I", 0x7F800001),
}


@pytest.mark.parametrize("bad", sorted(_BAD_CLIPS))
def test_manifest_with_a_bad_clip_exits_3(cfg_path, tmp_path, capsys, bad):
    dataset = tmp_path / "dataset"
    assert main(["synth", "--config", str(cfg_path), "--out", str(dataset)]) == 0
    (dataset / "wavs" / "clip_00005.wav").write_bytes(_BAD_CLIPS[bad])
    manifest = _edit(cfg_path, tmp_path, "manifest.json",
                     dataset={"kind": "manifest", "path": str(dataset)})
    capsys.readouterr()
    out = tmp_path / "fresh"
    assert main(["train", "--config", str(manifest), "--out", str(out)]) == 3
    _error_line(capsys, "io")
    assert not out.exists()


@pytest.mark.parametrize("verb, edit", [
    pytest.param("train", {"train": {"batch_size": 0}}, id="train.batch_size-zero"),
    pytest.param("train", {"train": {"learning_rate": "x"}},
                 id="train.learning_rate-string"),
    pytest.param("train", {"train": {"epochs": 1.5}}, id="train.epochs-float"),
    pytest.param("train", {"baselines": {"ssd_threshold": 0}},
                 id="baselines.ssd_threshold-zero"),
    pytest.param("train", {"dataset": {"n_mels": 0}}, id="dataset.n_mels-zero"),
    pytest.param("train", {"dataset": {"n_mels": 100000}}, id="dataset.n_mels-too_many"),
    pytest.param("train", {"dataset": {"n_frames": 0}}, id="dataset.n_frames-zero"),
    pytest.param("train", {"baselines": []}, id="baselines-list"),
    pytest.param("train", {"unlearn": {"forget_set": 3}}, id="unlearn.forget_set-int"),
    pytest.param("train", {"train": {"learning_rate": float("nan")}},
                 id="train.learning_rate-nan"),
    pytest.param("unlearn", {"unlearn": {"alpha": 2.0}}, id="unlearn.alpha-2"),
    pytest.param("unlearn", {"unlearn": {"entropy_lambda": 0}},
                 id="unlearn.entropy_lambda-zero"),
    pytest.param("unlearn", {"unlearn": {"epochs": -1}}, id="unlearn.epochs-negative"),
    pytest.param("unlearn", {"unlearn": {"epochs": 1.5}}, id="unlearn.epochs-float"),
    pytest.param("unlearn", {"unlearn": {"batch_size": 0}}, id="unlearn.batch_size-zero"),
    pytest.param("unlearn", {"unlearn": {"learning_rate": -1}},
                 id="unlearn.learning_rate-negative"),
    pytest.param("unlearn", {"unlearn": {"learning_rate": "x"}},
                 id="unlearn.learning_rate-string"),
    pytest.param("unlearn", {"unlearn": {"phi": "pi"}}, id="unlearn.phi-string"),
    pytest.param("unlearn", {"unlearn": {"phi": float("inf")}}, id="unlearn.phi-inf"),
    pytest.param("unlearn", {"unlearn": {"skip_mixing": 0}}, id="unlearn.skip_mixing-int"),
    pytest.param("unlearn", {"baselines": {"learning_rate": "x"}},
                 id="baselines.learning_rate-string"),
    pytest.param("unlearn", {"baselines": {"learning_rate": -1}},
                 id="baselines.learning_rate-negative"),
    pytest.param("unlearn", {"baselines": {"batch_size": 0}},
                 id="baselines.batch_size-zero"),
    pytest.param("unlearn", {"baselines": {"ascent_epochs": 1.5}},
                 id="baselines.ascent_epochs-float"),
    pytest.param("unlearn", {"baselines": {"ssd_dampening_floor": -5}},
                 id="baselines.ssd_dampening_floor-negative"),
    # strings are not coerced: a number or null is no path
    pytest.param("train", {"dataset": {"kind": "manifest", "path": 5}},
                 id="dataset.path-int"),
    pytest.param("train", {"output_dir": None}, id="output_dir-null"),
    pytest.param("train", {"output_dir": 5}, id="output_dir-int"),
    # an integer no float holds is no finite number
    pytest.param("train", {"train": {"learning_rate": 10 ** 400}},
                 id="train.learning_rate-past_float"),
])
def test_bad_section_value_exits_2(cfg_path, tmp_path, capsys, verb, edit):
    """Refused before any file is written: `train` creates no --out, and
    `unlearn` adds nothing to the directory `train` filled."""
    out = tmp_path / "out"
    if verb == "unlearn":
        assert main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
    before = sorted(p.name for p in out.iterdir()) if out.exists() else None
    bad = _edit(cfg_path, tmp_path, "bad.json", **edit)
    method = "ng" if "baselines" in edit else "qp"
    extra = ["--method", method] if verb == "unlearn" else []
    assert main([verb, "--config", str(bad), "--out", str(out), *extra]) == 2
    _error_line(capsys, "config")
    assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == before


@pytest.mark.parametrize("mismatch", ["forget_set", "num_classes"])
def test_original_report_of_another_run_exits_2(cfg_path, tmp_path, monkeypatch,
                                                capsys, mismatch):
    """An --original-report for another forget set or class count is refused
    before the dataset is built, and nothing is written."""
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["unlearn", "--config", str(cfg_path), "--method", "qp",
                 "--forget", "3"]) == 0
    report = out / "report_original.json"  # forget set [0]
    if mismatch == "num_classes":
        five = _edit(cfg_path, tmp_path, "five.json", dataset={"num_classes": 5})
        assert main(["train", "--config", str(five), "--forget", "3",
                     "--out", str(tmp_path / "five")]) == 0
        report = tmp_path / "five" / "report_original.json"
    capsys.readouterr()
    builds = []
    monkeypatch.setattr(harness, "_last_splits", {})
    monkeypatch.setattr(harness, "build_dataset", builds.append)
    before = sorted(p.name for p in out.iterdir())
    assert main(["evaluate", "--config", str(cfg_path), "--forget", "3",
                 "--model", str(out / "unlearned_qp.qpae"),
                 "--original-report", str(report)]) == 2
    assert "original report" in _error_line(capsys, "config")
    assert builds == []
    assert sorted(p.name for p in out.iterdir()) == before


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: a checkpoint from another --out is checked "
                          "only against this --out's config.json")
def test_evaluate_refuses_a_model_from_another_original(cfg_path, tmp_path, capsys):
    """A model unlearned from the seed-5 original is not scored against the
    seed-8 original's report: exit 2, and nothing is written."""
    a, b = tmp_path / "a", tmp_path / "b"
    config = str(cfg_path)
    assert main(["train", "--config", config, "--out", str(a)]) == 0
    assert main(["unlearn", "--config", config, "--out", str(a), "--method", "qp"]) == 0
    assert main(["train", "--config", config, "--out", str(b), "--seed", "8"]) == 0
    before = sorted(p.name for p in b.iterdir())
    capsys.readouterr()
    assert main(["evaluate", "--config", config, "--out", str(b), "--seed", "8",
                 "--model", str(a / "unlearned_qp.qpae"),
                 "--original-report", str(b / "report_original.json")]) == 2
    _error_line(capsys, "config")
    assert sorted(p.name for p in b.iterdir()) == before


def _with(key, value):
    """A report with one field set to value; None deletes the field."""
    def spoil(report_text):
        raw = json.loads(report_text)
        if value is None:
            del raw[key]
        else:
            raw[key] = value
        return json.dumps(raw).encode()
    return spoil


@pytest.mark.parametrize("spoil", [
    lambda text: b"{nope", _with("ra", None), lambda text: b"[1, 2]",
    _with("fa", "x"), _with("ra", "x"), _with("fa", float("inf")),
    _with("per_class", [50.0]), _with("confusion", [[1, -1], [0, 1]]),
    _with("flags", [0]), _with("fa", 5e-324), _with("ra", 12.5), _with("forget_set", [10]),
    lambda text: b"\xff" + text.encode(), lambda text: b"[" * 200000,
], ids=["not_json", "missing_key", "not_an_object", "fa_string", "ra_string",
        "fa_infinity", "per_class_short", "confusion_negative", "flags_not_strings",
        "fa_subnormal", "ra_not_counted", "forget_set_past_k", "not_utf8", "deep_nesting"])
def test_report_that_is_no_report_exits_3(cfg_path, tmp_path, capsys, spoil):
    """`evaluate --original-report` and `report` refuse it with one line on
    stderr, before they write anything."""
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["unlearn", "--config", str(cfg_path), "--method", "qp"]) == 0
    original = out / "report_original.json"
    bad = tmp_path / "bad.json"
    bad.write_bytes(spoil(original.read_text()))
    original.write_bytes(bad.read_bytes())
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path), "--model",
                 str(out / "unlearned_qp.qpae"), "--original-report", str(bad)]) == 3
    assert main(["report", "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("io error: not an evaluation report") for line in err)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.fixture()
def manifest(cfg_path, tmp_path, capsys):
    """A manifest dataset written by `qpae synth`, a config reading it, and
    the training and held-out clip files of its split."""
    dataset = tmp_path / "dataset"
    assert main(["synth", "--config", str(cfg_path), "--out", str(dataset)]) == 0
    path = _edit(cfg_path, tmp_path, "manifest.json",
                 dataset={"kind": "manifest", "path": str(dataset)})
    cfg = harness.load_config(path)
    rows = train_eval_split(harness.dataset_classes(cfg), cfg.dataset.num_classes,
                            derive_seed(cfg.seed, harness._SEED_SPLIT))
    capsys.readouterr()
    return {"config": path, "dataset": dataset,
            "clips": [[dataset / "wavs" / f"clip_{i:05d}.wav" for i in side] for side in rows]}


def _keep_two_clips_per_class(dataset):
    lines = (dataset / "labels.csv").read_text().splitlines()
    kept = {}
    for line in lines[1:]:
        kept.setdefault(line.split(",")[1], []).append(line)
    (dataset / "labels.csv").write_text(
        "\n".join([lines[0]] + [row for rows in kept.values() for row in rows[:2]]) + "\n")


@pytest.mark.parametrize("verb", ["train", "unlearn", "evaluate"])
def test_short_manifest_is_refused_before_any_wav_is_opened(manifest, tmp_path, capsys,
                                                            verb):
    """labels.csv alone decides that a class is too small for the split: with
    every WAV file gone the command still exits 2, not 3."""
    out = tmp_path / "out"
    if verb != "train":
        assert main(["train", "--config", str(manifest["config"])]) == 0
        capsys.readouterr()
    else:
        out = tmp_path / "fresh"
    _keep_two_clips_per_class(manifest["dataset"])
    for wav in (manifest["dataset"] / "wavs").iterdir():
        wav.unlink()
    (manifest["dataset"] / "wavs").rmdir()
    before = sorted(p.name for p in out.iterdir()) if out.exists() else None
    extra = {"train": [], "unlearn": ["--method", "qp"],
             "evaluate": ["--model", str(out / "original.qpae")]}[verb]
    assert main([verb, "--config", str(manifest["config"]), "--out", str(out), *extra]) == 2
    assert "too few clips" in _error_line(capsys, "config")
    assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == before


def test_evaluate_reads_only_held_out_clips(manifest, tmp_path, capsys):
    """`evaluate` opens no training clip, and `unlearn` no held-out one."""
    out = tmp_path / "out"
    config = str(manifest["config"])
    train_clips, held_out = manifest["clips"]
    evaluate = ["evaluate", "--config", config, "--model", str(out / "unlearned_qp.qpae"),
                "--original-report", str(out / "report_original.json")]
    assert main(["train", "--config", config]) == 0
    assert main(["unlearn", "--config", config, "--method", "qp"]) == 0
    assert main(evaluate) == 0
    report = {p.name: p.read_bytes() for p in out.glob("report_unlearned_qp*")}
    assert len(report) == 3
    for wav in train_clips:
        wav.unlink()
    assert main(evaluate) == 0
    assert {p.name: p.read_bytes() for p in out.glob("report_unlearned_qp*")} == report
    # unlearn needs the training clips; a held-out clip is not read
    capsys.readouterr()
    assert main(["unlearn", "--config", config, "--method", "ng"]) == 3
    _error_line(capsys, "io")
    assert not (out / "unlearned_ng.qpae").exists()


def test_corrupt_held_out_clip_fails_evaluate_with_exit_3(manifest, tmp_path, capsys):
    out = tmp_path / "out"
    config = str(manifest["config"])
    assert main(["train", "--config", config]) == 0
    before = sorted(p.name for p in out.iterdir())
    manifest["clips"][1][0].write_bytes(_BAD_CLIPS["nan"])
    capsys.readouterr()
    assert main(["evaluate", "--config", config,
                 "--model", str(out / "original.qpae")]) == 3
    _error_line(capsys, "io")
    assert sorted(p.name for p in out.iterdir()) == before


@pytest.mark.parametrize("verb", ["unlearn", "evaluate"])
def test_failed_write_leaves_no_partial_or_temporary_file(cfg_path, tmp_path, monkeypatch,
                                                          capsys, verb):
    """A write that fails midway keeps the file it would replace, whole, and
    leaves no temporary file behind."""
    out = tmp_path / "out"
    config = str(cfg_path)
    model = ["--model", str(out / "unlearned_qp.qpae")]
    assert main(["train", "--config", config]) == 0
    assert main(["unlearn", "--config", config, "--method", "qp"]) == 0
    assert main(["evaluate", "--config", config, *model]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: FailingWrite(real_fdopen(fd, mode)))
    capsys.readouterr()
    # another forget set: every file the command writes would change
    args = (["--method", "qp"] if verb == "unlearn" else model)
    assert main([verb, "--config", config, "--forget", "2", *args]) == 3
    assert "No space left" in _error_line(capsys, "io")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
