"""Each benchmark check passes on real qpae outputs and rejects a
deliberately corrupted copy. Runs on tiny datasets in a few seconds:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import json
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

import checks
from checks import CheckFailed
from tracing import HostRef, Tracer
from workloads import ForgetRequests, ManifestCli, ScenarioSuite

from qpae import cli, harness
from qpae.checkpoint import load_checkpoint, save_checkpoint
from qpae.metrics import evaluate

SEED = 3  # not the desk seed: the acceptance-criterion bounds are not checked


def tiny(cfg):
    cfg.dataset.num_classes = 5
    cfg.dataset.per_class = 10
    cfg.dataset.n_mels = 8
    cfg.dataset.n_frames = 8
    return cfg


def rewrite_json(path: Path, **changes) -> None:
    data = json.loads(path.read_text())
    data.update(changes)
    path.write_text(json.dumps(data))


def edit_cell(path: Path) -> None:
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "12.34"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def truncate(path: Path, size: int) -> None:
    """Cut the payload short and give it a valid CRC."""
    payload = path.read_bytes()[:size]
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))


def flip_byte(path: Path, offset: int) -> None:
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0x01
    path.write_bytes(bytes(blob))


# --- checkpoints and reports ----------------------------------------------


@pytest.fixture(scope="module")
def request_ws(tmp_path_factory):
    out = tmp_path_factory.mktemp("requests")
    cfg = tiny(harness.default_config("single", seed=SEED))
    cfg.unlearn.forget_set = [1]
    ws = harness.Workspace.create(cfg, out)
    harness.cmd_train(ws)
    original = evaluate(load_checkpoint(ws.original_path()), ws.eval_data, {1})
    path, _ = harness.cmd_unlearn(ws, "ga")
    harness.cmd_evaluate(ws, path, original_report=original, name="ga")
    return ws


@pytest.fixture()
def req(request_ws, tmp_path):
    """A private copy of the request outputs plus a bound ForgetRequests."""
    ws = harness.Workspace(cfg=request_ws.cfg, out=tmp_path / "out",
                           train_data=request_ws.train_data,
                           eval_data=request_ws.eval_data)
    shutil.copytree(request_ws.out, ws.out)
    fr = ForgetRequests(tmp_path, 0, Tracer(), HostRef())
    fr.bind(ws)
    return fr, ws


def test_request_outputs_pass(req):
    fr, ws = req
    fr.check_request(ws, "ga", (1,))
    fr.check_request(ws, "ga", (1,))   # a repeat with identical outputs


@pytest.mark.parametrize("corrupt, message", [
    (lambda out: flip_byte(out / "unlearned_ga.qpae", 40), "CRC32"),
    (lambda out: (out / "unlearned_ga.qpae").write_bytes(b"QPAX" + (out / "unlearned_ga.qpae").read_bytes()[4:]), "magic"),
    (lambda out: truncate(out / "unlearned_ga.qpae", 100), "past end"),
    (lambda out: rewrite_json(out / "report_ga.json", il=1.5), "il"),
    (lambda out: rewrite_json(out / "report_ga.json", ra=12.5), "ra"),
    (lambda out: rewrite_json(out / "report_ga.json", n_eval=1), "n_eval"),
    (lambda out: edit_cell(out / "report_ga.csv"), "matches no report"),
])
def test_request_corruption_rejected(req, corrupt, message):
    fr, ws = req
    corrupt(ws.out)
    with pytest.raises(CheckFailed, match=message):
        fr.check_request(ws, "ga", (1,))


def test_repeated_request_with_other_outputs_rejected(req):
    fr, ws = req
    fr.check_request(ws, "ga", (1,))
    model = load_checkpoint(ws.out / "unlearned_ga.qpae")
    model.final_b[0] += 0.5
    save_checkpoint(model, ws.out / "unlearned_ga.qpae")
    original = evaluate(load_checkpoint(ws.original_path()), ws.eval_data, {1})
    harness.cmd_evaluate(ws, ws.out / "unlearned_ga.qpae", original_report=original,
                         name="ga")
    with pytest.raises(CheckFailed, match="repeated request"):
        fr.check_request(ws, "ga", (1,))


def report_from_confusion(conf, forget, original_fa=None):
    c = np.asarray(conf)
    rep = {"confusion": c.tolist(), "forget_set": sorted(forget), "n_eval": int(c.sum())}
    f = sorted(forget)
    r = [j for j in range(len(c)) if j not in forget]
    rep["fa"] = 100.0 * (c[f, f].sum() / c[f].sum())
    rep["ra"] = 100.0 * (c[r, r].sum() / c[r].sum())
    rep["far"] = 100.0 * (c[np.ix_(r, f)].sum() / c[r].sum())
    rep["frr"] = 100.0 - rep["fa"]
    rep["erb"] = 2 * rep["fa"] * rep["ra"] / (rep["fa"] + rep["ra"])
    rep["per"] = (original_fa - rep["fa"]) / original_fa * 100.0 if original_fa else None
    rep["per_class"] = [100.0 * (c[j, j] / c[j].sum()) for j in range(len(c))]
    return rep


@pytest.mark.parametrize("field, value", [
    ("fa", 40.0), ("ra", 80.0), ("far", 0.0), ("frr", 59.0), ("erb", 50.0),
    ("per", 10.0), ("per_class", [50.0, 80.0, 100.0]), ("forget_set", [1]),
])
def test_confusion_recount_rejects_each_field(field, value):
    conf = [[3, 2, 0], [1, 4, 0], [0, 0, 5]]
    rep = report_from_confusion(conf, [0], original_fa=100.0)
    checks.check_report(rep, [0], 100.0, "clean")
    rep[field] = value
    with pytest.raises(CheckFailed):
        checks.check_report(rep, [0], 100.0, "corrupted")


def test_qp_erasure_properties():
    orig = {"fa": 100.0, "ra": 100.0, "il": 99.0}
    checks.check_qp_erasure(orig, {"fa": 0.0, "ra": 96.0, "il": 3.0}, 1, "ok")
    checks.check_qp_erasure(orig, {"fa": 0.0, "ra": 61.0, "il": 3.0}, 2, "ok")
    for got, n in (({"fa": 0.0, "ra": 100.0, "il": 60.0}, 1),
                   ({"fa": 0.0, "ra": 94.0, "il": 3.0}, 1),
                   ({"fa": 0.0, "ra": 59.0, "il": 3.0}, 2)):
        with pytest.raises(CheckFailed):
            checks.check_qp_erasure(orig, got, n, "bad")


# --- scenarios -------------------------------------------------------------


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenarios")
    return {label: harness.run_scenario(tiny(harness.default_config(
        label, seed=SEED, output_dir=str(root / label))))
        for label in ("single", "sequential", "ablation")}


@pytest.fixture()
def suite(tmp_path):
    return ScenarioSuite(tmp_path, 0, Tracer(), HostRef())


def test_scenario_outputs_pass(scenarios, suite):
    firsts = {}
    for label, ws in scenarios.items():
        suite.check_scenario(label, SEED, ws, firsts)


@pytest.mark.parametrize("label, corrupt, message", [
    ("single", lambda out: flip_byte(out / "unlearned_ssd.qpae", 60), "CRC32"),
    ("single", lambda out: rewrite_json(out / "report_qp.json", fa=50.0), "fa"),
    ("single", lambda out: edit_cell(out / "table.csv"), "matches no report"),
    ("ablation", lambda out: rewrite_json(out / "report_ablation_lambda_2.0.json", il=40.0), "il"),
    ("sequential", lambda out: rewrite_json(out / "report_step_2.json", per=1.0), "PER"),
])
def test_scenario_corruption_rejected(scenarios, suite, tmp_path, label, corrupt, message):
    ws = scenarios[label]
    copy = harness.Workspace(cfg=ws.cfg, out=tmp_path / label,
                             train_data=ws.train_data, eval_data=ws.eval_data)
    shutil.copytree(ws.out, copy.out)
    corrupt(copy.out)
    with pytest.raises(CheckFailed, match=message):
        suite.check_scenario(label, SEED, copy, {})


def test_scenario_with_another_original_rejected(scenarios, suite):
    firsts = {"original": b"another model"}
    with pytest.raises(CheckFailed, match="earlier scenario"):
        suite.check_scenario("single", SEED, scenarios["single"], firsts)


# --- manifest CLI session --------------------------------------------------


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    root = tmp_path_factory.mktemp("session")
    synth = root / "synth.json"
    synth.write_text(json.dumps({"seed": 5, "dataset": {"num_classes": 10, "per_class": 4}}))
    dataset = root / "dataset"
    assert cli.main(["synth", "--config", str(synth), "--out", str(dataset)]) == 0
    cfg = root / "session.json"
    cfg.write_text(json.dumps({"seed": 9, "dataset": {
        "kind": "manifest", "path": str(dataset), "per_class": 4},
        "unlearn": {"forget_set": [2]}, "sequential_requests": [[2], [5]]}))
    out = root / "out"
    common = ["--config", str(cfg), "--out", str(out)]
    assert cli.main(["train", *common]) == 0
    trained = (out / "original.qpae").read_bytes()
    for method in ("qp", "ga", "ng", "fisher", "ssd"):
        assert cli.main(["unlearn", *common, "--method", method]) == 0
        assert cli.main(["evaluate", *common, "--model", str(out / f"unlearned_{method}.qpae"),
                         "--original-report", str(out / "report_original.json")]) == 0
    assert cli.main(["sequential", *common]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0
    return {"root": root, "dataset": dataset, "cfg": cfg, "out": out, "trained": trained}


@pytest.fixture()
def manifest(session, tmp_path):
    m = ManifestCli(tmp_path, 0, Tracer(), HostRef())
    m.dataset = session["dataset"]
    out = tmp_path / "out"
    shutil.copytree(session["out"], out)
    yield m, out
    m.close()


def test_session_outputs_pass(session, manifest):
    m, out = manifest
    m.check_session(session["cfg"], out, 2, session["trained"])


@pytest.mark.parametrize("corrupt, message", [
    (lambda out: rewrite_json(out / "report_unlearned_ng.json", fa=25.0), "fa"),
    (lambda out: flip_byte(out / "unlearned_fisher.qpae", 30), "CRC32"),
    (lambda out: rewrite_json(out / "report_step_2.json", frr=1.0), "FA \\+ FRR"),
    (lambda out: (out / "table.csv").write_text(
        (out / "table.csv").read_text().replace(",--,", ",0.00,")), "matches no report"),
])
def test_session_corruption_rejected(session, manifest, corrupt, message):
    m, out = manifest
    corrupt(out)
    with pytest.raises(CheckFailed, match=message):
        m.check_session(session["cfg"], out, 2, session["trained"])


def test_session_with_retrained_original_rejected(session, manifest):
    m, out = manifest
    with pytest.raises(CheckFailed, match="sequential"):
        m.check_session(session["cfg"], out, 2, b"another model")


def test_log_mel_recomputation(session):
    from qpae import audio
    dataset = session["dataset"]
    rows = (dataset / "labels.csv").read_text().splitlines()[1:6]
    paths = [dataset / row.split(",")[0] for row in rows]
    features = audio.load_manifest(dataset, num_classes=10).features[:5]
    checks.check_features(paths, features, "clean")
    features = features.copy()
    features[3, 100] += 1e-6
    with pytest.raises(CheckFailed, match="log-mel"):
        checks.check_features(paths, features, "corrupted")
