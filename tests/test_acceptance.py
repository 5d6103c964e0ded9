"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. The
desk-scale benchmark (10-class synthetic set, 32x32 log-mel features,
200 samples per class, one-hidden-layer MLP) comes from the shared
session fixture; scenario-level criteria run the real harness commands
against fresh output directories.
"""

import json
import math
import shutil
import time

import numpy as np
import pytest

from qpae import harness
from qpae.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from qpae.data import forget_table
from qpae.eraser import build_mixing_matrix, interference_transform, quantum_loss
from qpae.harness import Workspace
from qpae.metrics import erb_score, evaluate, report_from_json
from qpae.model import Classifier, forward_batch, softmax
from qpae.rng import Rng

from helpers import equals_bits, one_hot, randbelow, uniform
from test_metrics import brute_force_recount, prediction_set


def crit(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def make_workspace(desk, tmp_path, cfg=None) -> Workspace:
    """Workspace over the shared desk splits with the original checkpoint,
    the config it was trained with and its report already in place, as
    `cmd_train` leaves them."""
    cfg = cfg if cfg is not None else desk["cfg"]
    out = tmp_path / "out"
    out.mkdir(parents=True, exist_ok=True)
    ws = Workspace(cfg=cfg, out=out, train_data=desk["train"],
                   eval_data=desk["eval"])
    shutil.copyfile(desk["checkpoint"], ws.original_path())
    harness.save_config(desk["cfg"], out / "config.json")
    original = evaluate(desk["model"], desk["eval"], ws.forget_set)
    ws.write_report("original", original)
    return ws


@pytest.fixture(scope="module")
def single_run(desk, tmp_path_factory):
    """Criterion 2/3 shared state: every method applied to the benchmark."""
    ws = make_workspace(desk, tmp_path_factory.mktemp("single"))
    t0 = time.perf_counter()
    original = desk["original_report"]
    reports = {}
    for mid in ("qp", "ga", "ng", "fisher", "ssd"):
        path, _ = harness.cmd_unlearn(ws, mid)
        reports[mid] = harness.cmd_evaluate(ws, path, original_report=original,
                                            name=mid)
    elapsed = time.perf_counter() - t0
    return {"ws": ws, "original": original, "reports": reports,
            "elapsed_s": elapsed}


def test_criterion_01_metric_formula_reproduction():
    t0 = time.perf_counter()
    checks = [
        abs(erb_score(100.0, 98.51) - 99.25) <= 0.01,
        abs(erb_score(97.85, 63.45) - 76.98) <= 0.01,
    ]
    # PER through the evaluation pipeline: FA drops 100 -> 97.85 and 100 -> 0
    n = 2000
    kept = 1957  # 1957/2000 = 97.85%
    logits = [[5.0, 0.0]] * kept + [[0.0, 5.0]] * (n - kept) + [[0.0, 5.0]] * 100
    classes = [0] * n + [1] * 100
    model, data = prediction_set(logits, classes, 2)
    rep = evaluate(model, data, {0}, original_fa=100.0)
    checks.append(abs(rep.fa - 97.85) <= 1e-9)
    checks.append(abs(rep.per - 2.15) <= 0.01)
    model, data = prediction_set([[0.0, 5.0]] * 50 + [[0.0, 5.0]] * 10,
                                 [0] * 50 + [1] * 10, 2)
    rep = evaluate(model, data, {0}, original_fa=100.0)
    checks.append(rep.fa == 0.0 and rep.per == 100.0)
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 1.0)
    crit(1, all(checks),
         f"ERB(100,98.51)={erb_score(100.0, 98.51):.4f}, "
         f"ERB(97.85,63.45)={erb_score(97.85, 63.45):.4f}, "
         f"PER checks in {elapsed * 1e3:.0f} ms")


def test_criterion_02_single_class_desk_run(desk, single_run):
    original = single_run["original"]
    rep = single_run["reports"]["qp"]
    eval_data = desk["eval"]
    preds_ok = original.n_eval == eval_data.n_samples
    n_forget = int(np.sum(eval_data.original_classes == 0))
    test_acc = (original.fa * n_forget
                + original.ra * (eval_data.n_samples - n_forget)) / eval_data.n_samples
    ok = (preds_ok and test_acc >= 95.0
          and rep.fa == 0.0 and rep.per == 100.0 and rep.il < 1.0
          and rep.ra >= original.ra - 5.0
          and single_run["elapsed_s"] < 120.0)
    crit(2, ok,
         f"test_acc={test_acc:.2f}, FA={rep.fa:.2f}, PER={rep.per:.2f}, "
         f"IL={rep.il:.4f}, RA={rep.ra:.2f} (orig {original.ra:.2f}), "
         f"all methods in {single_run['elapsed_s']:.1f}s")


def test_criterion_03_baseline_frontier_pattern(single_run):
    original = single_run["original"]
    reports = single_run["reports"]
    qp_ra = reports["qp"].ra
    ng, fisher = reports["ng"], reports["fisher"]
    checks = [
        ng.fa == 0.0,
        ng.ra < 0.30 * original.ra,
        fisher.fa >= 50.0,
        abs(fisher.ra - original.ra) <= 2.0,
    ]
    off_frontier = all(not (reports[m].fa <= 1.0 and reports[m].ra >= qp_ra - 2.0)
                       for m in ("ga", "ng", "fisher", "ssd"))
    checks.append(off_frontier)
    crit(3, all(checks),
         f"NG FA={ng.fa:.2f} RA={ng.ra:.2f}; Fisher FA={fisher.fa:.2f} "
         f"RA={fisher.ra:.2f}; GA RA={reports['ga'].ra:.2f}, "
         f"SSD FA={reports['ssd'].fa:.2f} RA={reports['ssd'].ra:.2f}; "
         f"QP RA={qp_ra:.2f}; no baseline matches the QP corner: {off_frontier}")


def test_criterion_04_gradient_oracle():
    rng = Rng(1234)

    def grad(p, lam):
        """quantum_loss's logit gradient for one forgotten sample."""
        k = len(p)
        # a copy: a loss may write over the probabilities it is given
        _, g = quantum_loss(p[None, :].copy(), one_hot(0, k)[None, :], np.array([0]),
                            forget_table({0}, k), lam)
        return g[0]

    def fd(p, lam, h=1e-6):
        z = np.log(p)
        out = np.zeros_like(z)
        for k in range(len(z)):
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h

            def val(zz):
                q = softmax(zz)
                nz = q > 0
                return lam * float(np.sum(q[nz] * np.log(q[nz])))

            out[k] = (val(zp) - val(zm)) / (2.0 * h)
        return out

    worst = 0.0
    for _ in range(1000):
        k = 2 + randbelow(rng, 9)
        lam = 0.25 + 1.5 * uniform(rng)
        p = uniform(rng, k) + 1e-4
        p /= p.sum()
        g = grad(p, lam)
        ref = fd(p, lam)
        err = float(np.max(np.abs(g - ref)
                           / np.maximum(1.0, np.maximum(np.abs(g), np.abs(ref)))))
        worst = max(worst, err)
    uniform_norms = [float(np.linalg.norm(grad(np.full(k, 1.0 / k), 1.0)))
                     for k in range(2, 33)]
    ok = worst <= 1e-4 and max(uniform_norms) <= 1e-8
    crit(4, ok, f"max FD relative error {worst:.2e} over 1000 cases; "
                f"max |grad| at uniform {max(uniform_norms):.2e}")


def test_criterion_05_phase1_exactness():
    ok = True
    details = []
    for s in range(25):
        m = Classifier.random_init(9, [6], 5, Rng(900 + s))
        before = m.copy()
        f = s % 5
        interference_transform(m, {f}, math.pi)
        ref = -before.final_w[:, f] / np.sqrt(2.0)
        within = np.all(np.abs(m.final_w[:, f] - ref)
                        <= 2.0 * np.spacing(np.abs(ref)))
        retained = [j for j in range(5) if j != f]
        untouched = (np.array_equal(m.final_w[:, retained], before.final_w[:, retained])
                     and np.array_equal(m.final_b[retained], before.final_b[retained])
                     and all(np.array_equal(w, w0) and np.array_equal(b, b0)
                             for (w, b), (w0, b0) in zip(m.layers[:-1], before.layers[:-1]))
                     and m.final_b[f] == -before.final_b[f])
        ok = ok and within and untouched
        if not (within and untouched):
            details.append(f"seed {s}")
    crit(5, ok, "phi=pi column equals -W_F/sqrt(2) within 2 ulp, all other "
                "parameters bit-identical (25 random models)"
                + ("; failed: " + ", ".join(details) if details else ""))


def test_criterion_06_mixing_identity():
    rng = Rng(4321)
    worst = 0.0
    matrices_ok = True
    for _ in range(100):
        d, k = 8, 5
        w = rng.normal(d * k).reshape(d, k)
        h = rng.normal(d)
        f = int(randbelow(rng, k))
        alpha = 0.2 + 0.6 * uniform(rng)
        mix = build_mixing_matrix(k, {f}, alpha)
        matrices_ok = matrices_ok and np.array_equal(mix, mix.T) \
            and np.all(np.diag(mix) == 1.0)
        model = Classifier([(w.copy(), np.zeros(k))])
        model.final_w[...] = model.final_w @ mix
        mixed = forward_batch(model, h[None, :])[1][0]
        base = w.T @ h
        for j in range(k):
            if j == f:
                expected = base[f] + alpha * float(
                    sum(base[i] for i in range(k) if i != f))
            else:
                expected = base[j] + alpha * base[f]
            worst = max(worst, abs(float(mixed[j]) - expected))
    ok = worst <= 1e-10 and matrices_ok
    crit(6, ok, f"max |W~M logit - closed form| = {worst:.2e} over 100 "
                f"random (d=8, K=5) instances; M symmetric, unit diagonal")


def test_criterion_07_metric_brute_force_oracle():
    rng = Rng(7007)
    worst = 0.0
    identity_exact = True
    for case in range(100):
        k = 2 + randbelow(rng, 11)
        n = 1 + randbelow(rng, 200)
        logits = rng.normal(n * k, sigma=3.0).reshape(n, k)
        classes = [int(randbelow(rng, k)) for _ in range(n)]
        n_forget = 1 + randbelow(rng, k - 1)
        forget = set()
        while len(forget) < n_forget:
            forget.add(int(randbelow(rng, k)))
        model, data = prediction_set(logits, classes, k)
        rep = evaluate(model, data, forget, original_fa=100.0)
        want = brute_force_recount(logits, classes, forget, k, 100.0)
        for key in ("fa", "ra", "il", "far", "frr", "erb", "per"):
            got, expected = getattr(rep, key), want[key]
            if expected is None:
                assert got is None
            else:
                worst = max(worst, abs(got - expected))
        if rep.fa is not None and rep.fa + rep.frr != 100.0:
            identity_exact = False
    ok = worst <= 1e-9 and identity_exact
    crit(7, ok, f"max |evaluate - straight-line recount| = {worst:.2e}; "
                f"FA + FRR == 100 exact: {identity_exact}")


def test_criterion_08_multi_class_run(desk, tmp_path):
    t0 = time.perf_counter()
    cfg = harness.default_config("multi")
    ws = make_workspace(desk, tmp_path, cfg=cfg)
    original = evaluate(desk["model"], desk["eval"], {0, 4})
    path, _ = harness.cmd_unlearn(ws, "qp")
    rep = harness.cmd_evaluate(ws, path, original_report=original, name="qp")
    elapsed = time.perf_counter() - t0
    ok = (rep.fa == 0.0 and rep.per_class[0] == 0.0 and rep.per_class[4] == 0.0
          and rep.il < 1.0 and rep.ra >= 0.60 * original.ra
          and elapsed < 180.0)
    crit(8, ok,
         f"FA={rep.fa:.2f} (class0={rep.per_class[0]:.2f}, "
         f"class4={rep.per_class[4]:.2f}), IL={rep.il:.4f}, RA={rep.ra:.2f} "
         f"vs 60% of orig {0.60 * original.ra:.2f}; {elapsed:.1f}s")


def test_criterion_09_sequential_run(tmp_path):
    t0 = time.perf_counter()
    cfg = harness.default_config("sequential",
                                 output_dir=str(tmp_path / "seq"))
    ws = harness.run_scenario(cfg)
    series = json.loads((ws.out / "sequential_series.json").read_text())
    elapsed = time.perf_counter() - t0
    all_zero = all(step["fa"] == 0.0 for step in series)
    final_ra = series[-1]["ra"]
    ok = all_zero and final_ra >= 50.0 and len(series) == 3 and elapsed < 300.0
    crit(9, ok, f"union FA per step {[s['fa'] for s in series]}, "
                f"final RA={final_ra:.2f}; {elapsed:.1f}s")


def test_criterion_10_ablation_grid(tmp_path):
    cfg = harness.default_config("ablation", output_dir=str(tmp_path / "abl"))
    ws = harness.run_scenario(cfg)
    reports = {name: report_from_json(
                   (ws.out / f"report_ablation_{name}.json").read_text())
               for name, _ in harness.ABLATION_VARIANTS}
    full = reports["full"]
    ablated = {name: reports[name] for name, _ in harness.ABLATION_VARIANTS
               if name != "full"}
    best_ablated_ra = max(rep.ra for rep in ablated.values())
    ok = (full.fa == 0.0
          and full.ra >= best_ablated_ra - 1.0
          and ablated["lambda_2.0"].ra < ablated["lambda_0.5"].ra)
    crit(10, ok,
         f"full FA={full.fa:.2f} RA={full.ra:.2f} vs best ablated "
         f"RA={best_ablated_ra:.2f}; RA(lambda=2.0)="
         f"{ablated['lambda_2.0'].ra:.2f} < RA(lambda=0.5)="
         f"{ablated['lambda_0.5'].ra:.2f}")


def test_criterion_11_checkpoint_round_trip(desk, tmp_path):
    p1, p2 = tmp_path / "a.qpae", tmp_path / "b.qpae"
    save_checkpoint(desk["model"], p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    bytes_stable = p1.read_bytes() == p2.read_bytes()
    round_trip_exact = equals_bits(load_checkpoint(p2), loaded)

    blob = bytearray(p1.read_bytes())
    blob[len(blob) // 2] ^= 0x01  # single-byte corruption in the payload
    corrupt = tmp_path / "c.qpae"
    corrupt.write_bytes(bytes(blob))
    crc_caught = False
    try:
        load_checkpoint(corrupt)
    except CheckpointError as exc:
        crc_caught = str(exc) == "CRC32 mismatch"
    ok = bytes_stable and round_trip_exact and crc_caught
    crit(11, ok, f"save-load-save byte-stable: {bytes_stable}; reload "
                 f"bit-exact: {round_trip_exact}; single-byte corruption "
                 f"detected by CRC: {crc_caught}")


def test_criterion_12_determinism(tmp_path):
    digests = []
    for run in ("a", "b"):
        cfg = harness.default_config("single",
                                     output_dir=str(tmp_path / run))
        ws = harness.run_scenario(cfg)
        csvs = sorted(p.name for p in ws.out.glob("*.csv"))
        digest = {name: (ws.out / name).read_bytes() for name in csvs}
        digest["reports"] = {p.name: p.read_text()
                             for p in ws.out.glob("report_*.json")}
        digests.append(digest)
    ok = digests[0] == digests[1]
    crit(12, ok, f"two full scenario runs produced byte-identical report "
                 f"CSVs and tables: {ok}")
