"""Digests of every artifact a fixed set of qpae commands writes.

Runs, in this process and through `qpae.cli.main`:
- `qpae run --scenario S --seed N` for the five scenarios on master
  seeds 7 and 99;
- a manifest sequence: `synth` (4 classes x 30 clips), `train`, `unlearn`
  and `evaluate --original-report` for all five methods, `train` again
  into the same `--out`, `sequential`, then `report`;
- `train` on a synthetic dataset of 4 classes x 30 clips at each of
  `n_frames` 1, 33, 49 and 64: one frame, an odd frame count, every
  frame (no crop), and zero padding.

It prints `sha256  relative/path` for every file written, sorted by
path, then one digest of everything the commands printed. Two copies of
the code that behave the same print the same list, so a refactor is
checked by running this on both and diffing the output:

    PYTHONPATH=<old>/src python tests/byte_identity.py <dir1> > old.txt
    PYTHONPATH=<new>/src python tests/byte_identity.py <dir2> > new.txt
    diff old.txt new.txt

Run both on one host: BLAS kernels differ between machines. The
directory must not exist or be empty. Commands get relative paths only,
from inside it, so no artifact records where it ran. Wall times are not
compared: phase logs are hashed without `wall_ms`, and `(N.N ms)` is
removed from the printed output. The path of the `qpae` package that ran
goes to stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

# one BLAS thread, set before numpy loads: the same kernels on every run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import qpae  # noqa: E402
from qpae.cli import main  # noqa: E402

SCENARIOS = ("single", "multi", "sequential", "ablation", "accent")
SEEDS = (7, 99)
METHODS = ("qp", "ga", "ng", "fisher", "ssd")
FRAMES = (1, 33, 49, 64)
TIMING = re.compile(r"\(\d+\.\d ms\)")


def _commands() -> list[list[str]]:
    commands = [["run", "--scenario", s, "--seed", str(n), "--out", f"runs/{s}_{n}"]
                for n in SEEDS for s in SCENARIOS]
    manifest = ["--config", "manifest.json", "--out", "sess"]
    commands += [["synth", "--config", "synth.json", "--out", "data"],
                 ["train", *manifest]]
    for method in METHODS:
        commands += [["unlearn", *manifest, "--method", method],
                     ["evaluate", *manifest, "--model", f"sess/unlearned_{method}.qpae",
                      "--original-report", "sess/report_original.json"]]
    # a second train into a matching --out must write what the first wrote
    commands += [["train", *manifest], ["sequential", *manifest],
                 ["report", "--out", "sess"]]
    return commands + [["train", "--config", f"frames_{n}.json", "--out", f"frames_{n}"]
                       for n in FRAMES]


def _write_configs() -> None:
    dataset = {"num_classes": 4, "per_class": 30}
    Path("synth.json").write_text(json.dumps({"dataset": dataset}) + "\n")
    Path("manifest.json").write_text(json.dumps(
        {"dataset": {"kind": "manifest", "path": "data", **dataset},
         "sequential_requests": [[0], [1]]}) + "\n")
    for n in FRAMES:
        Path(f"frames_{n}.json").write_text(
            json.dumps({"dataset": {**dataset, "n_frames": n}}) + "\n")


def _digest(path: Path) -> str:
    if path.name.startswith("phase_log_"):
        entries = json.loads(path.read_text())
        data = json.dumps([{k: v for k, v in e.items() if k != "wall_ms"}
                           for e in entries], indent=2).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def run(out: Path) -> list[str]:
    """Run every command in `out`; the lines of the digest list."""
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    os.chdir(out)
    _write_configs()
    printed = io.StringIO()
    for argv in _commands():
        with contextlib.redirect_stdout(printed):
            status = main(argv)
        if status != 0:
            raise SystemExit(f"qpae {' '.join(argv)} exited {status}")
    lines = ["# phase_log_*.json hashed without wall_ms; "
             "printed output hashed without (N.N ms)"]
    lines += [f"{_digest(p)}  {p.as_posix()}"
              for p in sorted(Path(".").rglob("*")) if p.is_file()]
    stdout = TIMING.sub("(ms)", printed.getvalue()).encode()
    lines.append(f"{hashlib.sha256(stdout).hexdigest()}  <printed output>")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: byte_identity.py OUT_DIR")
    print(f"qpae: {qpae.__file__}", file=sys.stderr)
    print("\n".join(run(Path(sys.argv[1]))))
