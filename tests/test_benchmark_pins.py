"""The names the benchmark's tracer reaches into exist in qpae.

`perfbench/tracing.py` wraps the functions in its TARGETS and names spans
by the verbs in its CLI_VERBS. It is loaded here by path and only read.
"""

import importlib.util
import sys
from pathlib import Path

import qpae.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    """Each TARGETS pair names a function of its loaded qpae module (a
    method in its class's own dict), and each CLI_VERBS entry is a verb."""
    tracing = _load_tracing()
    for mod_name, attr in tracing.TARGETS:
        owner = sys.modules[f"qpae.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = vars(getattr(owner, cls_name)).get(meth)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"qpae.{mod_name}.{attr}"
    verbs = qpae.cli.build_parser()._subparsers._group_actions[0].choices
    assert set(tracing.CLI_VERBS) <= set(verbs)
