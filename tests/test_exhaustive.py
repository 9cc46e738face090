"""Every module of one small scope, checked against the independent routes.

The enumerator and the checks live in `tools/exhaustive.py`; this runs its
scope p = 2, degrees in {0, 1}², at most two generators and two relations.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "exhaustive.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("exhaustive", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_small_module_over_f2_agrees_with_the_checks():
    verdicts, disagreements = load_tool().run(p=2, side=2, max_gens=2, max_rels=2)
    assert disagreements == []
    # 959 modules, 14 of them not hook-decomposable.
    assert verdicts == {"free": 514, "hook not free": 431, "pd 1 not hook": 7, "pd 2": 7}
