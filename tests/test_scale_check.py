"""``scripts/scale_check.py``: the invariant checks on large trees."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core.transform import push_down

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scale_check.py"


@pytest.fixture(scope="module")
def scale_check():
    spec = importlib.util.spec_from_file_location("scale_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_moderate_sizes_pass(scale_check, capsys):
    assert scale_check.main(["--scale", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "wide_star(n=400)" in out
    assert out.count(" ok\n") == 3


def test_violation_exits_nonzero(scale_check, monkeypatch, capsys):
    def lossy_push_down(forest, x, y):
        tr = push_down(forest, x, y)
        tr.x[tr.topmost[0]] *= 0.5
        return tr

    monkeypatch.setattr("repro.core.algorithm.push_down", lossy_push_down)
    assert scale_check.main(["--scale", "0.05"]) == 1
    assert "violation" in capsys.readouterr().out
