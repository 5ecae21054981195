"""Static floor: every source file compiles and every module imports.

``make lint`` gates nothing where ruff is not installed, so this is
the check that catches a syntax error in a rarely-run module or a
dangling import of a deleted name.
"""

import compileall
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("tree", ["src", "tests"])
def test_sources_compile(tree, tmp_path, monkeypatch):
    # Byte-code goes to a scratch prefix, not into the source tree.
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    assert compileall.compile_dir(
        str(ROOT / tree), quiet=1, force=True, legacy=False
    )


def _modules():
    return sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    )


def test_walk_finds_the_package_tree():
    names = _modules()
    assert "repro.query.vexecutor" in names
    assert "repro.shard.coordinator" in names


@pytest.mark.parametrize("name", _modules())
def test_module_imports(name):
    importlib.import_module(name)
