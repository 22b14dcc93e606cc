"""The package's export table: every public name, loaded on first use."""

import importlib
import subprocess
import sys

import pytest

import declift

from test_cli import _child_env


def test_every_public_name_resolves_to_its_module():
    for name in declift.__all__:
        module = importlib.import_module(f"declift.{declift._EXPORTS[name]}")
        assert getattr(declift, name) is getattr(module, name)


def test_dir_lists_every_public_name():
    assert set(declift.__all__) <= set(dir(declift))
    assert "__version__" in dir(declift)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from declift import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(declift.__all__)
    assert namespace["ground"] is declift.lifting.ground


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'declift' has no attribute 'nope'"):
        declift.nope
    assert not hasattr(declift, "joint_space")
    with pytest.raises(ImportError):
        exec("from declift import nope", {})


def test_importing_the_package_loads_none_of_its_modules():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, declift; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=_child_env(), timeout=60, check=True,
    )
    modules = set(proc.stdout.split())
    assert {m for m in modules if m.startswith("declift")} == {"declift"}
    assert "numpy" not in modules
