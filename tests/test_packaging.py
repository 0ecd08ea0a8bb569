"""Tests for the package metadata in ``setup.py``.

``pip install -e .`` must install the ``repro-mechanisms`` console script
that README and the docs invoke, so the metadata is checked here directly.
"""

from __future__ import annotations

import importlib
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SETUP_PY = Path(__file__).resolve().parents[1] / "setup.py"


@pytest.fixture(scope="module")
def setup_kwargs():
    """The keyword arguments ``setup.py`` hands to ``setuptools.setup``."""
    import setuptools

    captured = {}
    original = setuptools.setup
    setuptools.setup = lambda **kwargs: captured.update(kwargs)
    try:
        runpy.run_path(str(SETUP_PY), run_name="__main__")
    finally:
        setuptools.setup = original
    return captured


def test_setup_reports_name_and_version():
    result = subprocess.run(
        [sys.executable, str(SETUP_PY), "--name", "--version"],
        cwd=SETUP_PY.parent, capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == ["repro-mechanisms", repro.__version__]


def test_version_is_the_package_version(setup_kwargs):
    assert setup_kwargs["version"] == repro.__version__ == "1.1.0"


def test_packages_come_from_src(setup_kwargs):
    assert setup_kwargs["package_dir"] == {"": "src"}
    packages = set(setup_kwargs["packages"])
    assert {"repro", "repro.core", "repro.lp", "repro.mechanisms", "repro.serving"} <= packages


def test_install_requires_numpy_and_scipy(setup_kwargs):
    assert sorted(setup_kwargs["install_requires"]) == ["numpy", "scipy"]


def test_console_script_resolves_to_the_cli(setup_kwargs):
    (script,) = setup_kwargs["entry_points"]["console_scripts"]
    name, target = (part.strip() for part in script.split("="))
    module_name, attribute = target.split(":")
    assert name == "repro-mechanisms"
    entry = getattr(importlib.import_module(module_name), attribute)
    with pytest.raises(SystemExit) as raised:
        entry(["--help"])
    assert raised.value.code == 0
