"""Packaging for the ``repro`` library and its ``repro-mechanisms`` CLI.

All package metadata lives here.  Install editable with
``pip install -e .``; without network access, where pip cannot fetch
build requirements, use ``pip install --no-build-isolation -e .`` with
``setuptools`` and ``wheel`` already installed.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def _version() -> str:
    """``repro.__version__``, read from the source so the build imports nothing."""
    text = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text()
    return re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE).group(1)


setup(
    name="repro-mechanisms",
    version=_version(),
    description="Constrained differentially private mechanisms for count data.",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro-mechanisms = repro.cli:main"]},
)
