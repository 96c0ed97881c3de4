"""Setuptools entry point.

The execution environment ships setuptools 65 without the ``wheel``
package, so PEP 517 editable installs (which must build a wheel) fail.
Keeping the metadata here lets ``pip install -e .`` use the classic
``setup.py develop`` path, which works offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "RAPIDS reproduction: fast post-placement rewiring using easily "
        "detectable functional symmetries (DAC 2000)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={"console_scripts": ["rapids=repro.cli:main"]},
)
