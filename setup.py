"""Packaging for the Mercury & Freon reproduction.

Metadata lives here (plus setup.cfg) rather than pyproject.toml so that
`pip install -e .` works on offline environments without the `wheel`
package: with a pyproject.toml present, pip insists on a PEP 660
editable build, which setuptools cannot complete without wheel.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Mercury & Freon: temperature emulation and management for "
        "server systems (ASPLOS'06 reproduction)"
    ),
    long_description=open("README.md").read(),
    long_description_content_type="text/markdown",
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
