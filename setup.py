"""Setuptools entry point.

Packaging metadata lives here (rather than in ``pyproject.toml``'s
``[project]`` table) so that editable installs work with the pinned
setuptools in the offline evaluation environment, which predates PEP 660
editable-wheel support.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description=(
        "Hamava: fault-tolerant reconfigurable geo-replication on heterogeneous "
        "clusters (ICDE 2025) — Python reproduction"
    ),
    long_description=open("README.md", encoding="utf-8").read() if __import__("os").path.exists("README.md") else "",
    long_description_content_type="text/markdown",
    license="Apache-2.0",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
)
