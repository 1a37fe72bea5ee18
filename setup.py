"""Package metadata for ``pip install -e .`` (the repository has no
pyproject.toml); the tests and scripts also run without an install,
with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "cISP: A Speed-of-Light Internet Service Provider - "
        "full reproduction (NSDI 2022)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.23", "scipy>=1.9", "networkx>=2.8"],
)
