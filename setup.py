"""Packaging for the AIAC reproduction library.

Reproduction of Bahi, Contassot-Vivier & Couturier, "Performance
comparison of parallel programming environments for implementing AIAC
algorithms": a discrete-event simulator and a real-thread runtime for
asynchronous-iteration algorithms, driven by the declarative
scenario/backend API in ``repro.api``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    text = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(
        encoding="utf-8"
    )
    match = re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE)
    if not match:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-aiac",
    version=read_version(),
    description=(
        "Reproduction of Bahi et al.: AIAC algorithms across parallel "
        "programming environments (simulator + real-thread runtime)"
    ),
    long_description=__doc__,
    long_description_content_type="text/plain",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # Fitted calibration presets ship with the package so the
    # `calibrated_threaded_local` cluster (and any future fits) are
    # available at import time; see docs/calibration.md.
    package_data={"repro.calibrate": ["data/*.json"]},
    python_requires=">=3.10",
    install_requires=["numpy>=2.0"],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
    entry_points={
        "console_scripts": ["repro=repro.cli:main"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Mathematics",
        "Topic :: System :: Distributed Computing",
    ],
)
