"""Legacy setuptools entry point.

Kept so ``pip install -e .`` works in offline environments without the
``wheel`` package (pip falls back to ``setup.py develop``); all metadata
lives in pyproject.toml.

This file additionally declares the optional compiled kernel extension
(the ``compiled`` backend of ``repro.core.kernels``).  The build is
``optional``: on hosts without a C toolchain the failure is a warning
and the package installs pure-python — the kernel registry then falls
back to the ``pure`` backend at runtime.  Build
in place for development with::

    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "repro.core.kernels._ckernels",
            sources=["src/repro/core/kernels/_ckernels.c"],
            optional=True,
        )
    ]
)
