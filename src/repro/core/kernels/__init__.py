"""Kernel backend registry and capability probe.

Two interchangeable backends implement the hot-kernel API of
:mod:`~repro.core.kernels.api`:

``pure``
    The python reference — always available, bit-identical baseline
    that the parity tests compare against.
``compiled``
    The C extension, built by ``pip install`` (or
    ``python setup.py build_ext --inplace``) wherever a C toolchain is
    present.

:func:`resolve_backend` implements the selection policy: an explicit
name wins, then the ``REPRO_KERNEL_BACKEND`` environment variable (the
CI matrix hook), then the fastest available in probe order
``compiled > pure``.  Requesting an unavailable or unknown backend by
name is an error, not a silent fallback — CI and benchmarks must never
believe they measured a backend that didn't run.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Union

from .api import KernelBackend
from .pure import PureBackend

#: Environment override consumed by :func:`resolve_backend` when no
#: explicit backend is requested.
ENV_BACKEND = "REPRO_KERNEL_BACKEND"

#: Fallback order of the capability probe (fastest first).
PROBE_ORDER = ("compiled", "pure")

#: All recognized names, slowest first (CLI choices, docs).
BACKEND_NAMES = ("pure", "compiled")

_instances: Dict[str, KernelBackend] = {}
_failures: Dict[str, str] = {}


def _construct(name: str) -> KernelBackend:
    if name == "pure":
        return PureBackend()
    if name == "compiled":
        from .compiled import CompiledBackend

        return CompiledBackend()
    raise ValueError(
        f"unknown kernel backend {name!r}"
        f" (choose from {', '.join(BACKEND_NAMES)})"
    )


def get_backend(name: str) -> KernelBackend:
    """The backend instance for ``name``; ``ValueError`` if unavailable."""
    instance = _instances.get(name)
    if instance is not None:
        return instance
    if name in _failures:
        raise ValueError(
            f"kernel backend {name!r} is unavailable: {_failures[name]}"
        )
    try:
        instance = _construct(name)
    except ImportError as exc:
        _failures[name] = str(exc)
        raise ValueError(
            f"kernel backend {name!r} is unavailable: {exc}"
        ) from exc
    _instances[name] = instance
    return instance


def available_backends() -> List[str]:
    """Names of backends that construct on this interpreter."""
    out = []
    for name in BACKEND_NAMES:
        try:
            get_backend(name)
        except ValueError:
            continue
        out.append(name)
    return out


def resolve_backend(
    name: Optional[Union[str, KernelBackend]] = None
) -> KernelBackend:
    """Resolve a backend request to an instance.

    ``None`` → the ``REPRO_KERNEL_BACKEND`` environment variable when
    set, else the fastest available backend in :data:`PROBE_ORDER`.
    Already-constructed instances pass through unchanged.
    """
    if isinstance(name, KernelBackend):
        return name
    if name is None:
        name = os.environ.get(ENV_BACKEND) or None
    if name is not None:
        return get_backend(name)
    for candidate in PROBE_ORDER:
        try:
            return get_backend(candidate)
        except ValueError:
            continue
    raise RuntimeError("no kernel backend available")
