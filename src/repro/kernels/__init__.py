"""Pluggable kernel backends for the NTT/RNS hot paths.

The functional plane routes every arithmetic hot path — whole-matrix
NTT/INTT, element-wise modular ops, Barrett reduction, digit lifting
and the RNSconv cascade — through a *kernel backend*:

- ``numpy``     — fully vectorized: NTT butterflies on uint32 lanes
  (Shoup multiplication + Harvey's lazy reduction, layout chosen from
  the call's shape), Shoup products by prepared constants on uint32
  lanes and uint64 Barrett products otherwise; the default, with no
  Python-level per-element loops.
- ``reference`` — the original per-limb code paths (the oracle).

``mod_mul_prepared`` multiplies by a *prepared constant* (switch keys,
linear-transform spectra): uint32 residues stored with their uint32
Shoup companions (:func:`shoup_companions`), computed once with the
constant. It can also sum its products lazily into a uint64
accumulator that the caller reduces once. Its default in
:class:`KernelBackend` goes through ``mod_mul``, so ``reference`` runs
it unchanged.

Selection, in precedence order:

1. explicit code: ``with use_backend("reference"): ...``;
2. the ``REPRO_KERNEL_BACKEND`` environment variable, read once at
   first use (``reset_selection()`` forgets the cached choice);
3. the default, ``numpy``.

Both backends are bit-identical on every operator (enforced by
``tests/kernels/test_differential.py``, the exhaustive big-int oracle
suite in ``tests/kernels/test_exhaustive.py`` and the golden vectors
under ``tests/golden``), so any call site can run on either of them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.errors import KernelError
from repro.kernels.base import KernelBackend, batch_blocks, shoup_companions
from repro.kernels.numpy_backend import NumpyBackend
from repro.kernels.reference import ReferenceBackend

#: Environment variable consulted on first use (see module docstring).
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Name used when neither code nor the environment chose a backend.
DEFAULT_BACKEND = "numpy"

_REGISTRY: dict[str, KernelBackend] = {
    NumpyBackend.name: NumpyBackend(),
    ReferenceBackend.name: ReferenceBackend(),
}

_active: KernelBackend | None = None


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve(backend: str | KernelBackend | None) -> KernelBackend:
    """Map a name / instance / None (= currently active) to a backend."""
    if backend is None:
        return get_backend()
    if isinstance(backend, KernelBackend):
        return backend
    try:
        return _REGISTRY[backend]
    except KeyError:
        raise KernelError(
            f"unknown kernel backend {backend!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None


def get_backend() -> KernelBackend:
    """The active backend (env var consulted on first call)."""
    global _active
    if _active is None:
        name = os.environ.get(BACKEND_ENV_VAR, DEFAULT_BACKEND)
        if name not in _REGISTRY:
            raise KernelError(
                f"{BACKEND_ENV_VAR}={name!r} names no kernel backend; "
                f"available: {', '.join(available_backends())}"
            )
        _active = _REGISTRY[name]
    return _active


def reset_selection() -> None:
    """Forget the process-wide backend choice.

    The next :func:`get_backend` call re-reads ``REPRO_KERNEL_BACKEND``
    (or falls back to the default). Tests use this to exercise the
    environment-variable path without leaking state between cases.
    """
    global _active
    _active = None


@contextmanager
def use_backend(backend: str | KernelBackend | None):
    """Scoped backend override; ``None`` keeps the current selection."""
    global _active
    if backend is None:
        yield get_backend()
        return
    previous = get_backend()
    _active = resolve(backend)
    try:
        yield _active
    finally:
        _active = previous


__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "NumpyBackend",
    "ReferenceBackend",
    "available_backends",
    "batch_blocks",
    "get_backend",
    "reset_selection",
    "resolve",
    "shoup_companions",
    "use_backend",
]
