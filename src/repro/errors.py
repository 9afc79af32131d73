"""Exception hierarchy for the Poseidon reproduction library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ParameterError(ReproError, ValueError):
    """An invalid or inconsistent parameter set was supplied."""


class PrimeGenerationError(ReproError, RuntimeError):
    """No NTT-friendly prime could be found in the requested range."""


class RNSError(ReproError, ValueError):
    """An RNS invariant was violated (mismatched bases, bad limb count)."""


class NTTError(ReproError, ValueError):
    """An NTT precondition failed (non power-of-two length, bad root)."""


class AutomorphismError(ReproError, ValueError):
    """An automorphism/Galois-element precondition failed."""


class KernelError(ReproError, ValueError):
    """A kernel backend precondition failed (unknown backend, bad shape)."""


class EncryptionError(ReproError, RuntimeError):
    """Encryption, decryption or key generation failed."""


class EvaluationError(ReproError, RuntimeError):
    """A homomorphic evaluation step could not proceed.

    Typical causes: exhausted modulus chain, mismatched ciphertext
    levels, or a missing rotation key.
    """


class BootstrapError(EvaluationError):
    """Bootstrapping could not proceed or failed to refresh a ciphertext."""


class SimulationError(ReproError, RuntimeError):
    """The cycle-level accelerator simulation hit an inconsistent state."""


class SchedulingError(SimulationError):
    """The task scheduler could not place a task (deadlock, bad graph)."""


class WorkloadError(ReproError, ValueError):
    """A workload description is invalid or unsupported."""
