"""RNS-CKKS: the functional FHE scheme Poseidon accelerates.

This is a real, exact implementation (not a mock): ciphertexts encrypt,
evaluate and decrypt correctly. The paper's basic operations map to:

- HAdd        -> :meth:`CkksEvaluator.add` / ``add_plain``
- PMult       -> :meth:`CkksEvaluator.multiply_plain`
- CMult       -> :meth:`CkksEvaluator.multiply` (+ ``relinearize``)
- Rescale     -> :meth:`CkksEvaluator.rescale`
- Keyswitch   -> :mod:`repro.ckks.keyswitch` (ModUp/ModDown inside)
- Rotation    -> :meth:`CkksEvaluator.rotate`
- Bootstrapping -> :class:`repro.ckks.bootstrap.Bootstrapper`

Beyond the basic operations, the subpackage provides the toolbox a
downstream application needs: :mod:`~repro.ckks.linear` (BSGS matrix
products), :mod:`~repro.ckks.hoisting` (shared-decomposition
rotations), :mod:`~repro.ckks.polyeval` (Horner / power-basis
polynomial evaluation), :mod:`~repro.ckks.packing` (slot layouts and
masks) and :mod:`~repro.ckks.presets` (named parameter sets).
"""

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encrypt import CkksDecryptor, CkksEncryptor
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.keys import KeyChain, PublicKey, SecretKey, SwitchKey
from repro.ckks.params import CkksParameters

__all__ = [
    "Ciphertext",
    "CkksDecryptor",
    "CkksEncoder",
    "CkksEncryptor",
    "CkksEvaluator",
    "CkksParameters",
    "KeyChain",
    "Plaintext",
    "PublicKey",
    "SecretKey",
    "SwitchKey",
]
