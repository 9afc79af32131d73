"""Number Theoretic Transform substrate.

The NTT is the most expensive Poseidon operator. This subpackage holds:

- :mod:`repro.ntt.reference` — O(n^2) evaluation-at-roots reference.
- :mod:`repro.ntt.radix2` — iterative Cooley-Tukey / Gentleman-Sande.
- :mod:`repro.ntt.fusion` — the paper's radix-2^k "NTT-fusion" with its
  operation-count cost model (Table II) and BRAM access pattern
  (Table III / Fig. 5).
- :mod:`repro.ntt.negacyclic` — whole-matrix negacyclic transforms for
  R = Z_q[x]/(x^n+1), routed through :mod:`repro.kernels`.
- :mod:`repro.ntt.tables` — per-(q, n) twiddle caches.
"""

from repro.ntt.negacyclic import intt_negacyclic, ntt_negacyclic
from repro.ntt.radix2 import intt_radix2, ntt_radix2
from repro.ntt.fusion import FusionCostModel, FusedNtt
from repro.ntt.tables import TwiddleTable, get_twiddle_table

__all__ = [
    "FusedNtt",
    "FusionCostModel",
    "TwiddleTable",
    "get_twiddle_table",
    "intt_negacyclic",
    "intt_radix2",
    "ntt_negacyclic",
    "ntt_radix2",
]
