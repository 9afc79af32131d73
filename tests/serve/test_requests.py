"""Request-mix key sizing: the upload a key-cache miss charges."""

from repro.ckks.keys import KeyChain
from repro.ckks.params import CkksParameters
from repro.serve.requests import switch_key_bytes
from repro.sim.config import LIMB_BYTES


def test_switch_key_bytes_matches_real_keychain_structure():
    """The formula sizes the actual key object's element count.

    The functional plane stores residues as 8-byte uint64 for numpy
    arithmetic; the hardware format is 4-byte limbs (the paper's 32-bit
    datapath), which is what the formula prices.
    """
    params = CkksParameters.default(degree=256, levels=4, aux_count=2)
    keys = KeyChain.generate(params, seed=0)
    assert keys.relin.rows.size * LIMB_BYTES == switch_key_bytes(
        params.degree, len(params.chain_moduli), len(params.aux_moduli)
    )
