"""KeyChain construction: ``generate`` builds through ``__init__``;
switch keys are stored as prepared constants."""

import numpy as np

from repro import kernels
from repro.ckks import KeyChain


def test_generated_chain_has_exactly_the_init_fields(params):
    chain = KeyChain.generate(params, seed=42)
    direct = KeyChain(
        chain.params, chain.secret, chain.public, chain.relin, chain._rng
    )
    assert vars(chain).keys() == vars(direct).keys()
    assert vars(chain) == vars(direct)


def test_generate_calls_init_once(params, monkeypatch):
    calls = []
    init = KeyChain.__init__

    def recording_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(KeyChain, "__init__", recording_init)
    chain = KeyChain.generate(params, seed=42)
    assert len(calls) == 1
    assert calls[0] == (
        chain.params, chain.secret, chain.public, chain.relin, chain._rng
    )


def test_switch_key_is_a_prepared_constant(params, keys):
    """uint32 residues beside uint32 Shoup companions: together the
    bytes a uint64 ``rows`` array held."""
    key = keys.relin
    limbs = len(params.chain_moduli) + len(params.aux_moduli)
    shape = (len(params.chain_moduli), 2, limbs, params.degree)
    assert key.rows.shape == key.shoup.shape == shape
    assert key.rows.dtype == key.shoup.dtype == np.uint32
    assert key.rows.nbytes + key.shoup.nbytes == np.empty(shape, np.uint64).nbytes
    np.testing.assert_array_equal(
        key.shoup, kernels.shoup_companions(key.rows, key.context.moduli)
    )


def test_level_spans_are_views_covering_the_extended_basis(params, keys):
    key = keys.relin
    for level in range(params.max_level + 1):
        ext = params.key_context_at_level(level).moduli
        spans = key.level_spans(level)
        assert len(spans) == (1 if level == params.max_level else 2)
        assert tuple(m for e, _ in spans for m in ext[e]) == ext
        for e, rows in spans:
            assert key.context.moduli[rows] == ext[e]
            assert key.rows[:, :, rows].base is key.rows
