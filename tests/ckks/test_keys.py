"""KeyChain construction: ``generate`` builds through ``__init__``."""

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
