"""Microbenchmarks of the functional plane (the real CKKS library).

These measure what Table IV's CPU column measures for the paper's
software baseline: wall-clock throughput of the library's own basic
operations at toy parameters. Not compared against the paper's
numbers (different machine, interpreted Python) — they track this
repository's own performance over time.

The kernel cases time the layer under the e2e ``ckks-ops`` and
``ckks-bootstrap`` workloads at their own shapes: ``apply_switch_key``
at N=4096, L=8 (a relinearization keyswitch, nine digits), and
``NumpyBackend.ntt`` on a (1, 9, 4096) keyswitch digit (rows stay
rows) and on a (16, 17, 64) bootstrapping digit stack (rows fold
innermost).
"""

import numpy as np
import pytest

from repro import kernels
from repro.ckks import (
    CkksDecryptor,
    CkksEncoder,
    CkksEncryptor,
    CkksEvaluator,
    CkksParameters,
    KeyChain,
)
from repro.ckks.keyswitch import apply_switch_key
from repro.ckks.presets import bootstrap_capable
from repro.ntt.radix2 import intt_radix2, ntt_radix2
from repro.ntt.tables import get_twiddle_table
from repro.rns.poly import Domain, RnsPolynomial
from repro.utils.primes import find_ntt_primes


@pytest.fixture(scope="module")
def stack():
    params = CkksParameters.default(degree=1024, levels=3)
    keys = KeyChain.generate(params, seed=0)
    encoder = CkksEncoder(params)
    encryptor = CkksEncryptor(params, keys, seed=1)
    decryptor = CkksDecryptor(params, keys)
    evaluator = CkksEvaluator(params, keys)
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, params.slot_count)
    ct = encryptor.encrypt(encoder.encode(x))
    return params, encoder, encryptor, decryptor, evaluator, ct


def test_bench_ntt_radix2(benchmark):
    n = 4096
    q = find_ntt_primes(30, 1, n)[0]
    table = get_twiddle_table(q, n)
    x = np.random.default_rng(0).integers(0, q, n, dtype=np.uint64)
    benchmark(ntt_radix2, x, table)


def test_bench_intt_radix2(benchmark):
    n = 4096
    q = find_ntt_primes(30, 1, n)[0]
    table = get_twiddle_table(q, n)
    x = np.random.default_rng(1).integers(0, q, n, dtype=np.uint64)
    f = ntt_radix2(x, table)
    benchmark(intt_radix2, f, table)


def test_bench_encrypt(benchmark, stack):
    params, encoder, encryptor, *_ = stack
    pt = encoder.encode(np.zeros(params.slot_count))
    benchmark(encryptor.encrypt, pt)


def test_bench_hadd(benchmark, stack):
    *_, evaluator, ct = stack
    benchmark(evaluator.add, ct, ct)


def test_bench_pmult(benchmark, stack):
    params, encoder, _, _, evaluator, ct = stack
    pt = encoder.encode(np.full(params.slot_count, 0.5))
    benchmark(evaluator.multiply_plain, ct, pt)


def test_bench_cmult_with_relin(benchmark, stack):
    *_, evaluator, ct = stack
    benchmark(evaluator.multiply, ct, ct)


def test_bench_rotation(benchmark, stack):
    *_, evaluator, ct = stack
    evaluator.rotate(ct, 1)  # warm the Galois key cache
    benchmark(evaluator.rotate, ct, 1)


def test_bench_rescale(benchmark, stack):
    params, encoder, _, _, evaluator, ct = stack
    pt = encoder.encode(np.full(params.slot_count, 0.5))
    prod = evaluator.multiply_plain(ct, pt)
    benchmark(evaluator.rescale, prod)


def _residues(shape, moduli, seed):
    q = np.array(moduli, dtype=np.uint64)[:, None]
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 62, shape, dtype=np.uint64) % q


@pytest.fixture(scope="module")
def keyswitch_4096():
    params = CkksParameters.default(degree=4096, levels=8, scale_bits=30)
    keys = KeyChain.generate(params, seed=0)
    d = RnsPolynomial(
        _residues((len(params.chain_moduli), params.degree),
                  params.chain_moduli, 3),
        params.context, Domain.COEFFICIENT,
    )
    return d, keys.relin, params


def test_bench_apply_switch_key_4096(benchmark, keyswitch_4096):
    with kernels.use_backend("numpy"):
        benchmark(apply_switch_key, *keyswitch_4096)


def test_bench_numpy_ntt_keyswitch_digit(benchmark):
    params = CkksParameters.default(degree=4096, levels=8, scale_bits=30)
    moduli = params.key_context.moduli
    data = _residues((1, len(moduli), params.degree), moduli, 4)
    benchmark(kernels.resolve("numpy").ntt, data, moduli)


def test_bench_numpy_ntt_bootstrap_digits(benchmark):
    params = bootstrap_capable()[0]
    moduli = params.key_context.moduli
    data = _residues((16, len(moduli), params.degree), moduli, 5)
    benchmark(kernels.resolve("numpy").ntt, data, moduli)
