"""Check every kernel backend against the big-int golden vectors.

The JSON files next to this test were produced by ``regenerate.py``
using only unbounded Python integer arithmetic; if a kernel change
makes these fail, the kernel is wrong — regenerating the vectors to
match is never the fix.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.ntt.fusion import FusedNtt
from repro.ntt.tables import get_twiddle_table
from repro.rns.basis_convert import mod_down, mod_up
from repro.rns.context import RnsContext
from repro.rns.poly import Domain, RnsPolynomial

GOLDEN_DIR = Path(__file__).resolve().parent
BACKENDS = kernels.available_backends()


def _load(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text())


NTT_DOC = _load("ntt.json")
BARRETT_DOC = _load("barrett.json")
BASIS_DOC = _load("basis_convert.json")


def _require_capability(backend_name: str, *moduli: int):
    """Skip when the backend's exact range does not cover the case.

    A vector wider than a backend's ``max_modulus_bits`` is skipped on
    that backend rather than asserted against arithmetic it refuses by
    design.
    """
    widest = max(int(q).bit_length() for q in moduli)
    cap = kernels.resolve(backend_name).max_modulus_bits
    if widest > cap:
        pytest.skip(f"{backend_name} caps at {cap}-bit moduli, case needs "
                    f"{widest}")


def test_every_golden_case_has_a_capable_backend():
    """No vector may silently degrade into all-skips."""
    caps = [kernels.resolve(n).max_modulus_bits for n in BACKENDS]
    for doc in (NTT_DOC, BARRETT_DOC):
        for case in doc["cases"]:
            assert int(case["q"]).bit_length() <= max(caps)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize(
    "case", NTT_DOC["cases"],
    ids=[f"q{c['q']}-n{c['n']}" for c in NTT_DOC["cases"]],
)
def test_ntt_matches_golden(backend_name, case):
    q, n = case["q"], case["n"]
    _require_capability(backend_name, q)
    # The vectors froze the psi the twiddle table chose at generation
    # time; if table selection ever changes, regenerate deliberately.
    assert int(get_twiddle_table(q, n).psi) == case["psi"]
    backend = kernels.resolve(backend_name)
    data = np.array([case["input"]], dtype=np.uint64)
    expected = np.array([case["expected"]], dtype=np.uint64)
    got = backend.ntt(data, (q,))
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(backend.intt(got, (q,)), data)


@pytest.mark.parametrize("radix_log2", (2, 3))
@pytest.mark.parametrize(
    "case", NTT_DOC["cases"],
    ids=[f"q{c['q']}-n{c['n']}" for c in NTT_DOC["cases"]],
)
def test_fused_ntt_matches_golden(radix_log2, case):
    """The fused radix-2^k kernel reproduces the frozen transform."""
    fused = FusedNtt(case["q"], case["n"], radix_log2)
    data = np.array(case["input"], dtype=np.uint64)
    expected = np.array(case["expected"], dtype=np.uint64)
    np.testing.assert_array_equal(fused.forward(data), expected)
    np.testing.assert_array_equal(fused.inverse(expected), data)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize(
    "case", BARRETT_DOC["cases"],
    ids=[f"q{c['q']}" for c in BARRETT_DOC["cases"]],
)
def test_barrett_matches_golden(backend_name, case):
    _require_capability(backend_name, case["q"])
    backend = kernels.resolve(backend_name)
    x = np.array([case["input"]], dtype=np.uint64)
    expected = np.array([case["expected"]], dtype=np.uint64)
    np.testing.assert_array_equal(
        backend.barrett_reduce(x, (case["q"],)), expected
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_mod_up_matches_golden(backend_name):
    base = RnsContext(BASIS_DOC["base"])
    aux = RnsContext(BASIS_DOC["aux"])
    poly = RnsPolynomial(
        np.array(BASIS_DOC["mod_up"]["input"], dtype=np.uint64),
        base,
        Domain.COEFFICIENT,
    )
    with kernels.use_backend(backend_name):
        got = mod_up(poly, aux)
    np.testing.assert_array_equal(
        got.data, np.array(BASIS_DOC["mod_up"]["expected"], dtype=np.uint64)
    )
    assert got.context.moduli == base.moduli + aux.moduli


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_mod_down_matches_golden(backend_name):
    base = RnsContext(BASIS_DOC["base"])
    aux = RnsContext(BASIS_DOC["aux"])
    full = base.extend(aux.moduli)
    poly = RnsPolynomial(
        np.array(BASIS_DOC["mod_down"]["input"], dtype=np.uint64),
        full,
        Domain.COEFFICIENT,
    )
    with kernels.use_backend(backend_name):
        got = mod_down(poly, base, aux)
    np.testing.assert_array_equal(
        got.data,
        np.array(BASIS_DOC["mod_down"]["expected"], dtype=np.uint64),
    )
    assert got.context.moduli == base.moduli


def test_regeneration_is_deterministic(tmp_path, monkeypatch):
    """Running the regen script reproduces the checked-in files."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", GOLDEN_DIR / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "GOLDEN_DIR", tmp_path)
    module.main()
    for name in ("ntt.json", "barrett.json", "basis_convert.json"):
        assert json.loads((tmp_path / name).read_text()) == _load(name)
