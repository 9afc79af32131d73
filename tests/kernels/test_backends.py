"""Backend registry, selection precedence and scoping semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.errors import KernelError, ReproError


@pytest.fixture()
def clean_selection():
    """Snapshot and restore the process-wide backend selection."""
    previous = kernels._active
    yield
    kernels._active = previous


def test_registry_contents():
    assert kernels.available_backends() == ("numpy", "reference")
    assert kernels.DEFAULT_BACKEND == "numpy"
    for name in kernels.available_backends():
        backend = kernels.resolve(name)
        assert isinstance(backend, kernels.KernelBackend)
        assert backend.name == name
        # The registry hands out singletons, not fresh instances.
        assert kernels.resolve(name) is backend


def test_backend_capability_attributes():
    """Every backend declares the modulus width its arithmetic is exact
    for: 31 bits, the widest modulus an RnsContext admits."""
    assert kernels.resolve("reference").max_modulus_bits == 31
    assert kernels.resolve("numpy").max_modulus_bits == 31


def test_wide_moduli_rejected_by_narrow_backends():
    data = np.zeros((1, 8), dtype=np.uint64)
    wide = ((1 << 61) + 1,)  # width 62: beyond every backend's 31 bits
    for name in ("reference", "numpy"):
        # Twice: the basis lookup is cached, its refusal must not be.
        for _ in range(2):
            with pytest.raises(KernelError, match="moduli up to 31 bits"):
                kernels.resolve(name).ntt(data, wide)


def _basis_spellings():
    """One basis as a list, a tuple of ints and a tuple of np.uint64."""
    from repro.utils.primes import find_ntt_primes

    moduli = tuple(find_ntt_primes(30, 2, 16))
    return moduli, (
        list(moduli), moduli, tuple(np.uint64(q) for q in moduli)
    )


@pytest.mark.parametrize("name", kernels.available_backends())
def test_check_moduli_returns_python_ints(name):
    moduli, spellings = _basis_spellings()
    for spelling in spellings:
        basis = kernels.resolve(name).check_moduli(spelling)
        assert type(basis) is tuple and basis == moduli
        assert all(type(q) is int for q in basis)


@pytest.mark.parametrize("name", kernels.available_backends())
def test_basis_spelling_does_not_change_results(name):
    """Every op gives the same output whichever way the basis is spelled."""
    backend = kernels.resolve(name)
    moduli, spellings = _basis_spellings()
    rng = np.random.default_rng(7)
    a, b = (
        rng.integers(0, min(moduli), (2, len(moduli), 16), dtype=np.uint64)
        for _ in range(2)
    )
    table = rng.integers(0, min(moduli), (2, len(moduli)), dtype=np.uint64)

    def every_op(basis):
        return [
            backend.ntt(a, basis),
            backend.intt(a, basis),
            backend.mod_add(a, b, basis),
            backend.mod_sub(a, b, basis),
            backend.mod_neg(a, basis),
            backend.mod_mul(a, b, basis),
            backend.mod_scalar_mul(a[0], [3, 1 << 40], basis),
            backend.barrett_reduce(a * b, basis),
            backend.lift(a[:, 0, :], basis),
            backend.basis_convert(a[0], table, basis),
        ]

    want = every_op(moduli)
    for spelling in spellings:
        for got, expected in zip(every_op(spelling), want):
            np.testing.assert_array_equal(got, expected)


def test_resolve_unknown_name_raises_kernel_error():
    with pytest.raises(KernelError, match="unknown kernel backend"):
        kernels.resolve("simd512")
    # KernelError sits in the repo exception tree and is a ValueError.
    assert issubclass(KernelError, ReproError)
    assert issubclass(KernelError, ValueError)


def test_resolve_passthrough_and_none(clean_selection):
    backend = kernels.resolve("reference")
    assert kernels.resolve(backend) is backend
    with kernels.use_backend("reference"):
        assert kernels.resolve(None) is backend


def test_env_var_consulted_on_first_use(clean_selection, monkeypatch):
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "reference")
    kernels._active = None  # simulate a fresh process
    assert kernels.get_backend().name == "reference"
    # Read once: later env changes do not affect the selection.
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "numpy")
    assert kernels.get_backend().name == "reference"


def test_env_var_invalid_name_raises(clean_selection, monkeypatch):
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "fpga")
    kernels.reset_selection()
    with pytest.raises(KernelError, match="names no kernel backend"):
        kernels.get_backend()


def test_env_var_invalid_name_lists_valid_backends(clean_selection, monkeypatch):
    """The first-use error names every registered backend, not a KeyError."""
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "fpga")
    kernels.reset_selection()
    with pytest.raises(KernelError) as excinfo:
        kernels.get_backend()
    message = str(excinfo.value)
    for name in kernels.available_backends():
        assert name in message


def test_reset_selection_rereads_environment(clean_selection, monkeypatch):
    """reset_selection() drops the read-once cache (public test hook)."""
    monkeypatch.delenv(kernels.BACKEND_ENV_VAR, raising=False)
    kernels.reset_selection()
    assert kernels.get_backend().name == kernels.DEFAULT_BACKEND
    # A later env change is invisible until the cache is reset...
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "reference")
    assert kernels.get_backend().name == kernels.DEFAULT_BACKEND
    # ...and picked up right after.
    kernels.reset_selection()
    assert kernels.get_backend().name == "reference"


def test_default_backend_is_numpy(clean_selection, monkeypatch):
    monkeypatch.delenv(kernels.BACKEND_ENV_VAR, raising=False)
    kernels.reset_selection()
    assert kernels.get_backend().name == "numpy"


def test_use_backend_overrides_env(clean_selection, monkeypatch):
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "numpy")
    kernels._active = None
    with kernels.use_backend("reference"):
        assert kernels.get_backend().name == "reference"


def test_use_backend_scoping(clean_selection):
    with kernels.use_backend("numpy"):
        with kernels.use_backend("reference") as active:
            assert active.name == "reference"
            assert kernels.get_backend().name == "reference"
            # Nested scopes restore in LIFO order.
            with kernels.use_backend("numpy"):
                assert kernels.get_backend().name == "numpy"
            assert kernels.get_backend().name == "reference"
        assert kernels.get_backend().name == "numpy"


def test_use_backend_restores_on_exception(clean_selection):
    with kernels.use_backend("numpy"):
        with pytest.raises(RuntimeError):
            with kernels.use_backend("reference"):
                raise RuntimeError("boom")
        assert kernels.get_backend().name == "numpy"


def test_use_backend_none_is_a_no_op(clean_selection):
    with kernels.use_backend("reference"):
        with kernels.use_backend(None) as active:
            assert active.name == "reference"
        assert kernels.get_backend().name == "reference"


def test_backend_counters_emitted():
    """Each backend op emits kernels.<name>.<group> calls/elements."""
    from repro.obs import collecting

    data = np.arange(8, dtype=np.uint64).reshape(1, 8)
    moduli = (97,)
    for name in kernels.available_backends():
        backend = kernels.resolve(name)
        with collecting() as registry:
            backend.mod_add(data, data, moduli)
            backend.ntt(data, moduli)
        snap = registry.snapshot()
        assert snap[f"kernels.{name}.elementwise.calls"] == 1
        assert snap[f"kernels.{name}.elementwise.elements"] == 8
        assert snap[f"kernels.{name}.ntt.calls"] == 1
        assert snap[f"kernels.{name}.ntt.elements"] == 8


# A second operand must match the first exactly: no backend may drop
# extra rows or broadcast a mismatched batch.
_BINARY_OPS = ("mod_add", "mod_sub", "mod_mul")
_MISMATCHED = {
    "extra_rows": ((2, 2), (3, 2)),
    "wrong_degree": ((2, 4), (2, 8)),
    "mismatched_batch": ((2, 2, 4), (3, 2, 4)),
    "matrix_vs_stack": ((2, 4), (1, 2, 4)),
    "stack_vs_matrix": ((3, 2, 4), (2, 4)),
}


@pytest.mark.parametrize("name", kernels.available_backends())
@pytest.mark.parametrize("op", _BINARY_OPS)
@pytest.mark.parametrize("case", sorted(_MISMATCHED))
def test_binary_ops_reject_mismatched_operand(name, op, case):
    a_shape, b_shape = _MISMATCHED[case]
    moduli = (97, 193)
    a = np.ones(a_shape, dtype=np.uint64)
    b = np.ones(b_shape, dtype=np.uint64)
    with pytest.raises(KernelError, match="second operand has shape"):
        getattr(kernels.resolve(name), op)(a, b, moduli)


@pytest.mark.parametrize("name", kernels.available_backends())
def test_ops_reject_limb_count_and_rank_mismatch(name):
    backend = kernels.resolve(name)
    moduli = (97, 193)
    with pytest.raises(KernelError, match="rows but basis has"):
        backend.ntt(np.ones((2, 3, 4), dtype=np.uint64), moduli)
    with pytest.raises(KernelError, match="expected an"):
        backend.mod_neg(np.ones((1, 1, 2, 4), dtype=np.uint64), moduli)
    with pytest.raises(KernelError, match="expected an"):
        backend.lift(np.ones((1, 2, 4), dtype=np.uint64), moduli)


@pytest.mark.parametrize("name", kernels.available_backends())
@pytest.mark.parametrize("count", [1, 3], ids=["too_few", "too_many"])
def test_scalar_mul_rejects_wrong_scalar_count(name, count):
    """One scalar per modulus: no backend may broadcast or drop scalars."""
    a = np.ones((2, 4), dtype=np.uint64)
    with pytest.raises(KernelError, match=f"need 2 scalars, got {count}"):
        kernels.resolve(name).mod_scalar_mul(a, [5] * count, (97, 193))


def test_backend_counters_count_whole_stacks():
    """A (B, L, N) stack is one call over all of its elements."""
    from repro.obs import collecting

    data = np.arange(24, dtype=np.uint64).reshape(3, 1, 8)
    moduli = (97,)
    for name in kernels.available_backends():
        backend = kernels.resolve(name)
        with collecting() as registry:
            backend.mod_add(data, data, moduli)
            backend.ntt(data, moduli)
            backend.lift(data[:, 0, :], moduli)
        snap = registry.snapshot()
        assert snap[f"kernels.{name}.elementwise.calls"] == 1
        assert snap[f"kernels.{name}.elementwise.elements"] == 24
        assert snap[f"kernels.{name}.ntt.calls"] == 1
        assert snap[f"kernels.{name}.ntt.elements"] == 24
        assert snap[f"kernels.{name}.lift.calls"] == 1
        assert snap[f"kernels.{name}.lift.elements"] == 24


@pytest.mark.parametrize("batch", [None, 3], ids=["matrix", "stack"])
def test_numpy_results_are_c_contiguous(batch):
    """Every numpy op returns C order, so a caller's ``reshape`` of a
    result is a view: a product written through it lands in the result."""
    from repro.utils.primes import find_ntt_primes

    moduli = tuple(find_ntt_primes(30, 4, 64))
    rng = np.random.default_rng(0)
    shape = (len(moduli), 64) if batch is None else (batch, len(moduli), 64)
    data = rng.integers(0, min(moduli), shape, dtype=np.uint64)
    backend = kernels.resolve("numpy")
    results = {
        "ntt": backend.ntt(data, moduli),
        "intt": backend.intt(data, moduli),
        "mod_add": backend.mod_add(data, data, moduli),
        "mod_sub": backend.mod_sub(data, data, moduli),
        "mod_neg": backend.mod_neg(data, moduli),
        "mod_mul": backend.mod_mul(data, data, moduli),
        "mod_scalar_mul": backend.mod_scalar_mul(data, [3] * len(moduli), moduli),
        "barrett_reduce": backend.barrett_reduce(data, moduli),
        "lift": backend.lift(data[..., 0, :], moduli),
    }
    if batch is None:
        results["basis_convert"] = backend.basis_convert(
            data, np.ones((len(moduli), 2), dtype=np.uint64), moduli[:2]
        )
    for name, out in results.items():
        assert out.flags.c_contiguous, name
