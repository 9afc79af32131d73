"""Shared strategies and oracles for the property suite.

Inputs are kept intentionally small (degree <= 64, <= 4 limbs) so each
hypothesis example runs in microseconds. The arithmetic is the same at
every size, but the ``numpy`` backend picks its NTT layout from a
call's shape (rows folded innermost once a call has at least ``n/32``
rows), so a bug in one layout shows only at shapes that take it: at
degree <= 64 nearly every call folds. :func:`layout_stacks` therefore
draws stacks at :data:`LAYOUT_DEGREE` on both sides of that rule, and
``tests/kernels/test_transform_shapes.py`` pins the workloads' own
shapes. The 31-bit pool matters: a 31-bit modulus takes the numpy
NTT's lazy bounds from ``4q``/``2q`` (forward/inverse) down to
``2q``/``q``.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from repro import kernels
from repro.serve import (
    AutoscalerPolicy,
    BatchPolicy,
    ClusterPolicy,
    HBMDegradation,
    InstanceCrash,
    PoissonArrivals,
    ResiliencePolicy,
    RetryPolicy,
    Straggler,
    TenantPopulation,
)
from repro.serve.knobs import OneOf, declared, field_type
from repro.utils.primes import find_ntt_primes

#: Largest ring degree the suite exercises. Any power-of-two degree
#: n <= MAX_DEGREE works with these pools, since 2*MAX_DEGREE | q - 1
#: implies 2n | q - 1.
MAX_DEGREE = 64
DEGREES = (16, 32, 64)

PRIME_POOL_30 = tuple(find_ntt_primes(30, 4, MAX_DEGREE))
PRIME_POOL_31 = tuple(find_ntt_primes(31, 2, MAX_DEGREE))

#: Degree of :func:`layout_stacks`. At n = 256 the numpy backend folds
#: a call's rows innermost from ``LAYOUT_FOLD_ROWS = n/32`` rows on, and
#: below that keeps rows as rows, where the stages with short runs take
#: the lane-major tail.
LAYOUT_DEGREE = 256
LAYOUT_FOLD_ROWS = LAYOUT_DEGREE // 32
LAYOUT_POOL_30 = tuple(find_ntt_primes(30, 4, LAYOUT_DEGREE))
LAYOUT_POOL_31 = tuple(find_ntt_primes(31, 1, LAYOUT_DEGREE))

#: Overflow-edge pool: primes just below 2^62. Single-word uint64
#: Barrett breaks here — products reach 124 bits — so every backend
#: (exact to 31-bit moduli) must refuse them.
PRIME_POOL_62 = tuple(find_ntt_primes(62, 2, MAX_DEGREE))

#: Every registered backend; property tests parametrize over this so a
#: newly-registered backend is covered without editing each test.
BACKENDS = kernels.available_backends()


def backends_supporting(moduli) -> tuple[str, ...]:
    """Backend names whose exact-arithmetic range covers ``moduli``."""
    widest = max(int(q).bit_length() for q in moduli)
    return tuple(
        name
        for name in BACKENDS
        if kernels.resolve(name).max_modulus_bits >= widest
    )


@st.composite
def rns_shapes(draw, max_limbs: int = 4):
    """Draw ``(moduli, degree)`` mixing 30- and 31-bit primes."""
    degree = draw(st.sampled_from(DEGREES))
    limbs = draw(st.integers(min_value=1, max_value=max_limbs))
    include_wide = draw(st.booleans())
    pool = (PRIME_POOL_31 + PRIME_POOL_30) if include_wide else PRIME_POOL_30
    return pool[:limbs], degree


@st.composite
def layout_stacks(draw):
    """Draw ``(moduli, degree, batch, seed)`` at :data:`LAYOUT_DEGREE`,
    with ``batch * len(moduli)`` rows below :data:`LAYOUT_FOLD_ROWS` or
    at least that many, in equal measure."""
    limbs = draw(st.integers(min_value=1, max_value=4))
    include_wide = draw(st.booleans())
    pool = (
        (LAYOUT_POOL_31 + LAYOUT_POOL_30) if include_wide else LAYOUT_POOL_30
    )
    if draw(st.booleans()):
        least = -(-LAYOUT_FOLD_ROWS // limbs)
        batch = draw(st.integers(min_value=least, max_value=least + 2))
    else:
        most = (LAYOUT_FOLD_ROWS - 1) // limbs
        batch = draw(st.integers(min_value=1, max_value=most))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return pool[:limbs], LAYOUT_DEGREE, batch, seed


@st.composite
def residue_matrices(draw, max_limbs: int = 4):
    """Draw ``(data, moduli)`` with ``data`` a reduced (L, N) matrix."""
    moduli, degree = draw(rns_shapes(max_limbs=max_limbs))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    data = np.stack(
        [rng.integers(0, q, degree, dtype=np.uint64) for q in moduli]
    )
    return data, moduli


@st.composite
def wide_residue_matrices(draw, max_limbs: int = 2):
    """Draw ``(data, moduli)`` over the 62-bit overflow-edge pool."""
    degree = draw(st.sampled_from(DEGREES[:2]))  # keep big-int oracles fast
    limbs = draw(st.integers(min_value=1, max_value=max_limbs))
    moduli = PRIME_POOL_62[:limbs]
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    data = np.stack(
        [rng.integers(0, q, degree, dtype=np.uint64) for q in moduli]
    )
    return data, moduli


def random_matrix(moduli, degree: int, seed: int) -> np.ndarray:
    """Fixed-seed reduced (L, N) matrix for the given basis."""
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.integers(0, q, degree, dtype=np.uint64) for q in moduli]
    )


def negacyclic_convolution(a, b, q: int) -> list[int]:
    """O(n^2) big-int negacyclic product — the NTT-free oracle.

    Computes ``a * b mod (x^n + 1, q)`` with Python integers only, so
    it shares no code (and no bugs) with the kernels under test.
    """
    n = len(a)
    out = [0] * n
    for i in range(n):
        ai = int(a[i])
        for j in range(n):
            k = i + j
            term = ai * int(b[j])
            if k >= n:
                out[k - n] = (out[k - n] - term) % q
            else:
                out[k] = (out[k] + term) % q
    return out


#: The ten serving classes with scalar knobs, each with the least
#: arguments it needs to build; every other field keeps its default.
KNOB_CLASSES = {
    PoissonArrivals: {"rate": 1.0, "count": 1},
    BatchPolicy: {},
    AutoscalerPolicy: {"max_instances": 1},
    ClusterPolicy: {},
    InstanceCrash: {"instance": 0, "at_seconds": 0.0},
    Straggler: {
        "instance": 0, "start_seconds": 0.0, "duration_seconds": 1.0,
        "slowdown": 1.0,
    },
    HBMDegradation: {
        "instance": 0, "start_seconds": 0.0, "duration_seconds": 1.0,
        "factor": 1.0,
    },
    RetryPolicy: {},
    ResiliencePolicy: {},
    TenantPopulation: {},
}


def knob_probes(knob) -> list:
    """Probe values for a knob's declaration: each finite or infinite bound
    of its range and the floats next to it, 0, -1, NaN and both
    infinities, None where the range takes None, and each choice of a
    named knob."""
    accepts = knob.accepts
    probes = [0.0, -1.0, math.nan, math.inf, -math.inf]
    if isinstance(accepts, OneOf):
        probes += accepts.choices
    elif accepts is not None:
        for bound in (accepts.lo, accepts.hi):
            probes += [
                float(bound),
                math.nextafter(bound, -math.inf),
                math.nextafter(bound, math.inf),
            ]
        if accepts.optional:
            probes.append(None)
    unique = {}
    for p in probes:
        unique.setdefault(repr(p), p)
    return list(unique.values())


def declaration(cls, name):
    """The field and knob declaration of ``cls.name``."""
    return next((f, k) for f, k in declared(cls) if f.name == name)


def boundary_values(cls, name) -> list:
    """The probes (:func:`knob_probes`) that ``cls.name`` accepts, as
    values of the field's type: an int field keeps its integral ones."""
    f, knob = declaration(cls, name)
    accepted = [
        p for p in knob_probes(knob)
        if knob.accepts is None or knob.accepts.accepts(p)
    ]
    if field_type(f) is not int:
        return accepted
    return [
        p if p is None else int(p) for p in accepted
        if p is None or (math.isfinite(p) and p.is_integer())
    ]


def knob_values(cls, name) -> st.SearchStrategy:
    """Values the declaration of ``cls.name`` accepts: drawn from its
    range or choices, or one of its :func:`boundary_values`."""
    f, knob = declaration(cls, name)
    accepts = knob.accepts
    if isinstance(accepts, OneOf):
        inside = st.sampled_from(accepts.choices)
    elif field_type(f) is int:
        if accepts is None:
            inside = st.integers()
        else:
            inside = st.integers(min_value=(
                math.floor(accepts.lo) + 1 if accepts.lo_open
                else math.ceil(accepts.lo)
            ))
    else:
        bounded = accepts.hi != math.inf
        inside = st.floats(
            min_value=accepts.lo,
            max_value=accepts.hi if bounded else None,
            exclude_min=accepts.lo_open,
            exclude_max=accepts.hi_open and bounded,
            allow_nan=False,
            allow_infinity=not (bounded or accepts.hi_open),
        )
    if getattr(accepts, "optional", False):
        inside = inside | st.none()
    return inside | st.sampled_from(boundary_values(cls, name))
