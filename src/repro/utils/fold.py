"""Float sums in one fixed order, on every Python version.

From Python 3.12 on, ``sum()`` over floats is compensated (Neumaier
summation): ``sum([0.1, 0.2, 0.3])`` is ``0.6`` there but
``0.6000000000000001`` on 3.10 and 3.11. Simulated metrics are pinned
to the exact float, so every site whose sum is pinned folds with
:func:`left_fold_sum` instead, which is the 3.10/3.11 ``sum()`` on
every interpreter.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable


def left_fold_sum(values: Iterable[float]) -> float:
    """``((0 + v0) + v1) + ...`` in iteration order.

    Starts from the int ``0`` like ``sum()``, so an empty input gives
    ``0`` and the first float addend is returned unchanged.
    """
    return reduce(add, values, 0)
