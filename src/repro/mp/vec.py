"""Elementwise vector sums for the combining collectives.

Every ``op_init[]`` combine — host (:mod:`repro.mp.collectives`),
topology-aware (:mod:`repro.topo.algorithms`) and NIC-offloaded
(:mod:`repro.nic.engine`) — adds 8·N-byte vectors once per message.  This
module is the one place that sum is written.  The contract:

* :func:`as_vec` converts to a numpy array once, at collective entry; the
  dtype is inferred (``int64`` for ``op_init`` counters, ``float64`` for
  GA dot-product partials).  Elementwise addition in either dtype gives
  the same values as Python arithmetic, as long as counters stay below
  2**63.
* :func:`vec_add` returns a *new* array and never adds in place: a sent
  payload is shared by reference with its receiver (and with duplicated
  or retransmitted copies of the frame), so an array is never mutated
  once it may have been handed to the transport.
* :func:`to_list` converts back to a list of Python scalars once, at the
  API boundary.
"""

from __future__ import annotations

from typing import Any, List, Sequence

import numpy as np

__all__ = ["as_vec", "vec_add", "to_list"]


def as_vec(values: Sequence[Any]) -> np.ndarray:
    """``values`` as a numpy vector (copied from a list; an array passes through)."""
    return np.asarray(values)


def vec_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``a + b`` as a new array; neither operand is modified.

    ``b`` may also be a plain sequence, e.g. the ``op_init`` list a
    two-level non-leader ships to its node leader.
    """
    return np.add(a, b)


def to_list(v: np.ndarray) -> List[Any]:
    """``v`` as a list of Python ``int``/``float`` (never numpy scalars)."""
    return v.tolist()
