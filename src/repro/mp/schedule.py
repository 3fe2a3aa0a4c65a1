"""Collective schedules as data: three builders and two interpreters.

Every combining collective in the repository — the host allreduce and
barrier (:mod:`repro.mp.collectives`), the topology-aware barriers
(:mod:`repro.topo.algorithms`) and the NIC-offloaded barrier
(:mod:`repro.nic.engine`) — is one of three communication patterns.  Each
builder returns the static step list of one *virtual* rank ``vrank`` out
of ``n``:

* :func:`recursive_doubling` — the paper's binary exchange (Figure 2)
  with the standard fold for non-powers-of-two: the ``rem = n - pof2``
  highest ranks fold into a partner, the power-of-two core exchanges
  with ``vrank XOR 2**k``, and the partners copy the totals back out;
* :func:`dissemination` — round ``r`` sends to ``vrank + 2**r`` and
  receives from ``vrank - 2**r``;
* :func:`tree` — a radix-``k`` combining tree in heap order (root 0):
  receive from each child, send to the parent, receive from the parent,
  send to each child.

A step is a tuple ``(op, peer, round)``.  ``op`` is :data:`SEND`,
:data:`RECV_ADD`, :data:`RECV_SET` or :data:`SEND_RECV_ADD`; the last
sends and then receives, and its ``peer`` is a ``(send_to, recv_from)``
pair.  Rounds are absolute: a rank that sits a round out (a folded
rank during the core exchange) still counts it, so every transport can
key a message on its round.

:func:`run` executes a step list over caller-supplied ``send`` and
``recv`` callbacks, which map virtual ranks to real ones and rounds to
tags or frame labels.  A payload of ``None`` makes the run a barrier;
any other payload makes it an elementwise sum through
:func:`~repro.mp.vec.vec_add`.

:func:`fold` prices a schedule instead: the cost estimates of
:mod:`repro.armci.barrier` sum a ``hop(distance)`` over rank 0's peer
distances (:func:`peer_distances`) or a tree's depth (:func:`tree_path`).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, List, Tuple

from .vec import vec_add

__all__ = [
    "SEND",
    "RECV_ADD",
    "RECV_SET",
    "SEND_RECV_ADD",
    "recursive_doubling",
    "dissemination",
    "tree",
    "run",
    "peer_distances",
    "tree_path",
    "fold",
]

SEND = "send"
RECV_ADD = "recv_add"
RECV_SET = "recv_set"
SEND_RECV_ADD = "send_recv_add"

Step = Tuple[str, Any, int]


def recursive_doubling(vrank: int, n: int) -> List[Step]:
    """Binary-exchange sum: fold-in, XOR core, fold-out.

    The core takes ``log2(pof2)`` rounds; a non-power-of-two ``n`` adds
    the fold-in round before it and the fold-out round after it.
    """
    core = n.bit_length() - 1
    pof2 = 1 << core
    rem = n - pof2
    fold = 1 if rem else 0
    if vrank >= pof2:
        partner = vrank - pof2
        return [(SEND, partner, 0), (RECV_SET, partner, fold + core)]
    steps: List[Step] = []
    if vrank < rem:
        steps.append((RECV_ADD, vrank + pof2, 0))
    for k in range(core):
        partner = vrank ^ (1 << k)
        steps.append((SEND_RECV_ADD, (partner, partner), fold + k))
    if vrank < rem:
        steps.append((SEND, vrank + pof2, fold + core))
    return steps


def dissemination(vrank: int, n: int) -> List[Step]:
    """``ceil(log2 n)`` rounds; round ``r`` sends ``+2**r``, receives ``-2**r``.

    As a sum it counts every contribution exactly once only for
    power-of-two ``n``; as a barrier it is exact for every ``n``.
    """
    return [
        (SEND_RECV_ADD, ((vrank + (1 << r)) % n, (vrank - (1 << r)) % n), r)
        for r in range((n - 1).bit_length())
    ]


def tree(vrank: int, n: int, radix: int) -> List[Step]:
    """Radix-``radix`` combining tree rooted at 0: up in round 0, down in 1."""
    first = radix * vrank + 1
    children = range(first, min(first + radix, n))
    steps: List[Step] = [(RECV_ADD, child, 0) for child in children]
    if vrank:
        parent = (vrank - 1) // radix
        steps += [(SEND, parent, 0), (RECV_SET, parent, 1)]
    steps += [(SEND, child, 1) for child in children]
    return steps


def run(steps: List[Step], acc: Any, send: Callable, recv: Callable):
    """Sub-generator: walk ``steps``; return the final accumulator.

    ``send(peer, round, payload)`` and ``recv(peer, round)`` return
    sub-generators; ``recv``'s result is the received message, whose
    ``payload`` is summed or kept.  With ``acc=None`` every send carries
    ``None`` and received payloads are dropped (a barrier).
    """
    for op, peer, rnd in steps:
        if op == SEND:
            yield from send(peer, rnd, acc)
            continue
        if op == SEND_RECV_ADD:
            dst, peer = peer
            yield from send(dst, rnd, acc)
        msg = yield from recv(peer, rnd)
        if acc is not None:
            acc = msg.payload if op == RECV_SET else vec_add(acc, msg.payload)
    return acc


def peer_distances(steps: List[Step]) -> List[int]:
    """Rank 0's distance to each step's peer (a send-receive's send peer);
    ``2**r`` in round ``r`` of :func:`dissemination`."""
    return [peer[0] if op == SEND_RECV_ADD else peer for op, peer, _ in steps]


def tree_path(n: int, radix: int) -> List[int]:
    """Edge distances down the leftmost root-to-leaf path of :func:`tree`.

    Heap order fills levels left to right, so this path is a deepest one;
    its tier-``t`` edge spans exactly ``radix**t`` ranks.
    """
    path: List[int] = []
    vrank = 0
    while True:
        steps = tree(vrank, n, radix)
        if not steps or steps[0][0] != RECV_ADD:
            return path
        child = steps[0][1]
        path.append(child - vrank)
        vrank = child


def fold(hop: Callable[[int], float], distances: Iterable[int]) -> float:
    """Analytic interpreter: one stage's cost, ``hop(d)`` summed per round.

    The sum is :func:`math.fsum`, so ``k`` equal rounds cost exactly the
    correctly rounded ``k * hop(d)``.
    """
    return math.fsum(map(hop, distances))
