"""Topology-aware combined fence+barrier algorithms.

Three first-class alternatives to the paper's flat binary exchange
(:func:`repro.armci.barrier._exchange`), all with the same three-stage
semantics — distribute ``op_init[]`` totals, wait for local ``op_done``
completion, synchronize — and the same fence-inclusion guarantee:

* ``kary`` — a k-ary combining tree (radix ``params.tree_radix``).
  Stage 1 reduces the ``op_init`` vectors up the tree and broadcasts the
  totals back down; stage 3 gathers and releases over the same tree.
  With radix = procs_per_node and block placement, each leaf group is
  one SMP node, so the widest tier of the tree stays on intra-node
  links.

* ``dissemination`` — stage 1 runs a dissemination *sum* (each round
  ``d`` sends the partial vector to ``rank + d`` and adds the one from
  ``rank - d``; for power-of-two N every contribution is counted exactly
  once).  Non-power-of-two N falls back to the binary exchange with the
  standard fold.  Stage 3 is the dissemination barrier.  Included as
  the topology-*oblivious* log-depth baseline: every round crosses
  node boundaries, so it prices what hierarchy-awareness buys.

* ``twolevel`` — the node-leader algorithm of the 1024-core barrier
  literature: non-leaders ship their ``op_init`` vectors to the node
  leader over intra-node (shared-memory queue) messages, the leaders
  alone run the inter-node exchange — one vector per *node* on the wire
  instead of one per rank, which removes the per-NIC serialization
  convoy that saturates the flat exchange at scale — and leaders
  release their locals after a leaders-only dissemination barrier.
  Stage 2 stays per-rank: every rank polls its own server's
  ``op_done`` counter.

All three run over the :class:`~repro.mp.comm.Comm` point-to-point layer
(so link faults and the reliable delivery layer apply unchanged) and are
only entered crash-free: under an active membership service
``armci_barrier`` routes every host algorithm to the resilient exchange,
exactly as it does for ``linear``.  SPMD call order is assumed; a
per-Armci sequence number (``_topo_barrier_seq``) keeps successive
barriers' messages from cross-matching, with distinct round offsets per
stage inside one barrier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from ..mp import collectives
from ..mp.vec import as_vec, vec_add

if TYPE_CHECKING:  # pragma: no cover
    from ..armci.api import Armci

__all__ = ["kary_sync", "dissemination_sync", "twolevel_sync"]

_TAG_TWOLEVEL = 8 << 24
_TAG_KARY = 9 << 24
_TAG_DISSEM = 10 << 24

# Round-offset map within one barrier's 64-round tag window (stride 64,
# see repro.mp.collectives._tag): gather, then up to 31 allreduce rounds,
# scatter/signal, then up to 29 stage-3 rounds, release.
_R_GATHER = 0
_R_ALLREDUCE = 1
_R_SCATTER = 32
_R_SIGNAL = 33
_R_STAGE3 = 34
_R_RELEASE = 63


def _tag(base: int, seq: int, round_no: int) -> int:
    return base + (seq % 4096) * 64 + round_no


def _bump_seq(armci: "Armci") -> int:
    seq = armci._topo_barrier_seq
    armci._topo_barrier_seq = seq + 1
    return seq


def _stage2_wait(armci: "Armci", target: int):
    """Per-rank stage 2: poll the local server's op_done counter.

    Identical contract to the flat exchange's stage 2, including the
    watchdog degrade to the conservative AllFence path.
    """
    from ..armci.barrier import _stage2_wait_with_watchdog

    region, addr = armci.server.op_done_cell(armci.rank)
    watchdog_us = armci.params.watchdog_timeout_us
    if watchdog_us > 0.0:
        done = yield from _stage2_wait_with_watchdog(
            armci, region, addr, target, watchdog_us
        )
        if not done:
            from ..armci import fence as fence_mod

            armci.stats["barrier_fallbacks"] = (
                armci.stats.get("barrier_fallbacks", 0) + 1
            )
            yield from fence_mod.allfence_linear(armci)
    else:
        yield from region.wait_until(
            addr, lambda v: v >= target, poll_detect_us=armci.params.poll_detect_us
        )


# -- generic subset collectives ----------------------------------------------------


def _allreduce_over(
    comm,
    values: Sequence,
    ranks: Sequence[int],
    base: int,
    seq: int,
    round0: int,
):
    """Recursive-doubling elementwise sum over the ``ranks`` subset.

    Mirrors :func:`repro.mp.collectives.allreduce_sum` (power-of-two
    core plus fold for the remainder), but over an arbitrary agreed rank
    list — the leaders of the two-level barrier.  Only members call it.
    """
    n = len(ranks)
    acc = as_vec(values)
    if n == 1:
        return acc
    vrank = ranks.index(comm.rank)
    nbytes = 8 * len(acc)

    pof2 = 1
    while pof2 * 2 <= n:
        pof2 *= 2
    rem = n - pof2

    round_no = round0
    in_core = True
    if rem:
        if vrank >= pof2:
            yield from comm.send(
                ranks[vrank - pof2], acc,
                tag=_tag(base, seq, round_no), payload_bytes=nbytes,
            )
            in_core = False
        elif vrank < rem:
            msg = yield from comm.recv(
                source=ranks[vrank + pof2], tag=_tag(base, seq, round_no)
            )
            acc = vec_add(acc, msg.payload)
        round_no += 1

    x = 1
    while x < pof2:
        if in_core:
            partner = ranks[vrank ^ x]
            msg = yield from comm.sendrecv(
                partner, acc, tag=_tag(base, seq, round_no), payload_bytes=nbytes
            )
            acc = vec_add(acc, msg.payload)
        x *= 2
        round_no += 1

    if rem:
        tag = _tag(base, seq, round_no)
        if vrank < rem:
            yield from comm.send(
                ranks[vrank + pof2], acc, tag=tag, payload_bytes=nbytes
            )
        elif vrank >= pof2:
            msg = yield from comm.recv(source=ranks[vrank - pof2], tag=tag)
            acc = msg.payload
    return acc


def _barrier_over(comm, ranks: Sequence[int], base: int, seq: int, round0: int):
    """Dissemination barrier over the ``ranks`` subset."""
    n = len(ranks)
    if n <= 1:
        return
    vrank = ranks.index(comm.rank)
    distance = 1
    round_no = round0
    while distance < n:
        tag = _tag(base, seq, round_no)
        yield from comm.sendrecv(
            ranks[(vrank + distance) % n],
            None,
            source=ranks[(vrank - distance) % n],
            tag=tag,
            payload_bytes=0,
        )
        distance *= 2
        round_no += 1


# -- k-ary combining tree ----------------------------------------------------------


def _kary_children(rank: int, radix: int, nprocs: int) -> List[int]:
    first = radix * rank + 1
    return list(range(first, min(first + radix, nprocs)))


def kary_sync(armci: "Armci"):
    """Three-stage barrier over a k-ary combining tree rooted at rank 0."""
    comm = armci.comm
    rank = armci.rank
    n = armci.nprocs
    radix = armci.params.tree_radix
    seq = _bump_seq(armci)
    monitor = armci._monitor
    if monitor is not None:
        # All-to-all dependence holds (it is a full barrier), so joining
        # every enter at each exit is sound for the happens-before engine.
        monitor.emit("coll_enter", coll="kary", epoch=seq)
    children = _kary_children(rank, radix, n)
    parent = (rank - 1) // radix
    nbytes = 8 * n

    # Stage 1a: reduce op_init vectors up the tree.
    acc = as_vec(armci.op_init)
    for child in children:
        msg = yield from comm.recv(
            source=child, tag=_tag(_TAG_KARY, seq, _R_GATHER)
        )
        acc = vec_add(acc, msg.payload)
    if rank != 0:
        yield from comm.send(
            parent, acc, tag=_tag(_TAG_KARY, seq, _R_GATHER), payload_bytes=nbytes
        )
        # Stage 1b: totals come back down.
        msg = yield from comm.recv(
            source=parent, tag=_tag(_TAG_KARY, seq, _R_ALLREDUCE)
        )
        totals = msg.payload
    else:
        totals = acc
    for child in children:
        yield from comm.send(
            child, totals, tag=_tag(_TAG_KARY, seq, _R_ALLREDUCE), payload_bytes=nbytes
        )

    # Stage 2: local completion.
    yield from _stage2_wait(armci, int(totals[rank]))

    # Stage 3: zero-byte gather + release over the same tree.
    for child in children:
        yield from comm.recv(source=child, tag=_tag(_TAG_KARY, seq, _R_STAGE3))
    if rank != 0:
        yield from comm.send(
            parent, None, tag=_tag(_TAG_KARY, seq, _R_STAGE3), payload_bytes=0
        )
        yield from comm.recv(source=parent, tag=_tag(_TAG_KARY, seq, _R_RELEASE))
    for child in children:
        yield from comm.send(
            child, None, tag=_tag(_TAG_KARY, seq, _R_RELEASE), payload_bytes=0
        )
    if monitor is not None:
        monitor.emit("coll_exit", coll="kary", epoch=seq)


# -- dissemination ----------------------------------------------------------------


def dissemination_sync(armci: "Armci"):
    """Three-stage barrier with a dissemination-sum stage 1.

    For power-of-two N the dissemination pattern computes the exact
    elementwise sum in ``log2 N`` rounds with no separate broadcast; any
    other N falls back to the binary exchange with the standard fold
    (same asymptotics, two extra latencies).
    """
    comm = armci.comm
    rank = armci.rank
    n = armci.nprocs
    seq = _bump_seq(armci)
    monitor = armci._monitor
    if monitor is not None:
        monitor.emit("coll_enter", coll="dissemination", epoch=seq)
    if n & (n - 1):
        totals = yield from collectives.allreduce_sum(comm, armci.op_init)
    else:
        acc = as_vec(armci.op_init)
        nbytes = 8 * n
        distance = 1
        round_no = _R_ALLREDUCE
        while distance < n:
            msg = yield from comm.sendrecv(
                (rank + distance) % n,
                acc,
                source=(rank - distance) % n,
                tag=_tag(_TAG_DISSEM, seq, round_no),
                payload_bytes=nbytes,
            )
            acc = vec_add(acc, msg.payload)
            distance *= 2
            round_no += 1
        totals = acc

    yield from _stage2_wait(armci, int(totals[rank]))

    yield from collectives.barrier(comm)
    if monitor is not None:
        monitor.emit("coll_exit", coll="dissemination", epoch=seq)


# -- two-level leader-based --------------------------------------------------------


def twolevel_sync(armci: "Armci"):
    """Node-leader gathers locally, leaders exchange, leaders release.

    Stage 1: non-leaders ship ``op_init`` to their node leader over the
    intra-node queue; leaders sum and run a recursive-doubling exchange
    among themselves (one vector per node on the wire), then hand each
    local rank its own slot of the totals.  Stage 2 is per-rank.  Stage
    3: locals signal the leader, leaders run a dissemination barrier,
    leaders release locals.
    """
    comm = armci.comm
    topology = armci.topology
    rank = armci.rank
    seq = _bump_seq(armci)
    monitor = armci._monitor
    if monitor is not None:
        monitor.emit("coll_enter", coll="twolevel", epoch=seq)
    locals_ = topology.ranks_on(armci.node)
    leader = locals_[0]
    nbytes = 8 * armci.nprocs

    if rank == leader:
        acc = as_vec(armci.op_init)
        for _ in range(len(locals_) - 1):
            msg = yield from comm.recv(tag=_tag(_TAG_TWOLEVEL, seq, _R_GATHER))
            acc = vec_add(acc, msg.payload)
        leaders = [topology.ranks_on(node)[0] for node in range(topology.nnodes)]
        totals = yield from _allreduce_over(
            comm, acc, leaders, _TAG_TWOLEVEL, seq, _R_ALLREDUCE
        )
        for r in locals_:
            if r != leader:
                yield from comm.send(
                    r, int(totals[r]), tag=_tag(_TAG_TWOLEVEL, seq, _R_SCATTER),
                    payload_bytes=8,
                )
        target = int(totals[rank])
    else:
        yield from comm.send(
            leader, armci.op_init, tag=_tag(_TAG_TWOLEVEL, seq, _R_GATHER),
            payload_bytes=nbytes,
        )
        msg = yield from comm.recv(
            source=leader, tag=_tag(_TAG_TWOLEVEL, seq, _R_SCATTER)
        )
        target = msg.payload

    yield from _stage2_wait(armci, target)

    if rank == leader:
        for _ in range(len(locals_) - 1):
            yield from comm.recv(tag=_tag(_TAG_TWOLEVEL, seq, _R_SIGNAL))
        leaders = [topology.ranks_on(node)[0] for node in range(topology.nnodes)]
        yield from _barrier_over(comm, leaders, _TAG_TWOLEVEL, seq, _R_STAGE3)
        for r in locals_:
            if r != leader:
                yield from comm.send(
                    r, None, tag=_tag(_TAG_TWOLEVEL, seq, _R_RELEASE),
                    payload_bytes=0,
                )
    else:
        yield from comm.send(
            leader, None, tag=_tag(_TAG_TWOLEVEL, seq, _R_SIGNAL), payload_bytes=0
        )
        yield from comm.recv(source=leader, tag=_tag(_TAG_TWOLEVEL, seq, _R_RELEASE))
    if monitor is not None:
        monitor.emit("coll_exit", coll="twolevel", epoch=seq)
