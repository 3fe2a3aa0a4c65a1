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

Each is a short composition of the :mod:`repro.mp.schedule` builders,
run over the :class:`~repro.mp.comm.Comm` point-to-point layer by
:func:`~repro.mp.collectives.run_on_comm` (so link faults and the
reliable delivery layer apply unchanged): ``kary`` runs one ``tree``
schedule twice (summing, then as a barrier); ``dissemination`` runs the
``dissemination`` sum and barrier; ``twolevel`` runs
``recursive_doubling`` and ``dissemination`` over the leaders between
its intra-node gather and release.  Stage 2 is
:func:`repro.armci.barrier._stage2_wait` for all three.  They are only
entered crash-free: under an active membership service
``armci_barrier`` routes every host algorithm to the resilient exchange,
exactly as it does for ``linear``.  SPMD call order is assumed; a
per-Armci sequence number (``_topo_barrier_seq``) keeps successive
barriers' messages from cross-matching, with distinct round offsets per
stage inside one barrier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..armci.barrier import _stage2_wait
from ..mp import collectives, schedule
from ..mp.collectives import _tag, run_on_comm
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

#: The tag round of each schedule round, in stage 1 and in stage 3.
_STAGE1_ROUNDS = range(_R_ALLREDUCE, _R_SCATTER)
_STAGE3_ROUNDS = range(_R_STAGE3, _R_RELEASE)


def _bump_seq(armci: "Armci") -> int:
    seq = armci._topo_barrier_seq
    armci._topo_barrier_seq = seq + 1
    return seq


# -- k-ary combining tree ----------------------------------------------------------


def kary_sync(armci: "Armci"):
    """Three-stage barrier over a k-ary combining tree rooted at rank 0."""
    comm = armci.comm
    rank = armci.rank
    seq = _bump_seq(armci)
    monitor = armci._monitor
    if monitor is not None:
        # All-to-all dependence holds (it is a full barrier), so joining
        # every enter at each exit is sound for the happens-before engine.
        monitor.emit("coll_enter", coll="kary", epoch=seq)
    steps = schedule.tree(rank, armci.nprocs, armci.params.tree_radix)

    # Stage 1: reduce op_init vectors up the tree, totals come back down.
    totals = yield from run_on_comm(
        comm, steps, as_vec(armci.op_init), _TAG_KARY, seq,
        rounds=(_R_GATHER, _R_ALLREDUCE),
    )
    # Stage 2: local completion.
    yield from _stage2_wait(armci, int(totals[rank]))
    # Stage 3: zero-byte gather + release over the same tree.
    yield from run_on_comm(
        comm, steps, None, _TAG_KARY, seq, rounds=(_R_STAGE3, _R_RELEASE)
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
        totals = yield from run_on_comm(
            comm, schedule.dissemination(rank, n), as_vec(armci.op_init),
            _TAG_DISSEM, seq, rounds=_STAGE1_ROUNDS,
        )

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
        totals = yield from run_on_comm(
            comm, schedule.recursive_doubling(armci.node, len(leaders)), acc,
            _TAG_TWOLEVEL, seq, rounds=_STAGE1_ROUNDS, ranks=leaders,
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
        yield from run_on_comm(
            comm, schedule.dissemination(armci.node, len(leaders)), None,
            _TAG_TWOLEVEL, seq, rounds=_STAGE3_ROUNDS, ranks=leaders,
        )
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
