"""Collective operations built from point-to-point messages.

The paper's new ``ARMCI_Barrier()`` leans on two collectives:

* a **binary-exchange elementwise sum** of the ``op_init[]`` arrays
  (Figure 2 of the paper — a recursive-doubling allreduce); and
* a **binary-exchange barrier** (the ``MPI_Barrier`` pattern of §3.1.2),
  realized here as a dissemination barrier, which has the identical
  ``ceil(log2 N)`` one-latency phases and also handles non-powers-of-two.

Both, and their crash-resilient survivor variants, run the step lists of
:mod:`repro.mp.schedule` through :func:`run_on_comm` (or the survivor
transport), so each communication pattern is written once;
:func:`allreduce_sum_fig2` stays as the paper's line-by-line reference.

All collectives are sub-generators over a :class:`~repro.mp.comm.Comm` and
assume SPMD call order (every rank invokes the same collectives in the same
order); a per-communicator sequence number keeps concurrent invocations'
messages from cross-matching.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from . import schedule
from .comm import Comm
from .vec import as_vec, to_list, vec_add

__all__ = [
    "barrier",
    "allreduce_sum",
    "allreduce_sum_fig2",
    "bcast",
    "gather",
    "allgather",
    "alltoall",
    "resilient_allreduce_sum",
    "resilient_barrier",
    "run_on_comm",
]

_TAG_BARRIER = 1 << 24
_TAG_ALLREDUCE = 2 << 24
_TAG_BCAST = 3 << 24
_TAG_GATHER = 4 << 24
_TAG_ALLGATHER = 5 << 24
_TAG_ALLTOALL = 6 << 24
_ROUND_STRIDE = 64


def _next_seq(comm: Comm) -> int:
    seq = getattr(comm, "_coll_seq", 0)
    comm._coll_seq = seq + 1
    return seq


def _san_monitor(comm: Comm):
    """RMCSan monitor, if one is installed on the communicator's env.

    Only collectives with *all-to-all* dependence (every rank's exit
    transitively depends on every rank's enter) emit enter/exit events —
    joining all enters at an exit would be unsound for rooted collectives
    like bcast/gather.
    """
    return getattr(comm.env, "_sync_monitor", None)


def _tag(base: int, seq: int, round_no: int) -> int:
    return base + (seq % 4096) * _ROUND_STRIDE + round_no


def _nbytes(payload) -> int:
    """Wire size of a schedule payload: 8 bytes per slot, 0 for a signal."""
    return 0 if payload is None else 8 * len(payload)


def run_on_comm(comm: Comm, steps, acc, base: int, seq: int,
                rounds: Sequence[int] = range(_ROUND_STRIDE),
                ranks: Optional[Sequence[int]] = None):
    """Sub-generator: run a :mod:`~repro.mp.schedule` step list over ``comm``.

    Schedule round ``r`` is tagged ``_tag(base, seq, rounds[r])``; virtual
    rank ``v`` is real rank ``ranks[v]`` (all of ``comm`` by default).
    Returns the final accumulator (``None`` for a barrier).
    """
    if ranks is None:
        ranks = range(comm.nprocs)
    tag0 = _tag(base, seq, 0)

    def send(peer, rnd, payload):
        return comm.send(
            ranks[peer], payload, tag=tag0 + rounds[rnd], payload_bytes=_nbytes(payload)
        )

    def recv(peer, rnd):
        return comm.recv(source=ranks[peer], tag=tag0 + rounds[rnd])

    return schedule.run(steps, acc, send, recv)


def barrier(comm: Comm):
    """Dissemination barrier: ceil(log2 N) overlapped sendrecv phases.

    Equivalent in cost to the paper's binary-exchange ``MPI_Barrier``:
    each phase is one overlapped exchange, so the communication time is
    ``log2(N)`` one-way latencies.
    """
    n = comm.nprocs
    if n == 1:
        return
    seq = _next_seq(comm)
    monitor = _san_monitor(comm)
    if monitor is not None:
        monitor.emit("coll_enter", coll="barrier", epoch=seq)
    yield from run_on_comm(
        comm, schedule.dissemination(comm.rank, n), None, _TAG_BARRIER, seq
    )
    if monitor is not None:
        monitor.emit("coll_exit", coll="barrier", epoch=seq)


def allreduce_sum(comm: Comm, values: Sequence[Any]) -> Any:
    """Elementwise-sum allreduce of a vector (paper Figure 2).

    For powers of two this is exactly the paper's binary exchange: in phase
    ``x`` every process exchanges its partial vector with ``rank XOR x`` and
    adds.  Non-powers-of-two use the standard fold: the ``rem = N - 2**k``
    highest "extra" ranks first fold their vectors into a partner, the
    power-of-two core runs binary exchange, then results are copied back
    out to the extras (two extra latencies, preserving O(log N)).
    Returns the fully reduced vector (a new list).
    """
    n = comm.nprocs
    if n == 1:
        return to_list(as_vec(values))
    seq = _next_seq(comm)
    monitor = _san_monitor(comm)
    if monitor is not None:
        monitor.emit("coll_enter", coll="allreduce", epoch=seq)
    # The input vector is not bound to a local, which would keep it alive
    # for the whole exchange on every rank (8 KB each at N=1024).
    acc = yield from run_on_comm(
        comm, schedule.recursive_doubling(comm.rank, n), as_vec(values),
        _TAG_ALLREDUCE, seq,
    )
    if monitor is not None:
        monitor.emit("coll_exit", coll="allreduce", epoch=seq)
    return to_list(acc)


def allreduce_sum_fig2(comm: Comm, values: Sequence[Any]) -> Any:
    """The paper's Figure 2, line by line (power-of-two process counts).

    ::

        x = N / 2;
        while (x > 0) {
            send op_init[0..N-1] to process (my_id XOR x);
            receive into temp[0..N-1] from process (my_id XOR x);
            op_init[0..N-1] = op_init[0..N-1] + temp[0..N-1];
            x = x / 2;
        }

    Provided for fidelity and property-testing; :func:`allreduce_sum` is
    the general-N production version (same exchanges in the power-of-two
    case, just walked in the opposite mask order).
    """
    n = comm.nprocs
    if n & (n - 1):
        raise ValueError(f"Figure 2 requires a power-of-two process count, got {n}")
    acc = as_vec(values)
    if n == 1:
        return to_list(acc)
    seq = _next_seq(comm)
    monitor = _san_monitor(comm)
    if monitor is not None:
        monitor.emit("coll_enter", coll="allreduce", epoch=seq)
    nbytes = 8 * len(acc)
    x = n // 2
    round_no = 0
    while x > 0:
        partner = comm.rank ^ x
        msg = yield from comm.sendrecv(
            partner, acc, tag=_tag(_TAG_ALLREDUCE, seq, round_no),
            payload_bytes=nbytes,
        )
        acc = vec_add(acc, msg.payload)
        x //= 2
        round_no += 1
    if monitor is not None:
        monitor.emit("coll_exit", coll="allreduce", epoch=seq)
    return to_list(acc)


def bcast(comm: Comm, value: Any = None, root: int = 0) -> Any:
    """Binomial-tree broadcast; returns the broadcast value on every rank.

    Standard MPICH formulation in the space where ``root`` is virtual rank
    0: each rank receives from the peer that clears its lowest set bit,
    then relays down its subtree.
    """
    n = comm.nprocs
    if not (0 <= root < n):
        raise ValueError(f"root {root} out of range")
    if n == 1:
        return value
    seq = _next_seq(comm)
    tag = _tag(_TAG_BCAST, seq, 0)
    vrank = (comm.rank - root) % n
    result = value
    # Receive phase: walk masks upward until this rank's lowest set bit.
    mask = 1
    while mask < n:
        if vrank & mask:
            src = ((vrank - mask) + root) % n
            msg = yield from comm.recv(source=src, tag=tag)
            result = msg.payload
            break
        mask *= 2
    # Send phase: relay to vrank + m for each m below the receive mask.
    mask //= 2
    while mask >= 1:
        peer = vrank + mask
        if peer < n:
            dst = (peer + root) % n
            yield from comm.send(dst, result, tag=tag)
        mask //= 2
    return result


def gather(comm: Comm, value: Any, root: int = 0) -> Optional[List[Any]]:
    """Gather one value per rank to ``root`` (flat, N-1 messages).

    Returns the list ordered by rank on the root, ``None`` elsewhere.
    """
    n = comm.nprocs
    if not (0 <= root < n):
        raise ValueError(f"root {root} out of range")
    seq = _next_seq(comm)
    tag = _tag(_TAG_GATHER, seq, 0)
    if comm.rank == root:
        result: List[Any] = [None] * n
        result[root] = value
        for _ in range(n - 1):
            msg = yield from comm.recv(tag=tag)
            result[msg.src] = msg.payload
        return result
    yield from comm.send(root, value, tag=tag)
    return None


def allgather(comm: Comm, value: Any) -> List[Any]:
    """Gather one value per rank to every rank (ring algorithm)."""
    n = comm.nprocs
    result: List[Any] = [None] * n
    result[comm.rank] = value
    if n == 1:
        return result
    seq = _next_seq(comm)
    monitor = _san_monitor(comm)
    if monitor is not None:
        monitor.emit("coll_enter", coll="allgather", epoch=seq)
    right = (comm.rank + 1) % n
    left = (comm.rank - 1) % n
    carried = (comm.rank, value)
    for step in range(n - 1):
        tag = _tag(_TAG_ALLGATHER, seq, step)
        msg = yield from comm.sendrecv(right, carried, source=left, tag=tag)
        src_rank, src_value = msg.payload
        result[src_rank] = src_value
        carried = (src_rank, src_value)
    if monitor is not None:
        monitor.emit("coll_exit", coll="allgather", epoch=seq)
    return result


def alltoall(comm: Comm, values: Sequence[Any]) -> List[Any]:
    """Personalized all-to-all: ``values[i]`` goes to rank ``i``.

    Pairwise-exchange algorithm (N-1 overlapped phases).  Returns the list
    of received items indexed by source rank.
    """
    n = comm.nprocs
    if len(values) != n:
        raise ValueError(f"need {n} items, got {len(values)}")
    result: List[Any] = [None] * n
    result[comm.rank] = values[comm.rank]
    if n == 1:
        return result
    seq = _next_seq(comm)
    monitor = _san_monitor(comm)
    if monitor is not None:
        monitor.emit("coll_enter", coll="alltoall", epoch=seq)
    for step in range(1, n):
        if n & (n - 1) == 0:
            partner = comm.rank ^ step
        else:
            partner = (comm.rank + step) % n
        recv_from = partner if n & (n - 1) == 0 else (comm.rank - step) % n
        tag = _tag(_TAG_ALLTOALL, seq, step - 1)
        yield from comm.send(partner, values[partner], tag=tag)
        msg = yield from comm.recv(source=recv_from, tag=tag)
        result[msg.src] = msg.payload
    if monitor is not None:
        monitor.emit("coll_exit", coll="alltoall", epoch=seq)
    return result


# -- crash-resilient variants ------------------------------------------------------
#
# Used only when a crash-stop fault plan installs a MembershipService (see
# repro.runtime.membership); fault-free runs never construct any of this.
# The protocol per instance:
#
# 1. run the usual recursive exchange, but *compacted over the survivor
#    view* and with the membership epoch encoded in the tag;
# 2. every receive is a peek-poll loop, so a partner's death cannot wedge
#    the collective — when the view changes, all blocked survivors abandon
#    the exchange and restart it under the new view (stale pre-crash
#    messages no longer match: different epoch bits in the tag);
# 3. a survivor that *completes* the instance records the result in the
#    membership's completion ledger.  Restarting peers adopt the recorded
#    result instead of waiting for the finished rank to re-participate
#    (it never will) — the one coordination step that cannot be rebuilt
#    from messages alone after a failure.

_TAG_CHAOS = 7 << 24


class _EpochChanged(Exception):
    """The membership view moved while blocked in a resilient collective."""


def _chaos_tag(inst: int, epoch: int, round_no: int) -> int:
    """Tag for crash-aware collectives: instance + view epoch + round.

    The epoch bits keep messages from an abandoned pre-crash attempt from
    matching the restarted exchange's receives.  Eight epoch bits mean a
    single instance would need 256 view changes (e.g. a node crash taking
    256 hosted ranks with it) before a stale message's tag could alias the
    restarted exchange and corrupt its sums.
    """
    return _TAG_CHAOS | ((inst % 1024) << 14) | ((epoch % 256) << 6) | (round_no % 64)


def _adopted(membership, key, epoch0: int):
    """The ledger entry of ``key`` if it completed under an epoch older
    than ``epoch0`` (else ``None``)."""
    entry = membership.ledger_get(key)
    return entry if entry is not None and entry[1] < epoch0 else None


def _resilient_recv(comm: Comm, membership, source: int, tag: int, epoch0: int, key):
    """Receive that polls liveness instead of blocking indefinitely.

    Returns the received message.  Raises :class:`_EpochChanged` if the
    membership epoch moves past ``epoch0`` — or if instance ``key``
    already completed elsewhere — while no matching message has arrived.
    """
    env = comm.env
    poll_us = membership.params.membership_poll_us
    while True:
        for envelope in comm.mailbox.items:
            msg = envelope.payload
            if getattr(msg, "tag", None) == tag and getattr(msg, "src", None) == source:
                received = yield from comm.recv(source=source, tag=tag)
                return received
        if membership.epoch != epoch0 or _adopted(membership, key, epoch0):
            raise _EpochChanged()
        yield env.timeout(poll_us)


def _resilient(comm: Comm, membership, key, attempt):
    """Run ``attempt(epoch0)`` until it completes under an unchanged view.

    Returns ``(result, epoch)``: the attempt's result and the view epoch it
    ran under, or the ledger entry of an instance that already completed
    under an older epoch (the finished ranks will not re-participate).
    """
    while True:
        if not membership.in_view(comm.rank):
            # Excluded (partition minority): wait out the freeze instead of
            # spinning on a view that omits us.  The rejoin advances the
            # epoch, so the adoption check below picks up the instance the
            # majority completed in the meantime.  No-op for crash plans —
            # a dead rank's process never runs.
            yield from membership.freeze_gate(comm.rank)
            continue
        epoch0 = membership.epoch
        entry = _adopted(membership, key, epoch0)
        if entry is not None:
            return entry
        try:
            result = yield from attempt(epoch0)
        except _EpochChanged:
            continue
        membership.ledger_put(key, result, epoch=epoch0)
        return result, epoch0


def _survivor_run(comm: Comm, membership, key, chan: int, epoch0: int, build, acc=None):
    """Sub-generator: schedule ``build(vrank, n)`` over the survivor view
    of ``epoch0``.

    Messages carry the view epoch in their tag (channel ``chan``), and
    every receive abandons the instance when the view moves or ``key``
    completes elsewhere.
    """
    ranks = membership.view(epoch0)
    if comm.rank not in ranks:  # pragma: no cover - dead ranks' processes are killed
        raise _EpochChanged()

    def send(peer, rnd, payload):
        return comm.send(
            ranks[peer], payload, tag=_chaos_tag(chan, epoch0, rnd),
            payload_bytes=_nbytes(payload),
        )

    def recv(peer, rnd):
        return _resilient_recv(
            comm, membership, ranks[peer], _chaos_tag(chan, epoch0, rnd), epoch0, key
        )

    return schedule.run(build(ranks.index(comm.rank), len(ranks)), acc, send, recv)


def resilient_allreduce_sum(comm: Comm, membership, values: Sequence[Any], inst: int):
    """Crash-aware elementwise-sum allreduce over the survivor view.

    ``inst`` must be agreed across ranks (SPMD call order).  Returns
    ``(totals, epoch)`` where ``epoch`` is the membership epoch the totals
    were computed under.  The totals stay cumulative over the *original*
    universe: the lowest survivor folds in dead ranks' kill-time snapshot
    contributions, and the caller subtracts their never-applied operations
    via ``membership.written_off``.
    """
    key = ("allreduce", inst)

    def attempt(epoch0):
        acc = as_vec(values)
        if membership.view(epoch0)[0] == comm.rank:
            # The lowest survivor contributes the dead ranks' snapshots so
            # the totals remain comparable with the targets' cumulative
            # op_done.
            acc = vec_add(acc, membership.dead_contribution(epoch0))
        # Channel 2*inst: distinct tags from this instance's barrier.
        return _survivor_run(
            comm, membership, key, 2 * inst, epoch0, schedule.recursive_doubling, acc
        )

    totals, epoch = yield from _resilient(comm, membership, key, attempt)
    return to_list(totals), epoch


def resilient_barrier(comm: Comm, membership, inst: int):
    """Crash-aware dissemination barrier over the survivor view."""
    key = ("barrier", inst)
    yield from _resilient(
        comm, membership, key,
        lambda epoch0: _survivor_run(
            comm, membership, key, 2 * inst + 1, epoch0, schedule.dissemination
        ),
    )
