"""Properties of the pure collective schedules in :mod:`repro.mp.schedule`.

For random group sizes (and tree radices) every builder must produce a
step list in which

* every send in round ``r`` meets exactly one receive at its peer in
  round ``r`` (so a transport may key messages on the round);
* running the steps with one-hot integer vectors sums to all ones on
  every rank (for dissemination only when ``n`` is a power of two — for
  other ``n`` it still reaches every rank, which is what the barrier
  needs), and a barrier run leaves no message unreceived;
* the round counts are ``ceil(log2 n)`` for dissemination and
  ``log2(pof2) + 2*[rem > 0]`` for recursive doubling.

The schedules run here over an in-memory mailbox with a round-robin
scheduler, not the simulator.
"""

from __future__ import annotations

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.mp import schedule
from repro.mp.schedule import RECV_ADD, RECV_SET, SEND, SEND_RECV_ADD

BUILDERS = ("recursive_doubling", "dissemination", "tree")


def _steps_of(builder, n, radix):
    if builder == "tree":
        return lambda v: schedule.tree(v, n, radix)
    return lambda v: getattr(schedule, builder)(v, n)


def _messages(steps_of, n):
    """``(sends, receives)`` as counters of ``(src, dst, round)``."""
    sends, recvs = Counter(), Counter()
    for v in range(n):
        for op, peer, rnd in steps_of(v):
            if op == SEND_RECV_ADD:
                dst, src = peer
                sends[(v, dst, rnd)] += 1
                recvs[(src, v, rnd)] += 1
            elif op == SEND:
                sends[(v, peer, rnd)] += 1
            else:
                assert op in (RECV_ADD, RECV_SET), op
                recvs[(peer, v, rnd)] += 1
    return sends, recvs


def _execute(steps_of, n, payloads):
    """Run every rank's steps over an eager in-memory mailbox.

    Returns ``(results, leftover messages)``; fails on a deadlock.
    """
    box = {}
    moved = [0]

    def transport(me):
        def send(peer, rnd, payload):
            box[(me, peer, rnd)] = payload
            moved[0] += 1
            return iter(())

        def recv(peer, rnd):
            while (peer, me, rnd) not in box:
                yield
            moved[0] += 1
            return SimpleNamespace(payload=box.pop((peer, me, rnd)))

        return send, recv

    procs = {
        v: schedule.run(steps_of(v), payloads[v], *transport(v)) for v in range(n)
    }
    results = {}
    while procs:
        before = (moved[0], len(procs))
        for v in list(procs):
            try:
                next(procs[v])
            except StopIteration as stop:
                results[v] = stop.value
                del procs[v]
        assert (moved[0], len(procs)) != before, f"deadlock: {sorted(procs)} blocked"
    return results, box


cases = st.tuples(
    st.sampled_from(BUILDERS),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=2, max_value=9),
)
SETTINGS = settings(max_examples=40, deadline=None, database=None)


@seed(2003)
@SETTINGS
@given(cases)
def test_every_send_meets_one_receive_in_its_round(case):
    builder, n, radix = case
    sends, recvs = _messages(_steps_of(builder, n, radix), n)
    assert sends == recvs
    assert all(count == 1 for count in sends.values())
    assert all(src != dst for src, dst, _rnd in sends)


@seed(2003)
@SETTINGS
@given(cases)
def test_one_hot_vectors_sum_to_all_ones(case):
    builder, n, radix = case
    steps_of = _steps_of(builder, n, radix)
    one_hot = np.eye(n, dtype=np.int64)
    totals, leftover = _execute(steps_of, n, list(one_hot))
    assert not leftover
    for v in range(n):
        if builder == "dissemination" and n & (n - 1):
            # Over-counts for other n, but every contribution arrives.
            assert (totals[v] >= 1).all(), v
        else:
            assert totals[v].tolist() == [1] * n, v
    _result, leftover = _execute(steps_of, n, [None] * n)
    assert not leftover


@seed(2003)
@SETTINGS
@given(st.integers(min_value=1, max_value=300))
def test_round_counts(n):
    def rounds(builder):
        return 1 + max(
            (rnd for v in range(n) for _op, _peer, rnd in getattr(schedule, builder)(v, n)),
            default=-1,
        )

    pof2 = 1 << (n.bit_length() - 1)
    assert rounds("dissemination") == math.ceil(math.log2(n))
    assert rounds("recursive_doubling") == int(math.log2(pof2)) + 2 * (n > pof2)
