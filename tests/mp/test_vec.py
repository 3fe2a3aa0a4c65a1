"""The vectorized ``op_init`` combine: helper contract and API boundary.

Every elementwise sum goes through :mod:`repro.mp.vec`.  These tests pin
its contract:

* ``vec_add`` returns a new array with the values Python arithmetic gives;
* public collectives still return a ``list`` of Python ``int``/``float``;
* an array handed to the transport is never mutated afterwards, by the
  sender or by any receiver (the transport delivers the same object).

That caller input is never mutated is pinned in ``test_collectives.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp import collectives
from repro.mp.comm import Comm, MPMessage
from repro.mp.vec import as_vec, to_list, vec_add
from repro.net.fabric import Fabric
from repro.net.faults import FaultPlan, ProcessCrash
from repro.net.params import NetworkParams, myrinet2000
from repro.nic.engine import NicFrame
from repro.runtime.cluster import ClusterRuntime
from repro.runtime.memory import GlobalAddress


_INTS = st.integers(-(2**40), 2**40)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def _assert_python_scalars(values, kind):
    assert type(values) is list
    assert all(type(v) is kind for v in values), [type(v) for v in values]


class TestHelpers:
    def test_dtype_inferred(self):
        assert as_vec([1, 2, 3]).dtype == np.int64
        assert as_vec([0.5, 1.0]).dtype == np.float64

    def test_add_returns_new_array(self):
        a = as_vec([1, 2, 3])
        b = as_vec([10, 20, 30])
        c = vec_add(a, b)
        assert c is not a and c is not b
        assert to_list(a) == [1, 2, 3]
        assert to_list(b) == [10, 20, 30]
        assert to_list(c) == [11, 22, 33]

    @given(
        pairs=st.one_of(
            st.lists(st.tuples(_INTS, _INTS)),
            st.lists(st.tuples(_FLOATS, _FLOATS)),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_add_matches_the_loop_reference(self, pairs):
        a = [x for x, _y in pairs]
        b = [y for _x, y in pairs]
        reference = [x + y for x, y in zip(a, b)]
        assert to_list(vec_add(as_vec(a), as_vec(b))) == reference

    def test_to_list_yields_python_scalars(self):
        _assert_python_scalars(to_list(as_vec([1, 2])), int)
        _assert_python_scalars(to_list(as_vec([1.5, 2.0])), float)


class TestReturnTypes:
    @pytest.mark.parametrize("nprocs", [1, 3, 4])
    @pytest.mark.parametrize("kind", [int, float])
    def test_allreduce_sum(self, nprocs, kind):
        def main(ctx):
            vec = [kind(ctx.rank), kind(1)]
            return (yield from collectives.allreduce_sum(ctx.comm, vec))

        rt = ClusterRuntime(nprocs, params=myrinet2000())
        for result in rt.run_spmd(main):
            _assert_python_scalars(result, kind)
            assert result == [kind(sum(range(nprocs))), kind(nprocs)]

    @pytest.mark.parametrize("nprocs", [1, 4])
    @pytest.mark.parametrize("kind", [int, float])
    def test_allreduce_sum_fig2(self, nprocs, kind):
        def main(ctx):
            vec = [kind(ctx.rank), kind(2)]
            return (yield from collectives.allreduce_sum_fig2(ctx.comm, vec))

        rt = ClusterRuntime(nprocs, params=myrinet2000())
        for result in rt.run_spmd(main):
            _assert_python_scalars(result, kind)
            assert result == [kind(sum(range(nprocs))), kind(2 * nprocs)]

    @pytest.mark.parametrize("kind", [int, float])
    def test_resilient_allreduce_sum(self, kind):
        plan = FaultPlan(crashes=(ProcessCrash(at_us=1.0, rank=3),), seed=7)
        rt = ClusterRuntime(4, params=NetworkParams(faults=plan))

        def main(ctx):
            yield ctx.env.timeout(10.0)
            vec = [kind(ctx.rank + 1)] * 4
            totals, _epoch = yield from collectives.resilient_allreduce_sum(
                ctx.comm, ctx.membership, vec, 0
            )
            return totals

        results = rt.run_spmd(main)
        for rank in (0, 1, 2):
            _assert_python_scalars(results[rank], kind)
            # The dead rank's kill-time op_init snapshot is all zeros.
            assert results[rank] == [kind(1 + 2 + 3)] * 4


@pytest.fixture
def sent_vectors(monkeypatch):
    """Record every vector payload posted to the fabric.

    Each entry pins the posted array object and a copy of its contents at
    send time.
    """
    sent = []
    original = Fabric.post

    def post(self, src, dst, payload, *args, **kwargs):
        vec = None
        if isinstance(payload, (MPMessage, NicFrame)):
            vec = payload.payload
        if isinstance(vec, np.ndarray):
            sent.append((vec, vec.copy()))
        return original(self, src, dst, payload, *args, **kwargs)

    monkeypatch.setattr(Fabric, "post", post)
    return sent


def _put_then_barrier(algorithm):
    def main(ctx):
        base = ctx.region.alloc(ctx.nprocs, initial=0)
        for _round in range(2):
            for peer in range(ctx.nprocs):
                if peer != ctx.rank:
                    yield from ctx.armci.put(
                        GlobalAddress(peer, base + ctx.rank), [ctx.rank + 1]
                    )
            yield from ctx.armci.barrier(algorithm=algorithm)

    return main


class TestSentPayloadsNeverMutated:
    @pytest.mark.parametrize(
        "algorithm,nprocs,ppn,nic_algorithm",
        [
            ("exchange", 6, 1, "exchange"),
            ("dissemination", 8, 1, "exchange"),
            ("kary", 7, 2, "exchange"),
            ("twolevel", 8, 2, "exchange"),
            ("nic", 6, 2, "exchange"),
            ("nic", 7, 1, "tree"),
        ],
    )
    def test_barrier_payloads(self, sent_vectors, algorithm, nprocs, ppn, nic_algorithm):
        rt = ClusterRuntime(
            nprocs, procs_per_node=ppn,
            params=myrinet2000(nic_algorithm=nic_algorithm),
        )
        rt.run_spmd(_put_then_barrier(algorithm))
        assert sent_vectors, "no vector payload was sent"
        for vec, snapshot in sent_vectors:
            np.testing.assert_array_equal(vec, snapshot)

    def test_allreduce_payloads_shared_not_copied(self, sent_vectors, monkeypatch):
        received = []
        original_recv = Comm.recv

        def recv(self, *args, **kwargs):
            msg = yield from original_recv(self, *args, **kwargs)
            received.append(msg.payload)
            return msg

        monkeypatch.setattr(Comm, "recv", recv)

        def main(ctx):
            result = yield from collectives.allreduce_sum(ctx.comm, [ctx.rank] * 5)
            return result

        rt = ClusterRuntime(5, params=myrinet2000())
        assert rt.run_spmd(main) == [[10] * 5] * 5
        sent_ids = {id(vec) for vec, _snapshot in sent_vectors}
        # The transport hands the receiver the sender's array itself, which
        # is why vec_add must never add in place.
        assert received and all(id(p) in sent_ids for p in received)
        for vec, snapshot in sent_vectors:
            np.testing.assert_array_equal(vec, snapshot)
