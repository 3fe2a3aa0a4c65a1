"""The barrier cost estimates are folds over the collective schedules.

``repro.mp.schedule.fold`` prices a stage as one ``hop(distance)`` per
round of a builder's step list.  These tests pin the interpreter itself
and the two estimates whose round counts it corrected: the k-ary tree
(one charge per tier of the real tree, not ``ceil(log_k N)``) and the
NIC barrier (the schedules ``nic_algorithm`` selects, not always the
exchange's).
"""

from __future__ import annotations

import math

import pytest

from repro.armci.barrier import estimate_kary_us, estimate_nic_us, estimate_twolevel_us
from repro.mp import schedule
from repro.net.params import myrinet2000
from repro.runtime.cluster import ClusterRuntime
from repro.topo import two_level
from repro.topo.coalesce import local_round_charge_us, vector_inflation_us

#: Every cost zero but one unit per MPI call and one per NIC step, so an
#: estimate counts the calls on its critical path.
UNIT = myrinet2000().with_(
    inter_latency_us=0.0, per_byte_us=0.0, o_send_us=0.0, o_recv_us=0.0,
    intra_latency_us=0.0, shm_access_us=0.0, poll_detect_us=0.0,
    mp_call_us=1.0, nic_proc_us=1.0, nic_doorbell_us=0.0, nic_dma_us=0.0,
    nic_dma_per_byte_us=0.0, nic_wire_latency_us=0.0,
)


def _heap_depth(n, radix):
    """Depth of an ``n``-node heap-order tree: levels start at (r**t-1)/(r-1)."""
    depth = 0
    while (radix ** (depth + 1) - 1) // (radix - 1) < n:
        depth += 1
    return depth


class TestFold:
    def test_equal_rounds_cost_exactly_k_times_one(self):
        for k in range(12):
            assert schedule.fold(lambda d: 0.1 + 0.2, range(k)) == k * (0.1 + 0.2)

    def test_exchange_rounds_are_powers_of_two(self):
        for n in range(1, 300):
            rounds = schedule.peer_distances(schedule.dissemination(0, n))
            assert rounds == [1 << r for r in range(math.ceil(math.log2(n)))]
            if n & (n - 1) == 0:
                core = schedule.peer_distances(schedule.recursive_doubling(0, n))
                assert core == rounds

    @pytest.mark.parametrize("radix", range(2, 10))
    def test_tree_path_walks_the_deepest_path(self, radix):
        for n in range(1, 300):
            path = schedule.tree_path(n, radix)
            assert path == [radix ** t for t in range(len(path))]
            assert len(path) == _heap_depth(n, radix)


class TestKaryTiers:
    """The tree's depth, not ``ceil(log_k N)``, sets the tier count."""

    @pytest.mark.parametrize("radix", range(2, 10))
    def test_one_charge_per_tree_tier(self, radix):
        params = UNIT.with_(tree_radix=radix)
        for n in range(1, 300):
            # Per tier and stage: k + 1 calls up and k + 1 down.
            expected = 4 * (radix + 1) * _heap_depth(n, radix)
            assert estimate_kary_us(params, n) == expected, n

    def test_nine_ranks_radix_eight_is_one_tier(self):
        """The root holds all eight children: one tier, not two."""
        assert estimate_kary_us(UNIT.with_(tree_radix=8), 9) == 4 * 9

    @pytest.mark.parametrize("radix", (2, 4, 8))
    def test_powers_of_two_charge_ceil_log_tiers(self, radix):
        params = UNIT.with_(tree_radix=radix)
        for n in (2 ** e for e in range(1, 13)):
            tiers = next(t for t in range(n) if radix ** t >= n)
            assert estimate_kary_us(params, n) == 4 * (radix + 1) * tiers, n


class TestNicSchedules:
    """Each ``nic_algorithm`` is priced from its own step lists."""

    @pytest.mark.parametrize("nnodes", range(1, 65))
    def test_exchange_and_tree_counts(self, nnodes):
        # fold + mirror check + release per hosted rank, then per round
        # of each stage one send and one receive step...
        exchange = estimate_nic_us(UNIT, nnodes, nnodes)
        assert exchange == 3 + 2 * 2 * math.ceil(math.log2(nnodes))
        # ...or, per tree tier and stage, up and down with a parent that
        # handles two children and its own parent each way.
        tree = estimate_nic_us(UNIT.with_(nic_algorithm="tree"), nnodes, nnodes)
        assert tree == 3 + 2 * 2 * 3 * (nnodes.bit_length() - 1)

    def test_tree_estimate_orders_like_the_simulation(self):
        """Eight nodes: the binary tree's up-and-down waves are slower
        than three exchange rounds, in the model and in the simulator."""

        def sync_us(algorithm):
            params = myrinet2000().with_(nic_algorithm=algorithm)

            def program(ctx):
                yield from ctx.armci.barrier(algorithm="nic")
                start = ctx.env.now
                yield from ctx.armci.barrier(algorithm="nic")
                return ctx.env.now - start

            runtime = ClusterRuntime(8, params=params)
            return max(runtime.run_spmd(program)), estimate_nic_us(params, 8, 8)

        sim_tree, est_tree = sync_us("tree")
        sim_exchange, est_exchange = sync_us("exchange")
        assert sim_tree > sim_exchange
        assert est_tree > est_exchange


class TestLocalRound:
    def test_twolevel_charges_four_coalescer_rounds(self):
        """One node: no leader exchange, only the four intra-node rounds."""
        params = myrinet2000()
        for ppn in (1, 2, 8, 16):
            assert estimate_twolevel_us(params, ppn, ppn) == (
                4 * local_round_charge_us(params, ppn) + params.poll_detect_us
            )

    def test_inflation_is_the_leaders_byte_difference(self):
        params = myrinet2000().with_(
            hierarchy=two_level(8, uplink_latency_us=26.0, uplink_contention=2.0)
        )
        nnodes, ppn = 64, 16
        nprocs = nnodes * ppn
        leaders = (
            estimate_twolevel_us(params, nprocs, ppn)
            - estimate_twolevel_us(params, nnodes, 1)
        )
        # Stage 1 carries the per-rank vector; the same exchange over
        # per-node totals differs by the inflation (plus the intra-node
        # rounds the one-rank-per-node run does not pay).
        intra = 4 * (local_round_charge_us(params, ppn) - local_round_charge_us(params, 1))
        assert leaders - intra == pytest.approx(
            vector_inflation_us(params, nprocs, nnodes), rel=1e-9
        )
