"""Differential test: every combining barrier computes the same targets.

The six combined fence+barriers — host exchange, dissemination, k-ary
tree, two-level, and the NIC-offloaded exchange and tree — each sum the
``op_init`` vectors a different way.  For one put pattern they must all
hand every rank the same stage-2 target: the cumulative number of
remote operations issued toward it.  Host algorithms are observed at the
stage-2 wait (every one of them reaches it through the watchdog wait
when a watchdog is armed); NIC algorithms at the value each hosted
rank's release event carries.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.armci import barrier as barrier_mod
from repro.net.params import myrinet2000
from repro.net.topology import Topology
from repro.runtime.cluster import ClusterRuntime
from repro.runtime.memory import GlobalAddress

HOST_ALGORITHMS = ("exchange", "dissemination", "kary", "twolevel")
NIC_ALGORITHMS = ("exchange", "tree")
ROUNDS = 2


def _program(pattern, algorithm):
    """``pattern[round][rank]`` lists the destinations ``rank`` puts to."""

    def main(ctx):
        base = ctx.region.alloc(ROUNDS * ctx.nprocs, initial=0)
        for round_no, puts in enumerate(pattern):
            for dst in puts[ctx.rank]:
                yield from ctx.armci.put(
                    GlobalAddress(dst, base + round_no * ctx.nprocs + ctx.rank),
                    [round_no + 1],
                )
            yield from ctx.armci.barrier(algorithm=algorithm)

    return main


def _host_targets(monkeypatch, pattern, nprocs, ppn, radix, algorithm):
    targets = defaultdict(list)
    original = barrier_mod._stage2_wait_with_watchdog

    def spy(armci, region, addr, target, watchdog_us):
        targets[armci.rank].append(target)
        return (yield from original(armci, region, addr, target, watchdog_us))

    with monkeypatch.context() as m:
        m.setattr(barrier_mod, "_stage2_wait_with_watchdog", spy)
        params = myrinet2000(tree_radix=radix, watchdog_timeout_us=1e9)
        rt = ClusterRuntime(nprocs, procs_per_node=ppn, params=params)
        rt.run_spmd(_program(pattern, algorithm))
    return dict(targets)


def _nic_targets(pattern, nprocs, ppn, nic_algorithm):
    params = myrinet2000(nic_algorithm=nic_algorithm)
    rt = ClusterRuntime(nprocs, procs_per_node=ppn, params=params)
    rt.run_spmd(_program(pattern, "nic"))
    targets = defaultdict(list)
    for engine in rt.fabric._nic_engines.values():
        for epoch in sorted(engine._epochs):
            for rank, release in engine._epochs[epoch].release.items():
                targets[rank].append(release.value)
    return dict(targets)


@st.composite
def scenarios(draw):
    nprocs = draw(st.integers(min_value=2, max_value=32))
    ppn = draw(st.integers(min_value=1, max_value=min(nprocs, 8)))
    radix = draw(st.integers(min_value=2, max_value=8))
    pattern = [
        [
            draw(st.lists(st.integers(0, nprocs - 1).filter(lambda d, r=r: d != r),
                          max_size=3, unique=True))
            for r in range(nprocs)
        ]
        for _ in range(ROUNDS)
    ]
    return nprocs, ppn, radix, pattern


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_all_algorithms_reach_the_same_stage2_targets(monkeypatch, scenario):
    nprocs, ppn, radix, pattern = scenario
    node_of = Topology(nprocs, procs_per_node=ppn).node_of
    # Puts within a node complete in shared memory and never enter op_init.
    issued = [0] * nprocs
    expected = {rank: [] for rank in range(nprocs)}
    for puts in pattern:
        for src, dsts in enumerate(puts):
            for dst in dsts:
                if node_of(dst) != node_of(src):
                    issued[dst] += 1
        for rank in range(nprocs):
            expected[rank].append(issued[rank])

    for algorithm in HOST_ALGORITHMS:
        got = _host_targets(monkeypatch, pattern, nprocs, ppn, radix, algorithm)
        assert got == expected, algorithm
    for nic_algorithm in NIC_ALGORITHMS:
        got = _nic_targets(pattern, nprocs, ppn, nic_algorithm)
        assert got == expected, f"nic-{nic_algorithm}"
