"""Golden identity: the calibrated barrier estimates and ``auto``'s picks.

The ``estimate_*_us`` cost model drives ``algorithm="auto"`` and the
benchmark's ``model_err_pct``.  This test keeps the hand-written closed
forms the model started from, verbatim, as the oracle, and checks the
live model against them over the grid

    {myrinet2000, gige, quadrics_like} × {flat, switch:16:26::2.0}
    × N ∈ 1..64 ∪ {128, 256, 1024, 4096} × ppn ∈ {1, 2, 8, 16}
    × tree radix ∈ {2, 3, 4, 8}

* the values a flat ``auto`` compares — linear, the message-passing
  barrier, NIC, and the exchange at one rank per node on a flat
  network — must match bit for bit (flat picks are part of the
  byte-identical surface); every other value, which the historical
  forms accumulated round by round and the live model sums with one
  ``fsum`` per stage, to 1e-12 relative;
* ``_auto_select`` picks, for dirty-server counts {0, 1, 2, N}, and
  ``predicted_crossover_targets`` must be identical.

One deliberate fix is exempt: the historical kary form charged
``ceil(log_k N)`` tiers where the tree can be one tier shallower
(``test_estimate_derivation.TestKaryTiers``).  Its kary cells, and the
hierarchical picks at those (N, radix), are dropped; the printed table
lists every such pick that changed.  The NIC cells use the default
``nic_algorithm="exchange"``; the historical form priced the tree
variant the same way, which ``TestNicSchedules`` there fixes.

``python tests/topo/test_estimate_identity.py`` prints the table: per
preset × network × estimate, the cells compared, how many are
bit-identical and the largest relative deviation, then the pick counts.
"""

from __future__ import annotations

import math
from functools import lru_cache

import pytest

from repro.armci import barrier
from repro.mp import schedule
from repro.net.params import MSG_HEADER_BYTES, SMALL_MSG_BYTES, gige, myrinet2000, quadrics_like
from repro.topo import parse_topo_spec

try:
    from .test_estimates import _FakeArmci
except ImportError:  # run as a script
    from test_estimates import _FakeArmci

PRESETS = {"myrinet2000": myrinet2000, "gige": gige, "quadrics_like": quadrics_like}
NETWORKS = {"flat": None, "switch:16:26::2.0": parse_topo_spec("switch:16:26::2.0")}
NPROCS = tuple(range(1, 65)) + (128, 256, 1024, 4096)
PPNS = (1, 2, 8, 16)
RADIXES = (2, 3, 4, 8)
REL_TOL = 1e-12


# -- the historical closed forms (the oracle) ---------------------------------


def _old_link(params, node_a, node_b):
    h = params.hierarchy
    if h is None or node_a == node_b:
        return params.inter_latency_us, params.per_byte_us
    lat, per_byte = h.resolve(params.inter_latency_us, params.per_byte_us)
    level = h.crossing_level(node_a, node_b)
    return lat[level], per_byte[level]


def _old_mp_barrier(params, nprocs):
    if nprocs < 2:
        return 0.0
    phases = math.ceil(math.log2(nprocs))
    return phases * (2 * params.mp_call_us + params.one_way(SMALL_MSG_BYTES))


def _old_linear(params, nprocs, dirty_count):
    fence_rt = (
        2 * params.api_call_us
        + 2 * params.one_way(SMALL_MSG_BYTES)
        + params.server_wake_us
        + params.server_proc_us
        + params.server_fence_check_us
    )
    return params.api_call_us + dirty_count * fence_rt + _old_mp_barrier(params, nprocs)


def _old_exchange(params, nprocs, ppn=1):
    vec_bytes = 8 * nprocs
    if ppn <= 1 and params.hierarchy is None:
        allreduce = 0.0
        if nprocs >= 2:
            phases = math.ceil(math.log2(nprocs))
            allreduce = phases * (2 * params.mp_call_us + params.one_way(vec_bytes))
        return allreduce + params.poll_detect_us + _old_mp_barrier(params, nprocs)
    ppn = max(1, ppn)
    total = params.poll_detect_us
    for stage_bytes in (vec_bytes, SMALL_MSG_BYTES):
        distance = 1
        while distance < nprocs:
            if distance < ppn:
                total += 2 * params.mp_call_us + params.shm_access_us + params.intra_latency_us
            else:
                lat, per_byte = _old_link(params, 0, distance // ppn)
                xfer = ppn * (stage_bytes + MSG_HEADER_BYTES) * per_byte
                total += 2 * params.mp_call_us + params.o_send_us + xfer + lat + params.o_recv_us
            distance *= 2
    return total


def _old_dissemination(params, nprocs, ppn=1):
    if nprocs < 2:
        return params.poll_detect_us
    ppn = max(1, ppn)
    total = params.poll_detect_us
    for stage_bytes in (8 * nprocs, SMALL_MSG_BYTES):
        distance = 1
        while distance < nprocs:
            lat, per_byte = _old_link(params, 0, max(1, distance // ppn))
            xfer = min(distance, ppn) * (stage_bytes + MSG_HEADER_BYTES) * per_byte
            total += 2 * params.mp_call_us + params.o_send_us + xfer + lat + params.o_recv_us
            distance *= 2
    return total


def _old_kary(params, nprocs, ppn=1):
    if nprocs < 2:
        return params.poll_detect_us
    ppn = max(1, ppn)
    k = params.tree_radix
    vec = 8 * nprocs + MSG_HEADER_BYTES
    ctl = SMALL_MSG_BYTES + MSG_HEADER_BYTES
    total = params.poll_detect_us
    span = 1
    while span < nprocs:
        node_off = span // ppn
        if node_off == 0:
            hop_lat = params.intra_latency_us + params.shm_access_us
            vec_xfer = ctl_xfer = 0.0
        else:
            lat, per_byte = _old_link(params, 0, node_off)
            hop_lat = lat + params.o_send_us + params.o_recv_us
            vec_xfer = vec * per_byte
            ctl_xfer = ctl * per_byte
        total += 2 * (k + 1) * params.mp_call_us + 2 * (k * vec_xfer + hop_lat)
        total += 2 * (k + 1) * params.mp_call_us + 2 * (k * ctl_xfer + hop_lat)
        span *= k
    return total


def _old_twolevel(params, nprocs, ppn=1):
    ppn = max(1, ppn)
    nnodes = math.ceil(nprocs / ppn)
    local_round = (ppn - 1) * (params.mp_call_us + params.shm_access_us) + params.intra_latency_us
    total = 4 * local_round + params.poll_detect_us
    for stage_bytes in (8 * nprocs + MSG_HEADER_BYTES, SMALL_MSG_BYTES + MSG_HEADER_BYTES):
        distance = 1
        while distance < nnodes:
            lat, per_byte = _old_link(params, 0, distance)
            total += (
                2 * params.mp_call_us + params.o_send_us + stage_bytes * per_byte
                + lat + params.o_recv_us
            )
            distance *= 2
    return total


def _old_nic(params, nprocs, nnodes, ppn=1):
    vec_bytes = 8 * nprocs
    doorbell = params.nic_doorbell_us + params.nic_dma_us + vec_bytes * params.nic_dma_per_byte_us
    hop_v = (
        2 * params.nic_proc_us
        + params.xfer_time(vec_bytes + MSG_HEADER_BYTES)
        + params.nic_wire_latency_us
    )
    hop_c = 2 * params.nic_proc_us + params.xfer_time(8 + MSG_HEADER_BYTES) + params.nic_wire_latency_us
    phases = math.ceil(math.log2(nnodes)) if nnodes >= 2 else 0
    local = 3 * ppn * params.nic_proc_us
    release = params.nic_dma_us + params.poll_detect_us
    return doorbell + local + phases * (hop_v + hop_c) + release


def _old_crossover(params, nprocs):
    exchange = _old_exchange(params, nprocs)
    for targets in range(nprocs + 1):
        if _old_linear(params, nprocs, targets) >= exchange:
            return targets
    return nprocs


def _old_pick(params, nprocs, ppn, dirty):
    estimates = {
        "linear": _old_linear(params, nprocs, dirty),
        "exchange": _old_exchange(params, nprocs),
    }
    if params.hierarchy is not None:
        estimates["exchange"] = _old_exchange(params, nprocs, ppn=ppn)
        estimates["kary"] = _old_kary(params, nprocs, ppn=ppn)
        estimates["dissemination"] = _old_dissemination(params, nprocs, ppn=ppn)
        if ppn > 1:
            estimates["twolevel"] = _old_twolevel(params, nprocs, ppn=ppn)
    return min(sorted(estimates), key=estimates.get)


# -- the grid -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _params(preset, network, radix=4):
    return PRESETS[preset]().with_(hierarchy=NETWORKS[network], tree_radix=radix)


def _value_cells(preset, network):
    """``(estimate name, args, live value, historical value)`` for one grid row."""
    p = _params(preset, network)
    for n in NPROCS:
        yield "mp_barrier", (n,), barrier._mp_barrier_estimate_us(p, n), _old_mp_barrier(p, n)
        for dirty in sorted({0, 1, 2, n}):
            yield (
                "linear", (n, dirty),
                barrier.estimate_linear_us(p, n, dirty), _old_linear(p, n, dirty),
            )
        for ppn in PPNS:
            nnodes = -(-n // ppn)
            for name, new, old in (
                ("exchange", barrier.estimate_exchange_us, _old_exchange),
                ("dissemination", barrier.estimate_dissemination_us, _old_dissemination),
                ("twolevel", barrier.estimate_twolevel_us, _old_twolevel),
            ):
                yield name, (n, ppn), new(p, n, ppn), old(p, n, ppn)
            yield (
                "nic", (n, nnodes, ppn),
                barrier.estimate_nic_us(p, n, nnodes, ppn), _old_nic(p, n, nnodes, ppn),
            )
            for radix in RADIXES:
                pk = _params(preset, network, radix)
                yield "kary", (n, ppn, radix), barrier.estimate_kary_us(pk, n, ppn), _old_kary(pk, n, ppn)


def _pick_cells(preset, network):
    """``(args, live pick, historical pick)`` for one grid row.

    Flat picks never consult the tree radix, so one radix covers them.
    """
    for n in NPROCS:
        for ppn in PPNS:
            armci = _FakeArmci(None, n, ppn, 0)
            for radix in RADIXES if NETWORKS[network] else RADIXES[:1]:
                armci.params = p = _params(preset, network, radix)
                for dirty in sorted({0, 1, 2, n}):
                    armci.dirty_nodes = set(range(dirty))
                    new = barrier._auto_select(armci)
                    yield (n, ppn, radix, dirty), new, _old_pick(p, n, ppn, dirty)


ROWS = [(preset, network) for preset in PRESETS for network in NETWORKS]


def _kary_fixed(n, radix):
    """Whether the tree is shallower than the historical ``ceil(log_radix n)``."""
    tiers, span = 0, 1
    while span < n:
        tiers, span = tiers + 1, span * radix
    return len(schedule.tree_path(n, radix)) != tiers


def _agrees(name, network, args, new, old):
    if name == "kary" and _kary_fixed(args[0], args[2]):
        return True
    if name in ("mp_barrier", "linear", "nic") or (
        name == "exchange" and network == "flat" and args[1] == 1
    ):
        return new == old
    return math.isclose(new, old, rel_tol=REL_TOL, abs_tol=0.0)


@pytest.mark.parametrize("preset,network", ROWS)
def test_estimates_match_historical_forms(preset, network):
    bad = [
        (name, args, new, old)
        for name, args, new, old in _value_cells(preset, network)
        if not _agrees(name, network, args, new, old)
    ]
    assert not bad, f"{len(bad)} cells moved, first: {bad[:5]}"


@pytest.mark.parametrize("preset,network", ROWS)
def test_auto_picks_unchanged(preset, network):
    bad = [
        (args, new, old)
        for args, new, old in _pick_cells(preset, network)
        if new != old and not (NETWORKS[network] and _kary_fixed(args[0], args[2]))
    ]
    assert not bad, f"{len(bad)} picks changed, first: {bad[:5]}"


@pytest.mark.parametrize("preset", PRESETS)
def test_predicted_crossover_unchanged(preset):
    for network in NETWORKS:
        p = _params(preset, network)
        for n in NPROCS:
            assert barrier.predicted_crossover_targets(p, n) == _old_crossover(p, n), n


if __name__ == "__main__":  # print the table
    print(f"{'preset':<14}{'network':<19}{'estimate':<15}{'cells':>6}{'identical':>10}"
          f"{'dropped':>8}  max rel dev")
    for preset, network in ROWS:
        rows = {}
        for name, args, new, old in _value_cells(preset, network):
            cells, same, dropped, dev = rows.get(name, (0, 0, 0, 0.0))
            if name == "kary" and _kary_fixed(args[0], args[2]):
                dropped += 1
            else:
                dev = max(dev, abs(new - old) / abs(old) if old else abs(new))
            rows[name] = (cells + 1, same + (new == old), dropped, dev)
        for name, (cells, same, dropped, dev) in rows.items():
            print(f"{preset:<14}{network:<19}{name:<15}{cells:>6}{same:>10}{dropped:>8}  {dev:.2e}")
    for preset, network in ROWS:
        picks = list(_pick_cells(preset, network))
        changed = [(args, old, new) for args, new, old in picks if new != old]
        print(f"picks {preset} {network}: {len(picks)} cells, {len(changed)} changed")
        for (n, ppn, radix, dirty), old, new in changed:
            print(f"    N={n} ppn={ppn} radix={radix} dirty={dirty}: {old} -> {new}")
