"""Golden identity: the combining barriers' exact simulated behaviour.

Every host, topology-aware and NIC-offloaded combined fence+barrier is
pinned by a digest of its full RMCSan event stream plus the final clock,
the kernel's event count and the fabric's logical message and byte
counts.  Any change to which messages are sent, in what order, with how
many bytes or at what simulated time moves at least one of them.

Each event is hashed as ``(kind, actor, exact time, sorted data)``; the
event repr is not used because it rounds time to three decimals.  The
grid mixes power-of-two and other rank counts (N = 5, 8, 12) and node
counts (ppn = 1, 4) under a two-level hierarchy, so every fold of the
recursive doubling and every partial tree level is exercised.  One more
run drives the crash-resilient survivor collectives.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis import SyncMonitor
from repro.net.params import myrinet2000
from repro.runtime.cluster import ClusterRuntime
from repro.runtime.memory import GlobalAddress
from repro.topo import two_level

#: run id -> (sha256 of the event stream, repr(env.now), events processed,
#: fabric messages, fabric bytes).
GOLDEN = {
    'exchange-n5-ppn1': ('83e21bd0495346e39447e8e1ed942db50741242f4a0358383bc713a4487ab392', '646.3559999999998', 932, 140, 6400),
    'exchange-n5-ppn4': ('c810748793e0aede0b20590d23bced2ff11102f8da25f56b6fce9269fab735cd', '297.8080000000001', 800, 116, 5440),
    'exchange-n8-ppn1': ('63da33fca6465bb5fde3c6e41bf441b4587bd5216723f3516b2f45949cbed439', '709.3439999999997', 2013, 304, 16768),
    'exchange-n8-ppn4': ('ce23c903a4627b97883deeb09e1cfb909c4d4999df37b0a35be151ffa9ec3b5e', '285.5568000000001', 1816, 256, 14848),
    'exchange-n12-ppn1': ('f53a320f53ee3344c256fc72d912a430f8026a056efb294fd95755c13c383088', '988.2399999999998', 3889, 584, 33088),
    'exchange-n12-ppn4': ('6f702609792800f31651243ce36a2201f77ff133dd3ef3c14be489320696f14d', '712.7695999999995', 3490, 512, 30208),
    'dissemination-n5-ppn1': ('349afedaf59600c3fddeb27b8556772fa7639bc193f33116af74f19fef113e27', '646.3559999999998', 932, 140, 6400),
    'dissemination-n5-ppn4': ('55906e6f6942655fd5958272d4bae2374ed258348bf5728e061a94bdcbe1e486', '297.8080000000001', 800, 116, 5440),
    'dissemination-n8-ppn1': ('463fd179f0963947ad36be97a4fdd9a060a482f1d0cd1d4e7b032fdfe6bf0b8e', '709.3439999999997', 2010, 304, 16768),
    'dissemination-n8-ppn4': ('3bbbaf1f0003d1e27e02dda4b5a1c8a2b8dd62a19f37ef3e3dc57ef2c8ea1380', '287.3448', 1806, 256, 14848),
    'dissemination-n12-ppn1': ('67a93bf896bc2f032762b455370d08bd34be984d163787c5311959f04da81204', '988.2399999999998', 3889, 584, 33088),
    'dissemination-n12-ppn4': ('b74870e8fdd6e71e450a8c128e625e649e2c1ce169ecec8c8db3d31002c21a74', '712.7695999999995', 3490, 512, 30208),
    'kary-n5-ppn1': ('2d3782e4f3de677aeae3863675ffca24a7e92f36425c34c0e79cd32ea852b111', '772.6559999999998', 715, 104, 4928),
    'kary-n5-ppn4': ('0b19a9df1bf91471001a48ef9819c07fc042966601c4933b3880be353f665b38', '335.0880000000002', 580, 80, 3968),
    'kary-n8-ppn1': ('683ca67e25443ad8896e60e46086075eff59b7f193e03c4f3799d34880cc40af', '1103.7919999999997', 1543, 224, 11648),
    'kary-n8-ppn4': ('6e29a4c7158df78bd0d07bcc687796c4ac26c404f2bcccdc471e53c8dae513bd', '424.03359999999986', 1270, 176, 9728),
    'kary-n12-ppn1': ('3e9fc769555408803a05e0911d018dc29b8e9da7a3f64c466ef0877534e00a59', '1203.4399999999998', 3037, 440, 24640),
    'kary-n12-ppn4': ('cbcd2c83373f64002634cd637f704371a3ed1e63e6af57c2e1af10d0f097b1c1', '752.2575999999995', 2627, 368, 21760),
    'twolevel-n5-ppn1': ('fad88f569615d6406061f7da3b0fb976956a5f45c45ff64709a12ec117a85e8d', '646.3559999999998', 932, 140, 6400),
    'twolevel-n5-ppn4': ('234bb9f49d77cc9ef8ec4de06047b894c5d490ee1c1c37303899b00af7704537', '262.5776000000002', 590, 80, 3584),
    'twolevel-n8-ppn1': ('5314b25fd5c235e7fa00b505599ec66c4b4b6f36f6ddb82bed48a3d132cd2821', '709.3439999999997', 2013, 304, 16768),
    'twolevel-n8-ppn4': ('971c67db9dea911149d80de47526892faf62ac14ff2196f0e33fb3c3e07f00b1', '304.1952000000002', 1296, 176, 8384),
    'twolevel-n12-ppn1': ('4e7f2a2751283c94e8fb88d51886640172fc5f508e9713c5f299274bc0454674', '988.2399999999998', 3889, 584, 33088),
    'twolevel-n12-ppn4': ('4a75fc9c7339aca1adaa0e7cd3f66494f65406cf5a4baa72afa1bdf193c31daf', '762.0975999999997', 2674, 376, 18848),
    'nic-exchange-n5-ppn1': ('9cbaaf89988017933fbd4a6393be13df8be8e0471282c462dd44c7ecfe09a701', '283.04479999999967', 997, 140, 6880),
    'nic-exchange-n5-ppn4': ('65b677a68a1509120dfb7cc2f2f92aa93a4fbe9ebfb5f8f2886368bdae8f84cc', '194.66239999999974', 450, 32, 1536),
    'nic-exchange-n8-ppn1': ('9f2e85aaaa594b95c52115dc0ceca72229ddd0ea67f9e82be9fb122f83757bf2', '283.2415999999997', 2115, 304, 17536),
    'nic-exchange-n8-ppn4': ('722a78eb5661a576d5b055a5ecc5fed392da71f0f166be84ac4a91c8a868ca3d', '245.16479999999976', 1011, 80, 3648),
    'nic-exchange-n12-ppn1': ('50e5ddfd678777f2d2197fff6dfaa72bb7e0e692913c9c420ec6420e1f8bb1d6', '364.4215999999995', 4011, 584, 34624),
    'nic-exchange-n12-ppn4': ('fda7f883c665eea4f2f16f411caa36c2c12d7d4fae0fbde5c0aa87a474d8d67f', '405.3439999999994', 2404, 232, 10688),
    'nic-tree-n5-ppn1': ('d19d6cc3095b8b5924b1d1dda21a1523d490e48e7d92aafd63b0014a78d5be4d', '351.0495999999993', 840, 104, 5184),
    'nic-tree-n5-ppn4': ('8320566bee39a464bd9151d8194ece7c94f4daf2303d79e809e01b206d658c8e', '205.95839999999973', 449, 32, 1536),
    'nic-tree-n8-ppn1': ('6de0a5c9cb7e344edf1d8644c39a575ad27279e2dd0bb67d1ef07d0a057b2494', '467.5039999999987', 1740, 224, 12096),
    'nic-tree-n8-ppn4': ('2e517c2a118d3e5a9e4146d1f138ce8333f33740895e99f00285243dd7c65b50', '284.67519999999956', 994, 80, 3648),
    'nic-tree-n12-ppn1': ('ac57250995fd34e27950536fc5f59d6aee36fea9fc4694e187bde4df623d7f55', '512.7999999999987', 3408, 440, 25344),
    'nic-tree-n12-ppn4': ('95b9c25ca1eb423a6c7f0079ab9077fdc3d9f93e847df42fd8eb9771c4682316', '407.5439999999994', 2370, 224, 10368),
    'crash-exchange-n6-ppn2': ('31f4fa350046901af5ba3aa1931062c02b7415ae45096562bd83ea825617e7a2', '50000.0', 1428, 104, 5040),
}

ALGORITHMS = {
    "exchange": ("exchange", {}),
    "dissemination": ("dissemination", {}),
    "kary": ("kary", {"tree_radix": 3}),
    "twolevel": ("twolevel", {}),
    "nic-exchange": ("nic", {"nic_algorithm": "exchange"}),
    "nic-tree": ("nic", {"nic_algorithm": "tree"}),
}
GRID = [(n, ppn) for n in (5, 8, 12) for ppn in (1, 4)]


def _digest(monitor, runtime):
    h = hashlib.sha256()
    for e in monitor.events:
        h.update(repr((e.kind, e.actor, e.time, sorted(e.data.items()))).encode())
        h.update(b"\n")
    stats = runtime.fabric.stats
    return (
        h.hexdigest(),
        repr(runtime.env.now),
        runtime.env.events_processed,
        stats.messages,
        stats.bytes,
    )


def _workload(ctx, algorithm, rounds=2):
    base = ctx.region.alloc(ctx.nprocs, initial=0)
    for round_no in range(1, rounds + 1):
        for peer in range(ctx.nprocs):
            if peer != ctx.rank:
                yield from ctx.armci.put(
                    GlobalAddress(peer, base + ctx.rank), [round_no]
                )
        yield from ctx.armci.barrier(algorithm=algorithm)
        ctx.region.read_many(base, ctx.nprocs)
        yield from ctx.armci.barrier(algorithm=algorithm)


def _run(name, nprocs, ppn):
    algorithm, overrides = ALGORITHMS[name]
    params = myrinet2000().with_(hierarchy=two_level(2), **overrides)
    monitor = SyncMonitor()
    runtime = ClusterRuntime(nprocs, procs_per_node=ppn, params=params, monitor=monitor)
    runtime.run_spmd(_workload, algorithm)
    return _digest(monitor, runtime)


def _run_crash():
    """The crash scenario of ``test_survivors_complete_after_crash``."""
    from repro.fuzz.runner import SIM_CAP_US, _fuzz_workload, _make_params
    from repro.fuzz.scenario import Scenario

    scenario = Scenario(
        seed=7,
        nprocs=6,
        procs_per_node=2,
        workload="strips",
        barrier_algorithm="exchange",
        phases=("puts", "barrier", "puts", "barrier"),
        cells=2,
        crashes=(("rank", 5, 60.0),),
        hier_arity=2,
    )
    monitor = SyncMonitor()
    runtime = ClusterRuntime(
        scenario.nprocs,
        procs_per_node=scenario.procs_per_node,
        params=_make_params(scenario),
        monitor=monitor,
    )
    shared = {
        "requests": [],
        "grants": [],
        "preemptions": [],
        "cs_owner": None,
        "mutex_ok": True,
    }
    runtime.spawn(_fuzz_workload, scenario, shared)
    runtime.env.run(until=SIM_CAP_US)
    assert tuple(runtime.membership.dead_ranks()) == (5,)
    return _digest(monitor, runtime)


def _cases():
    for name in ALGORITHMS:
        for nprocs, ppn in GRID:
            yield f"{name}-n{nprocs}-ppn{ppn}"
    yield "crash-exchange-n6-ppn2"


def _compute(case):
    if case.startswith("crash-"):
        return _run_crash()
    name, n, ppn = case.rsplit("-", 2)
    return _run(name, int(n[1:]), int(ppn[3:]))


@pytest.mark.parametrize("case", list(_cases()))
def test_run_matches_golden(case):
    assert _compute(case) == GOLDEN[case]


if __name__ == "__main__":  # print the table after an intended change
    for case in _cases():
        print(f"    {case!r}: {_compute(case)!r},")
