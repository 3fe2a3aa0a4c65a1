"""Per-layer attribution of a traced run: host self time and call counts.

The traced run profiles one sweep of the workload with :mod:`cProfile`
and groups each function's self time (``tottime``) by the subpackage of
``src/repro`` that defines it.  Time in C builtins and the standard
library (``heappop``, ``list.append``, ...) has no layer of its own; it
is split over the functions that called it, in proportion to the time
each call site spent in it.  Workload programs (``repro.experiments``),
the sanitizer hooks and this benchmark land in ``other``.

Call counts of plain functions come from the profile; calls of the
generator functions, which the profiler counts once per resume, are
counted by wrapping the module attribute their callers look up.
"""

from __future__ import annotations

import contextlib
import cProfile
import pstats
from pathlib import Path
from typing import Dict, Iterator

from repro.mp import collectives
from repro.topo import algorithms as topo_algorithms

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "repro"

#: The layers of ``src/repro`` the benchmark splits host time over.
LAYERS = ("sim", "net", "mp", "topo", "nic", "armci", "ga", "runtime", "locks")

#: Counter -> (file under src/repro, function) of the plain functions
#: whose calls are read from the profile.
PROFILED_CALLS = {
    "net_posts": ("net/fabric.py", "post"),
    "nic_doorbells": ("nic/engine.py", "post_doorbell"),
}

#: Generator functions counted by wrapping: counter -> [(module, name)].
WRAPPED_CALLS = {
    "mp_allreduce_calls": [(collectives, "allreduce_sum")],
    "topo_sync_calls": [
        (topo_algorithms, "kary_sync"),
        (topo_algorithms, "dissemination_sync"),
        (topo_algorithms, "twolevel_sync"),
    ],
}


@contextlib.contextmanager
def counted_calls(counts: Dict[str, int]) -> Iterator[Dict[str, int]]:
    """Count calls of :data:`WRAPPED_CALLS` into ``counts`` while active.

    The wrapper returns the generator itself, so the simulated program
    (and every event it schedules) is unchanged.
    """
    saved = []

    def wrap(counter, fn):
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    for counter, targets in WRAPPED_CALLS.items():
        counts.setdefault(counter, 0)
        for module, name in targets:
            fn = getattr(module, name)
            saved.append((module, name, fn))
            setattr(module, name, wrap(counter, fn))
    try:
        yield counts
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def _layer_of_file(filename: str):
    """The layer defining ``filename``: one of LAYERS, "other", or None.

    None (builtins, the standard library) means the time belongs to the
    caller.
    """
    path = Path(filename).resolve()
    if path.is_relative_to(HERE):
        return "other"
    if not path.is_relative_to(SRC):
        return None
    rel = path.relative_to(SRC)
    return rel.parts[0] if len(rel.parts) > 1 and rel.parts[0] in LAYERS else "other"


def self_times(profile: cProfile.Profile) -> Dict[str, float]:
    """Self seconds per layer (plus ``other``) from one profile."""
    raw = pstats.Stats(profile).stats
    owners: Dict[tuple, Dict[str, float]] = {}

    def owner(func, visiting) -> Dict[str, float]:
        """Fractions of ``func``'s self time owed to each layer."""
        if func in owners:
            return owners[func]
        layer = None if func[0] == "~" else _layer_of_file(func[0])
        if layer is not None:
            share = {layer: 1.0}
        else:
            callers = raw[func][4] if func in raw else {}
            total = sum(edge[2] for edge in callers.values())
            if not callers or func in visiting or total <= 0.0:
                share = {"other": 1.0}
            else:
                share = {}
                for caller, edge in callers.items():
                    for lay, frac in owner(caller, visiting | {func}).items():
                        share[lay] = share.get(lay, 0.0) + frac * edge[2] / total
        owners[func] = share
        return share

    out = {layer: 0.0 for layer in LAYERS + ("other",)}
    for func, (_cc, _nc, tottime, _ct, _callers) in raw.items():
        for layer, frac in owner(func, frozenset()).items():
            out[layer] += tottime * frac
    return out


def call_counts(profile: cProfile.Profile) -> Dict[str, int]:
    """Calls of :data:`PROFILED_CALLS`, read from the profile."""
    raw = pstats.Stats(profile).stats
    counts = {counter: 0 for counter in PROFILED_CALLS}
    for (filename, _line, name), (_cc, ncalls, *_rest) in raw.items():
        for counter, (path, fname) in PROFILED_CALLS.items():
            if name == fname and filename.endswith(path):
                counts[counter] += ncalls
    return counts
