"""One pass of one workload, in a fresh interpreter; prints one JSON line.

    python3 perfbench/passrun.py --workload NAME --seed N --t-spawn T
                                 [--setup-only] [--calibrate] [--trace-dir DIR]

``--t-spawn`` is the CLOCK_MONOTONIC reading (system-wide on Linux) taken by
the parent just before it started this interpreter, so ``setup_s`` covers
interpreter start, ``import polypoisson`` and input generation.  The timed
section is the workload's items; CPU time is self plus children over it and
``peak_rss_mb`` is this process's ``ru_maxrss``.  With ``--calibrate`` the
reference kernel of ``hostspeed.py`` is sampled all through the timed
section; its time is taken out of ``wall_s``, ``cpu_s`` and the item times,
and the pass also reports the host-speed normalised ``norm_wall_s`` and
``norm_cpu_s`` and each item's ``ns`` and ``ncpu``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--calibrate", action="store_true")
    p.add_argument("--trace-dir", default="")
    args = p.parse_args(argv)

    import polypoisson  # noqa: F401  (the import is part of set-up)

    from workloads import WORKLOADS, ItemLog, gate

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    tracer = None
    if args.trace_dir:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    sampler = None
    if args.calibrate:
        from hostspeed import Sampler

        sampler = Sampler()
    log = ItemLog(tracer, sampler)

    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if tracer:
        tracer.enabled = True
    if sampler:
        sampler.start()
    try:
        gates, digest = workload.run(inputs, log)
    except Exception as exc:
        gates, digest = [gate("run", False, f"raised {type(exc).__name__}: {exc}")], ""
    if sampler:
        sampler.stop()
    if tracer:
        tracer.enabled = False
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    if sampler:
        wall_s -= sum(s[1] for s in sampler.samples)
        cpu_s -= sum(s[2] for s in sampler.samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "items": log.records,
        "gates": gates,
        "digest": digest,
    }
    if args.calibrate:
        from hostspeed import normalise

        result["norm_wall_s"], result["norm_cpu_s"], result["host_speed"] = normalise(
            log.records, sampler.samples, wall_s, cpu_s
        )
    if tracer:
        from tracer import per_layer_metrics

        result["layers"], table = per_layer_metrics(tracer, wall_s)
        tracer.write(Path(args.trace_dir), {"workload": args.workload, "seed": args.seed, "wall_s": wall_s, **table})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
