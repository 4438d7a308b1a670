"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dpdk-10g --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` repeats the untraced build-and-run for ``--seconds`` and
prints every end-to-end metric; ``--trace 1`` runs the workload
untraced and then once more under the layer spans of
:mod:`perfbench.spans`, and prints every per-layer metric.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each offered packet is one
operation; a dropped packet fails, and a repetition that fails its
correctness check fails all of its packets.  The exit code is 0 only
when every check passed.

Host times are reported in reference seconds (see
:mod:`perfbench.reference`): CPU seconds rescaled by a fixed kernel
timed between repetitions, so this host's drifting speed cancels.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import monotonic
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import OUT, ROOT, use_source_tree  # noqa: E402

#: every run repeats the workload at least this often (determinism)
MIN_REPS = 2
#: share of the run spent on extra set-up-only builds.  They are spread
#: between the repetitions because this host's speed drifts by up to
#: 20% over tens of seconds; the median of many builds across the whole
#: run makes even the ~10 ms ones steady
SETUP_SHARE = 0.2


def _parse(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _determinism_problems(reps, what: str) -> List[str]:
    first = reps[0].fingerprint
    if all(r.fingerprint == first for r in reps):
        return []
    return [f"{what}: simulated outputs differ between runs of the same seed"]


def _tally(reps) -> Dict[str, int]:
    attempted = sum(r.counts["offered"] for r in reps)
    failed = sum(r.counts["offered"] if r.problems else r.counts["drops"]
                 for r in reps)
    return {"attempted": int(attempted), "failed": int(failed)}


def _end_to_end(wl, seed: int, seconds: float):
    from perfbench import workloads
    from perfbench.reference import HostClock

    start = monotonic()
    deadline = start + seconds
    # an untimed first repetition warms the process up and fixes the
    # peak RSS before the reference kernel allocates its flow table
    reps = [workloads.measure(wl, seed)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    clock = HostClock()
    setups: List[float] = []
    setup_time = 0.0
    pps = []
    while len(pps) < MIN_REPS or monotonic() < deadline:
        builds = []
        while setup_time < SETUP_SHARE * (monotonic() - start):
            t = monotonic()
            builds.append(workloads.measure_setup(wl, seed))
            setup_time += monotonic() - t
        rep = workloads.measure(wl, seed)
        scale = clock.scale()
        reps.append(rep)
        setups.extend(b * scale for b in builds + [rep.setup_s])
        pps.append(rep.counts["offered"] / (rep.run_s * scale))
    metrics = {
        "sim_pkts_per_s": statistics.median(pps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    for name in ("lat_us.p50", "lat_us.p99", "cpu_cores", "delivered_frac",
                 "power_w"):
        metrics[name] = reps[0].modelled[name]
    problems = [p for r in reps for p in r.problems]
    problems += _determinism_problems(reps, "determinism")
    lines = [
        f"{len(reps)} untraced repetitions (1 untimed), {len(setups)} "
        "builds; raw run CPU s: "
        + " ".join(f"{r.run_s:.3f}" for r in reps),
        f"loss_frac {reps[0].modelled['loss_frac']:.6f} "
        f"(drops {reps[0].counts['drops']} of {reps[0].counts['offered']} "
        f"offered), {reps[0].counts['samples']} latency samples",
    ]
    lines += ["accuracy (informational, never gated): " + a
              for a in wl.accuracy(reps[0].modelled)]
    return metrics, reps, problems, lines


def _per_layer(wl, seed: int, seconds: float):
    from perfbench import spans, workloads
    from perfbench.reference import HostClock

    clock = HostClock()
    deadline = monotonic() + seconds / 2
    base = []
    scales = []
    while len(base) < MIN_REPS or monotonic() < deadline:
        base.append(workloads.measure(wl, seed))
        scales.append(clock.scale())
    with spans.Tracer() as tracer:
        traced = workloads.measure(wl, seed)
    traced_scale = clock.scale()
    reps = base + [traced]
    problems = [p for r in reps for p in r.problems]
    problems += _determinism_problems(base, "determinism")
    problems += _determinism_problems(
        [base[0], traced], "zero perturbation (traced vs untraced)")
    if problems:
        return {}, reps, problems, []

    c = traced.counts
    run_s = statistics.median(r.run_s * k for r, k in zip(base, scales))
    layers = tracer.per_layer()
    metrics: Dict[str, float] = {}
    for layer in spans.LAYERS[:-1]:  # all but "other", which stays empty
        metrics[f"{layer}.self_s"] = (layers[layer]["self_ns"] / 1e9
                                      * traced_scale)
        metrics[f"{layer}.calls"] = layers[layer]["calls"]
    bursts = tracer.site_calls("RxQueue.rx_burst")
    metrics.update({
        "sim.events": c["sim.events"],
        "sim.cancels": tracer.cancels,
        "sim.ns_per_event": run_s * 1e9 / c["sim.events"],
        "kernel.sleep_calls": c["kernel.sleep_calls"],
        "kernel.wakeups": c["kernel.wakeups"],
        "kernel.cstate_exit_us": c["kernel.cstate_exit_ns"] / 1e3,
        "kernel.dispatch_wait_us": c["kernel.dispatch_wait_ns"] / 1e3,
        "nic.rx_bursts": bursts,
        "nic.pkts_per_burst": c["delivered"] / bursts if bursts else 0.0,
        "nic.empty_burst_frac": (tracer.empty_bursts / bursts
                                 if bursts else 0.0),
        "nic.drops": c["drops"],
        "nic.irqs": c["nic.irqs"],
        "traffic.generate_s": statistics.median(
            r.generate_s * k for r, k in zip(base, scales)),
        "core.wake_rounds": c["core.wake_rounds"],
        "core.busy_try_frac": (c["core.busy_tries"] / c["core.wake_rounds"]
                               if c["core.wake_rounds"] else 0.0),
        "core.vacation_us": c["core.vacation_us"],
        "core.ts_us": c["core.ts_us"],
        "metrics.samples": c["samples"],
        "trace_overhead": traced.run_s * traced_scale / run_s - 1.0,
    })
    out = OUT / f"spans-{wl.name}.npz"
    tracer.spans.write(out)
    total = sum(v["self_ns"] for v in layers.values()) or 1
    lines = [f"{len(base)} untraced repetitions + 1 traced; "
             f"{len(tracer.spans)} spans written to {out.relative_to(ROOT)}"]
    lines += [
        f"  {layer:8s} {v['self_ns'] / 1e9 * traced_scale:9.3f} s"
        f"  {v['self_ns'] / total:6.1%}  {v['calls']:>10d} calls"
        for layer, v in layers.items() if v["self_ns"] or v["calls"]
    ]
    return metrics, reps, problems, lines


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not use_source_tree():
        print("error: no simulator sources (src/repro) in this checkout",
              file=sys.stderr)
        return 2
    from perfbench import metrics as catalogue
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # everything imported so far lives for the whole run: keep the
    # collector from rescanning it during timed sections
    gc.collect()
    gc.freeze()

    measure = _per_layer if args.trace else _end_to_end
    values, reps, problems, lines = measure(wl, args.seed, args.seconds)
    wanted = catalogue.PER_LAYER if args.trace else catalogue.END_TO_END
    metrics = {m.name: values[m.name] for m in wanted} if values else {}
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}")
    for line in lines:
        print(line)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:24s} {value:>16.6g} {catalogue.UNITS[name]}")
    result = {
        "correct": not problems,
        **_tally(reps),
        "metrics": {name: {"value": value, "unit": catalogue.UNITS[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
