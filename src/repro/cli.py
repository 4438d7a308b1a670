"""Command-line interface: run any paper experiment from the shell.

::

    python -m repro list
    python -m repro run table1 --fast
    python -m repro run fig12 --seed 7
    python -m repro quickstart
    python -m repro trace quickstart --out trace.json

A figure in the campaign registry prints the table the registry
renders; the benchmark scripts of Tables 1-3 and Figures 6-9, 12 and
13 archive that same table.  The other ten experiments (``fig2``,
``fig5``, ``fig10``, ``fig11``, ``fig14``, ``fig15``, ``rotation``,
``bidir``, ``pacing`` and ``smt``) print a quick-look table built here
from the same scenario; its columns and sampling may differ from what
the benchmark archives (``repro run fig11`` has no
``cpu`` column and samples the ramp at its own stride, ``repro run
fig2`` has no ``wall s`` column).  ``--fast`` cuts durations ~4x for a
quick look.  ``trace`` re-runs a system with nanosecond event tracing
on, exports a Chrome trace-event JSON (load it in Perfetto /
chrome://tracing) and prints the wake-latency anatomy.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List

from repro import config
from repro.campaign import FIGURES, render_figure, run_figure
from repro.harness import extensions, scenarios
from repro.harness.report import render_table
from repro.harness.scaling import FAST_SCALE, scaled


def _fig2(duration_scale: float, seed: int) -> str:
    points = scenarios.fig2_cpu_energy(
        iterations=scaled(10_000, duration_scale, 1000), seed=seed)
    return render_table(
        "Figure 2 — CPU / energy per sleep service",
        ["service", "timeout us", "threads", "cpu ms", "energy J"],
        [(p.service, p.timeout_us, p.threads, p.cpu_seconds * 1e3,
          p.energy_j) for p in points],
    )


def _fig5(duration_scale: float, seed: int) -> str:
    series = scenarios.fig5_vacation_pdf(
        duration_ms=scaled(250, duration_scale, 50), seed=seed)
    rows = []
    for s in series:
        for i in range(0, len(s.bin_centers_us), 5):
            rows.append((s.m, s.bin_centers_us[i], s.empirical_density[i],
                         s.model_density[i]))
    return render_table(
        "Figure 5 — vacation PDF: simulation vs eq. (9)",
        ["M", "V us", "empirical", "model"],
        rows,
    )


def _fig10(duration_scale: float, seed: int) -> str:
    rows = scenarios.fig10_latency_boxplots(
        duration_ms=scaled(60, duration_scale, 20), seed=seed)
    return render_table(
        "Figure 10 — latency: hr_sleep vs nanosleep",
        ["service", "gbps", "V̄ us", "median us", "q3 us"],
        [(s, g, v, b["median"], b["q3"]) for s, g, v, b in rows],
    )


def _fig11(duration_scale: float, seed: int) -> str:
    result = scenarios.fig11_adaptation(
        duration_s=max(0.5, 3.0 * duration_scale), seed=seed)
    s = result.series
    rows = []
    offered = s.get("offered_mpps")
    step = max(1, len(offered) // 15)
    for i in range(0, len(offered), step):
        rows.append((
            offered[i][0] / 1e9,
            offered[i][1],
            s.get("delivered_mpps")[i][1],
            s.get("ts_us")[i][1],
            s.get("rho")[i][1],
        ))
    from repro.harness.ascii_chart import resample, sparkline

    table = render_table(
        "Figure 11 — adaptation over the ramp",
        ["t s", "offered Mpps", "delivered", "T_S us", "rho"],
        rows,
    )
    extras = "\n".join(
        f"  {name:8s} {sparkline(resample(s.values(key), 60))}"
        for name, key in (("offered", "offered_mpps"), ("T_S", "ts_us"),
                          ("rho", "rho"), ("cpu", "cpu"))
    )
    return table + "\n\ntrajectories:\n" + extras


def _fig14(duration_scale: float, seed: int) -> str:
    r = scenarios.ferret_coexistence(
        ferret_work_ms=scaled(150, duration_scale, 40),
        throughput_ms=scaled(300, duration_scale, 60),
        seed=seed,
    )
    return render_table(
        "Figure 14 / Table 4 — ferret coexistence",
        ["metric", "value"],
        [
            ("ferret alone ms", r.ferret_alone_ms),
            ("+static DPDK slowdown", r.ferret_with_dpdk_ms / r.ferret_alone_ms),
            ("+Metronome slowdown",
             r.ferret_with_metronome_ms / r.ferret_alone_ms),
            ("DPDK shared Mpps", r.dpdk_shared_mpps),
            ("Metronome shared Mpps", r.metronome_shared_mpps),
        ],
    )


def _fig15(duration_scale: float, seed: int) -> str:
    rows = scenarios.fig15_apps(
        duration_ms=scaled(60, duration_scale, 20), seed=seed)
    return render_table(
        "Figure 15 — IPsec & FloWatcher CPU",
        ["app", "system", "rate Mpps", "cpu", "throughput"],
        rows,
    )


def _rotation(duration_scale: float, seed: int) -> str:
    r = extensions.role_rotation(
        duration_ms=scaled(80, duration_scale, 20), seed=seed)
    rows = [(t, f"{v:.3f}") for t, v in sorted(r.share_by_thread.items())]
    rows.append(("switches", r.switches))
    return render_table("Figure 4 — role rotation", ["metric", "value"], rows)


def _bidir(duration_scale: float, seed: int) -> str:
    r = extensions.bidirectional_throughput(
        duration_ms=scaled(60, duration_scale, 20), seed=seed)
    return render_table(
        "§5.1 — bidirectional",
        ["system", "Mpps/port", "cpu"],
        [("metronome", r.metronome_mpps_per_port, r.metronome_cpu),
         ("dpdk", r.dpdk_mpps_per_port, r.dpdk_cpu)],
    )


def _smt(duration_scale: float, seed: int) -> str:
    r = extensions.smt_interference(
        job_work_ms=scaled(60, duration_scale, 15), seed=seed)
    return render_table(
        "Extension — SMT sibling interference",
        ["sibling runs", "job ms", "slowdown"],
        [("nothing", r["alone"], 1.0),
         ("polling dpdk", r["dpdk_sibling"], r["dpdk_sibling"] / r["alone"]),
         ("metronome", r["metronome_sibling"],
          r["metronome_sibling"] / r["alone"])],
    )


def _pacing(duration_scale: float, seed: int) -> str:
    rows = extensions.pacing_comparison(
        count=scaled(300, duration_scale, 50), seed=seed)
    return render_table(
        "Extension — sleep-based pacing",
        ["service", "target kpps", "rate error", "jitter us",
         "gap compliance"],
        rows,
        note="compliance = fraction of inter-departure gaps within "
             "±50% of the ideal interval (bursting scores low)",
    )


def _quickstart(duration_scale: float, seed: int) -> str:
    from repro.harness.experiment import run_metronome

    res = run_metronome(
        config.LINE_RATE_PPS,
        duration_ms=scaled(100, duration_scale, 20),
        cfg=config.SimConfig(seed=seed),
    )
    return render_table(
        "Metronome @ 10 GbE line rate",
        ["metric", "value"],
        [
            ("throughput Mpps", res.throughput_mpps),
            ("loss %", res.loss_fraction * 100),
            ("cpu", res.cpu_utilization),
            ("mean latency us", res.latency.mean() / 1e3),
            ("mean vacation us", res.mean_vacation_us),
            ("rho", res.rho),
            ("T_S us", res.ts_us),
        ],
    )


def _chaos_cmd(args) -> int:
    """``repro chaos``: fault plans × seeds, invariant verdicts."""
    import json

    from repro.faults import SHIPPED_PLANS, FaultPlan, run_chaos

    if args.list:
        print("shipped fault plans:")
        for name, plan in SHIPPED_PLANS.items():
            print(f"  {name:15s} {plan.description}")
        return 0
    if args.plan_file:
        with open(args.plan_file) as fh:
            plans = [FaultPlan.from_dict(json.load(fh))]
    elif args.plan == "all":
        plans = list(SHIPPED_PLANS.values())
    else:
        if args.plan not in SHIPPED_PLANS:
            print(f"unknown plan {args.plan!r}; try `repro chaos --list`")
            return 2
        plans = [SHIPPED_PLANS[args.plan]]

    seeds = args.seed or [7, 42, config.DEFAULT_SEED]
    if args.checkpoint_before_fault:
        return _chaos_checkpoint_cmd(args, plans, seeds)
    rows = []
    failures = 0
    for plan in plans:
        for seed in seeds:
            r = run_chaos(plan, seed=seed, duration_ms=args.duration_ms)
            verdict = "ok" if r.ok else "FAIL"
            failures += 0 if r.ok else 1
            rows.append((
                plan.name, seed, verdict,
                r.loss_fraction * 100,
                r.max_head_age_ns / 1e3,
                r.escalations,
                r.recovery_ns / 1e3 if r.recovery_ns is not None else "-",
                r.overload_entries,
            ))
            for v in r.violations:
                rows.append((f"  ^ {v}", "", "", "", "", "", "", ""))
    print(render_table(
        f"chaos — {args.duration_ms} ms per run",
        ["plan", "seed", "verdict", "loss %", "max age us",
         "escalations", "recovery us", "overload"],
        rows,
    ))
    if failures:
        print(f"{failures} scenario(s) FAILED their invariants")
    return 1 if failures else 0


def _chaos_checkpoint_cmd(args, plans, seeds) -> int:
    """``repro chaos --checkpoint-before-fault``: replay debugging.

    For each plan × seed the scenario runs twice, pausing both runs for
    a pure machine snapshot just before the first fault window opens.
    The two captures must agree component-for-component (the healthy
    prefix replays exactly) and the two final verdicts must be
    identical (the continuation past the checkpoint is deterministic).
    Any divergence prints the per-component diff and exits non-zero —
    if this gate holds, "re-run to just before the fault" is a sound
    way to inspect the moment a fault lands.
    """
    from repro.faults import run_chaos
    from repro.sim.units import MS, US

    for plan in plans:
        if plan.first_fault_start_ns() - US > args.duration_ms * MS:
            print(f"plan {plan.name!r} opens its first fault at "
                  f"{plan.first_fault_start_ns() / MS:.3f} ms, past "
                  f"--duration-ms {args.duration_ms}: there is no healthy "
                  "prefix to checkpoint inside the run")
            return 2
    rows = []
    bad = 0
    for plan in plans:
        for seed in seeds:
            t_ck = max(0, plan.first_fault_start_ns() - US)
            base = run_chaos(plan, seed=seed, duration_ms=args.duration_ms,
                             checkpoint_at_ns=t_ck)
            replay = run_chaos(plan, seed=seed, duration_ms=args.duration_ms,
                               checkpoint_at_ns=t_ck)
            diff = base.checkpoint.diff(replay.checkpoint)

            def final(r):
                return (r.offered, r.delivered, r.drops, r.max_head_age_ns,
                        r.escalations, r.watchdog_wakes, r.recovery_ns,
                        r.overload_entries, tuple(r.violations))

            same_final = final(base) == final(replay)
            ok = not diff and same_final
            bad += 0 if ok else 1
            rows.append((
                plan.name, seed, f"{t_ck / 1e6:.3f}",
                f"{base.checkpoint.size_bytes() / 1024:.1f}",
                "ok" if not diff else f"{len(diff)} DIVERGED",
                "ok" if same_final else "DIVERGED",
                "ok" if base.ok else "FAIL",
            ))
            for line in diff[:5]:
                rows.append((f"  ^ {line}", "", "", "", "", "", ""))
            if args.checkpoint_out:
                path = (args.checkpoint_out if len(plans) * len(seeds) == 1
                        else f"{args.checkpoint_out}.{plan.name}.s{seed}.json")
                base.checkpoint.save(path)
                print(f"checkpoint ({plan.name}, seed {seed}) -> {path}")
    print(render_table(
        f"chaos checkpoint-before-fault — {args.duration_ms} ms per run",
        ["plan", "seed", "ckpt ms", "state KB", "prefix", "final",
         "invariants"],
        rows,
    ))
    if bad:
        print(f"{bad} scenario(s) DIVERGED between checkpoint and replay")
    else:
        print("every prefix and continuation replayed byte-identical")
    return 1 if bad else 0


def _check_cmd(args) -> int:
    """``repro check``: invariant monitors + model-vs-sim oracle."""
    import json

    from repro.check.oracle import TolerancePolicy, run_oracle
    from repro.check.runner import run_monitors

    do_monitors = args.all or args.monitors or not args.oracle
    do_oracle = args.all or args.oracle or not args.monitors
    failed = False
    if do_monitors:
        rep = run_monitors(seed=args.seed, fast=args.fast)
        print(rep.render())
        failed |= not rep.ok
    if do_oracle:
        policy = None
        if args.policy:
            with open(args.policy) as fh:
                policy = TolerancePolicy.from_dict(json.load(fh))
        cache = None
        if args.cache:
            from repro import campaign as camp

            results_dir = camp.default_results_dir()
            cache = camp.ResultCache(camp.default_cache_dir(results_dir))
        orep = run_oracle(
            policy=policy,
            duration_ms=12 if args.fast else 40,
            seed=args.seed,
            workers=args.workers,
            cache=cache,
        )
        if do_monitors:
            print()
        print(orep.render())
        failed |= not orep.ok
    return 1 if failed else 0


def _traffic_cmd(args) -> int:
    """``repro traffic``: generate/describe/validate traces
    (docs/TRAFFIC.md)."""
    from repro.sim.units import MS
    from repro.traffic import SHIPPED_TRACES, Trace, TraceError, generate

    if args.traffic_cmd == "generate":
        if args.name not in SHIPPED_TRACES:
            known = ", ".join(sorted(SHIPPED_TRACES))
            print(f"unknown trace generator {args.name!r} (known: {known})")
            return 2
        spec = SHIPPED_TRACES[args.name](args.duration_ms * MS)
        trace = generate(spec, args.seed)
        out = args.out or f"{args.name}.trace.jsonl.gz"
        trace.dump(out)
        print(f"wrote {out}")
        print(trace.describe())
        return 0
    try:
        trace = Trace.load(args.path)
    except FileNotFoundError:
        print(f"no such file: {args.path}")
        return 2
    except TraceError as exc:
        print(f"INVALID: {exc}")
        return 2
    if args.traffic_cmd == "describe":
        print(trace.describe())
        return 0
    # validate: Trace.load already ran the schema checks
    print(f"ok: {trace.packet_count:,} packets, "
          f"{len(trace.phases)} phase(s), sha256 {trace.sha256()[:16]}")
    return 0


def _parse_shard(text: str):
    """``"i/N"`` -> ``(i, N)``; raises ValueError on nonsense."""
    i_s, _, n_s = text.partition("/")
    shard = (int(i_s), int(n_s))
    if not (1 <= shard[0] <= shard[1]):
        raise ValueError(f"shard must satisfy 1 <= i <= N, got {text!r}")
    return shard


def _emit_campaign_artifacts(camp, res, results_dir: str) -> None:
    """Render and atomically write every complete figure's artifacts,
    print failures for incomplete ones, and write the campaign summary.
    Shared by ``campaign run`` and ``campaign merge`` so a merged
    sharded campaign emits byte-identical files to an unsharded run."""
    for name in res.figures:
        outs = res.figure_outcomes(name)
        record = res.record_for(name)
        if record is None:
            bad = [o for o in outs if not o.ok]
            print(f"\n{name}: FAILED — "
                  + "; ".join(f"{o.spec.label()}: {o.error}" for o in bad))
            continue
        fig = camp.get_figure(name)
        text = fig.render(record)
        camp.write_figure_artifacts(
            results_dir, name, text,
            camp.figure_payload(
                name, fig.scenario, record,
                seed=res.seed, scale=res.scale, tasks=len(outs),
                from_cache=sum(1 for o in outs if o.from_cache),
                elapsed_s=sum(o.elapsed_s for o in outs),
            ),
        )
        print("\n" + text)
    camp.write_campaign_summary(results_dir, res.summary())


def _campaign_cmd(args) -> int:
    """``repro campaign``: sharded, cached sweeps (docs/CAMPAIGN.md)."""
    from repro import campaign as camp

    if args.campaign_cmd == "list":
        print("registered campaign figures:")
        total = 0
        for name, fig in camp.FIGURES.items():
            n = fig.task_count()
            total += n
            print(f"  {name:8s} {n:3d} tasks  {fig.scenario}")
        print(f"total: {total} tasks")
        return 0

    results_dir = args.results_dir or camp.default_results_dir()

    if args.campaign_cmd == "status":
        stats = camp.ResultCache(camp.default_cache_dir(results_dir)).stats()
        summary = camp.read_campaign_summary(results_dir)
        if summary is None:
            print(f"no campaign summary under {results_dir}")
        else:
            c = summary["cache"]
            print(render_table(
                "last campaign",
                ["metric", "value"],
                [
                    ("figures", ", ".join(summary["figures"])),
                    ("tasks", summary["tasks_total"]),
                    ("failures", summary["failures"]),
                    ("wall s", summary["wall_s"]),
                    ("workers", summary["workers"]),
                    ("scale", summary["scale"]),
                    ("seed", summary["seed"]),
                    ("cache hits", c["hits"]),
                    ("cache hit rate", c["hit_rate"]),
                ],
            ))
        print(f"cache: {stats['entries']} entries, "
              f"{stats['bytes'] / 1e6:.2f} MB under {stats['dir']}")
        return 0

    figures = None
    if args.figures:
        figures = [f.strip() for f in args.figures.split(",") if f.strip()]
        unknown = [f for f in figures if f not in camp.FIGURES]
        if unknown:
            print(f"unknown figure(s) {', '.join(unknown)}; "
                  "try `repro campaign list`")
            return 2
    cache = None
    if not args.no_cache:
        cache = camp.ResultCache(camp.default_cache_dir(results_dir))
    journal_dir = os.path.join(results_dir, camp.JOURNAL_SUBDIR)

    if args.campaign_cmd == "merge":
        try:
            res = camp.merge_shards(
                figures,
                shards=args.shards,
                scale=FAST_SCALE if args.fast else 1.0,
                seed=args.seed,
                journal_dir=journal_dir,
                cache=cache,
            )
        except camp.JournalError as exc:
            print(f"merge refused: {exc}")
            return 2
        _emit_campaign_artifacts(camp, res, results_dir)
        missing = [o for o in res.failures
                   if o.error and o.error.startswith("missing")]
        report = res.quarantine_report()
        if report:
            print("\n" + report)
        print(f"\nmerge: {len(res.outcomes)} tasks from "
              f"{res.shard[0]}/{res.shard[1]} shard journal(s), "
              f"{len(res.failures)} failure(s) -> {results_dir}")
        if missing:
            return 2
        return 1 if res.failures else 0

    # run
    shard = (1, 1)
    if args.shard:
        try:
            shard = _parse_shard(args.shard)
        except ValueError as exc:
            print(f"bad --shard: {exc}")
            return 2
    if args.resume and args.no_journal:
        print("--resume needs the journal; drop --no-journal")
        return 2
    try:
        res = camp.run_campaign(
            figures,
            workers=args.workers,
            scale=FAST_SCALE if args.fast else 1.0,
            seed=args.seed,
            cache=cache,
            timeout_s=args.timeout_s,
            retries=args.retries,
            fail_tasks=args.fail_tasks,
            progress=True,
            shard=shard,
            journal_dir=None if args.no_journal else journal_dir,
            resume=args.resume,
            backoff_base_s=args.backoff_s,
        )
    except camp.JournalError as exc:
        print(f"resume refused: {exc}")
        return 2
    if shard == (1, 1):
        _emit_campaign_artifacts(camp, res, results_dir)
    else:
        # a shard holds an incomplete grid; figure artifacts would look
        # whole but lie — emission waits for `repro campaign merge`
        print(f"shard {shard[0]}/{shard[1]}: {len(res.outcomes)} task(s) "
              "journaled; run `repro campaign merge` once every shard "
              "is done")
    report = res.quarantine_report()
    if report:
        print("\n" + report)
    print(f"\ncampaign: {len(res.outcomes)} tasks in {res.wall_s:.1f}s wall, "
          f"cache {res.cache_hits}/{len(res.outcomes)} "
          f"({100 * res.cache_hit_rate:.0f}% hit rate), "
          f"{res.resumed_count} resumed, "
          f"{len(res.failures)} failure(s) -> {results_dir}")
    return 1 if res.failures else 0


#: systems that can be run under the tracer (``repro trace <name>``)
TRACEABLE = ("quickstart", "dpdk", "xdp")


def _trace_cmd(args) -> int:
    from repro.harness.experiment import run_dpdk, run_metronome, run_xdp
    from repro.harness.report import render_metrics
    from repro.trace import anatomy_report
    from repro.trace.chrome import (
        chrome_trace_dict,
        validate_chrome_trace,
        write_chrome_trace,
    )

    scale = FAST_SCALE if args.fast else 1.0
    duration = scaled(args.duration_ms, scale, 10)
    cfg = config.SimConfig(seed=args.seed)
    if args.experiment == "dpdk":
        res = run_dpdk(config.LINE_RATE_PPS, duration_ms=duration,
                       cfg=cfg, trace=True)
    elif args.experiment == "xdp":
        res = run_xdp(config.LINE_RATE_PPS, duration_ms=duration,
                      cfg=cfg, trace=True)
    else:
        res = run_metronome(config.LINE_RATE_PPS, duration_ms=duration,
                            cfg=cfg, trace=True)
    tracer = res.machine.tracer
    count = write_chrome_trace(tracer, args.out)
    problems = validate_chrome_trace(chrome_trace_dict(tracer))
    if problems:
        print(f"WARNING: exported trace failed self-check: {problems[:3]}")
    print(f"{count} events ({duration} ms simulated) -> {args.out}")
    print()
    print(anatomy_report(tracer,
                         title=f"wake-latency anatomy — {args.experiment}"))
    print()
    print(render_metrics(res.machine.metrics,
                         title=f"metrics — {args.experiment}"))
    return 1 if problems else 0


def _registered(name: str) -> Callable[[float, int], str]:
    """``repro run`` for a campaign-registry figure: its own table."""
    def run(duration_scale: float, seed: int) -> str:
        return render_figure(name, run_figure(name, duration_scale, seed))
    return run


EXPERIMENTS: Dict[str, Callable[[float, int], str]] = {
    **{name: _registered(name) for name in FIGURES},
    "fig2": _fig2,
    "fig5": _fig5,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig14": _fig14,
    "fig15": _fig15,
    "rotation": _rotation,
    "bidir": _bidir,
    "pacing": _pacing,
    "smt": _smt,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Metronome (CoNEXT 2020) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("quickstart", help="run Metronome at line rate")
    sub.add_parser("validate", help="quick pass/fail check of the headline claims")
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    run.add_argument("--fast", action="store_true",
                     help="~4x shorter simulated durations")
    tr = sub.add_parser(
        "trace",
        help="run a system with ns tracing; export Chrome JSON + anatomy")
    tr.add_argument("experiment", choices=TRACEABLE)
    tr.add_argument("--out", default="trace.json",
                    help="Chrome trace-event JSON output path")
    tr.add_argument("--duration-ms", type=int, default=40,
                    help="simulated duration before --fast scaling")
    tr.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    tr.add_argument("--fast", action="store_true")
    ch = sub.add_parser(
        "chaos",
        help="run fault-injection scenarios and check survival invariants")
    ch.add_argument("plan", nargs="?", default="all",
                    help="shipped plan name, or 'all' (default)")
    ch.add_argument("--list", action="store_true",
                    help="list the shipped fault plans")
    ch.add_argument("--plan-file", default=None,
                    help="JSON FaultPlan file (overrides the plan name)")
    ch.add_argument("--seed", type=int, action="append", default=None,
                    help="seed (repeatable; default 7, 42, 2020)")
    ch.add_argument("--duration-ms", type=int, default=40)
    ch.add_argument("--checkpoint-before-fault", action="store_true",
                    help="replay-debug gate: snapshot just before the "
                         "first fault window, re-run, and verify the "
                         "prefix and continuation replay byte-identical")
    ch.add_argument("--checkpoint-out", default=None, metavar="PATH",
                    help="with --checkpoint-before-fault: save the "
                         "captured MachineState JSON here")
    ck = sub.add_parser(
        "check",
        help="conformance: runtime invariant monitors + model-vs-sim oracle")
    ck.add_argument("--monitors", action="store_true",
                    help="run only the monitored scenario suite")
    ck.add_argument("--oracle", action="store_true",
                    help="run only the model-vs-sim lattice oracle")
    ck.add_argument("--all", action="store_true",
                    help="run both (the default when no selector is given)")
    ck.add_argument("--fast", action="store_true",
                    help="shorter simulated durations")
    ck.add_argument("--seed", type=int, default=17,
                    help="simulation seed (default 17, the xval seed)")
    ck.add_argument("--workers", type=int, default=0,
                    help="oracle lattice worker processes (0 = in-process)")
    ck.add_argument("--policy", default=None,
                    help="JSON TolerancePolicy file overriding the defaults")
    ck.add_argument("--cache", action="store_true",
                    help="reuse the campaign result cache for lattice points")
    from repro.lint.main import add_parser as add_lint_parser

    add_lint_parser(sub)
    ca = sub.add_parser(
        "campaign",
        help="sharded benchmark sweeps with result caching")
    casub = ca.add_subparsers(dest="campaign_cmd", required=True)
    casub.add_parser("list", help="list the registered figure sweeps")
    crun = casub.add_parser("run", help="run a campaign")
    crun.add_argument("--figures", default=None,
                      help="comma-separated figure names (default: all)")
    crun.add_argument("--workers", type=int, default=4,
                      help="worker processes (0 = serial in-process)")
    crun.add_argument("--no-cache", action="store_true",
                      help="ignore and do not update the result cache")
    crun.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    crun.add_argument("--fast", action="store_true",
                      help="~4x shorter simulated durations")
    crun.add_argument("--timeout-s", type=float, default=300.0,
                      help="per-task timeout (seconds)")
    crun.add_argument("--retries", type=int, default=2,
                      help="re-attempts per failed or timed-out task")
    crun.add_argument("--results-dir", default=None,
                      help="artifact directory (default benchmarks/results)")
    crun.add_argument("--resume", action="store_true",
                      help="replay this campaign's journal and re-execute "
                           "only its unfinished tasks")
    crun.add_argument("--shard", default=None, metavar="i/N",
                      help="run the i-th of N deterministic partitions of "
                           "the task grid (reassemble with `campaign merge`)")
    crun.add_argument("--no-journal", action="store_true",
                      help="skip the crash-safe journal (no --resume later)")
    crun.add_argument("--backoff-s", type=float, default=0.5,
                      help="base retry backoff, doubled per attempt with "
                           "seeded jitter (0 disables; default 0.5)")
    # test/CI hook: make the named figure's (or scenario's) tasks raise
    crun.add_argument("--fail-tasks", default=None, help=argparse.SUPPRESS)
    cmerge = casub.add_parser(
        "merge",
        help="reassemble a sharded campaign's artifacts from its journals")
    cmerge.add_argument("--shards", type=int, required=True, metavar="N",
                        help="total shard count the campaign was split into")
    cmerge.add_argument("--figures", default=None,
                        help="comma-separated figure names (default: all)")
    cmerge.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    cmerge.add_argument("--fast", action="store_true",
                        help="the shards were run with --fast")
    cmerge.add_argument("--no-cache", action="store_true",
                        help="do not fall back to the result cache for "
                             "tasks missing from the journals")
    cmerge.add_argument("--results-dir", default=None,
                        help="artifact directory (default benchmarks/results)")
    cst = casub.add_parser(
        "status", help="show the last campaign summary and cache stats")
    cst.add_argument("--results-dir", default=None)
    tf = sub.add_parser(
        "traffic",
        help="trace-driven traffic tools (docs/TRAFFIC.md)")
    tfsub = tf.add_subparsers(dest="traffic_cmd", required=True)
    tgen = tfsub.add_parser(
        "generate",
        help="materialize a shipped trace spec into a trace file")
    tgen.add_argument("name",
                      help="generator name (see `repro traffic generate "
                           "--list` in docs/TRAFFIC.md: benign, http-flood, "
                           "microburst-ddos, slow-drip, steady-background)")
    tgen.add_argument("--out", default=None,
                      help="output path; .gz compresses "
                           "(default <name>.trace.jsonl.gz)")
    tgen.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    tgen.add_argument("--duration-ms", type=int, default=100,
                      help="trace length in milliseconds (default 100)")
    tdesc = tfsub.add_parser(
        "describe", help="summarize a trace file (phases, rates, sha256)")
    tdesc.add_argument("path")
    tval = tfsub.add_parser(
        "validate", help="schema-validate a trace file; exit 2 when invalid")
    tval.add_argument("path")
    qs = [p for p in sub.choices.values()]
    for p in qs:
        if p.prog.endswith("quickstart"):
            p.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
            p.add_argument("--fast", action="store_true")
    return parser


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print("available experiments:")
        for name in sorted(EXPERIMENTS):
            print(f"  {name}")
        return 0
    scale = FAST_SCALE if getattr(args, "fast", False) else 1.0
    seed = getattr(args, "seed", config.DEFAULT_SEED)
    if args.command == "validate":
        from repro.harness.validate import run_validation

        print("validating headline claims (abbreviated runs)...")
        failures = run_validation()
        print("all claims hold" if failures == 0
              else f"{failures} claim(s) FAILED")
        return 1 if failures else 0
    if args.command == "trace":
        return _trace_cmd(args)
    if args.command == "chaos":
        return _chaos_cmd(args)
    if args.command == "check":
        return _check_cmd(args)
    if args.command == "campaign":
        return _campaign_cmd(args)
    if args.command == "traffic":
        return _traffic_cmd(args)
    if args.command == "lint":
        from repro.lint.main import main as lint_main

        return lint_main(args)
    if args.command == "quickstart":
        print(_quickstart(scale, seed))
        return 0
    print(EXPERIMENTS[args.experiment](scale, seed))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
