"""The monitored scenario suite behind ``repro check --monitors``.

Each scenario builds a workload with every invariant monitor enabled
(:meth:`Machine.enable_checks` before construction, so the trylocks and
Rx queues bind to the live registry), runs it, quiesces, and reports the
registry's verdict.  The suite spans the code paths the monitors watch:
both sleep services, fixed and adaptive tuning, the starvation watchdog,
multi-queue Metronome, and the DPDK/XDP baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import config
from repro.sim.units import US


def _metronome(seed: int, duration_ms: int, **kwargs):
    from repro.harness.experiment import run_metronome

    res = run_metronome(
        kwargs.pop("rate", config.LINE_RATE_PPS),
        duration_ms=duration_ms,
        cfg=config.SimConfig(seed=seed, os_noise=False),
        checks=True,
        **kwargs,
    )
    return res.machine.checks


def _adaptive_cbr(seed: int, duration_ms: int):
    """Line-rate CBR under the adaptive controller, M=2."""
    return _metronome(seed, duration_ms, num_threads=2)


def _poisson_fixed(seed: int, duration_ms: int):
    """Poisson line rate with fixed timeouts, M=3 (the Figure 5 setup)."""
    from repro.core.tuning import FixedTuner
    from repro.nic.traffic import PoissonProcess
    from repro.sim.rng import RandomStreams

    return _metronome(
        seed, duration_ms,
        rate=PoissonProcess(
            # repro: allow[P002] scenario driver, not an observer: the
            # monitored run's workload draws from its own named stream
            config.LINE_RATE_PPS, RandomStreams(seed).numpy_stream("check")
        ),
        tuner=FixedTuner(ts_ns=10 * US, tl_ns=500 * US),
        num_threads=3,
    )


def _nanosleep_low_rate(seed: int, duration_ms: int):
    """nanosleep service at low load: slack-stretched sleeps, idle cores."""
    return _metronome(
        seed, duration_ms,
        rate=200_000, sleep_service="nanosleep", num_threads=3,
    )


def _watchdog(seed: int, duration_ms: int):
    """Starvation watchdog armed at low rate, so its early wakes and
    timeout clamps exercise the sleep monitor's external-wake path."""
    from repro.core.metronome import WatchdogConfig

    return _metronome(
        seed, duration_ms,
        rate=500_000, num_threads=3,
        watchdog=WatchdogConfig(),
    )


def _two_queues(seed: int, duration_ms: int):
    """Two shared Rx queues, three threads: per-queue locks and
    conservation across a multi-queue scan."""
    from repro.core.tuning import AdaptiveTuner
    from repro.harness.experiment import _metronome_builder, _run
    from repro.nic.traffic import CbrProcess

    cfg = config.SimConfig(seed=seed, os_noise=False)
    # the group's own default controller (rho seeded at 0), not the
    # runners' mid-range seed
    tuner = AdaptiveTuner(vbar_ns=cfg.vbar_ns, tl_ns=cfg.tl_ns, m=3,
                          alpha=cfg.alpha)
    _group, fields = _run(
        _metronome_builder(app=None, tuner=tuner, num_threads=3, cores=None),
        [CbrProcess(2_000_000), CbrProcess(4_000_000)], duration_ms, cfg,
        label="two-queues", checks=True,
    )
    return fields["machine"].checks


def _dpdk_baseline(seed: int, duration_ms: int):
    from repro.harness.experiment import run_dpdk

    res = run_dpdk(
        config.LINE_RATE_PPS, duration_ms=duration_ms,
        cfg=config.SimConfig(seed=seed, os_noise=False), checks=True,
    )
    return res.machine.checks


def _xdp_baseline(seed: int, duration_ms: int):
    from repro.harness.experiment import run_xdp

    res = run_xdp(
        4_000_000, duration_ms=duration_ms, num_queues=2,
        cfg=config.SimConfig(seed=seed, os_noise=False), checks=True,
    )
    return res.machine.checks


#: name → builder; every builder returns the post-quiesce registry
MONITORED_SCENARIOS: Dict[str, Callable] = {
    "metronome-adaptive-cbr": _adaptive_cbr,
    "metronome-poisson-fixed": _poisson_fixed,
    "metronome-nanosleep-low-rate": _nanosleep_low_rate,
    "metronome-watchdog": _watchdog,
    "metronome-two-queues": _two_queues,
    "dpdk-baseline": _dpdk_baseline,
    "xdp-baseline": _xdp_baseline,
}


@dataclass(frozen=True)
class ScenarioVerdict:
    """One monitored scenario's outcome."""

    name: str
    checked: int                  # total monitor observations
    violations: Tuple[str, ...]   # formatted, capped upstream

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class MonitorReport:
    """The whole monitored suite's outcome."""

    verdicts: Tuple[ScenarioVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def total_checked(self) -> int:
        return sum(v.checked for v in self.verdicts)

    def render(self) -> str:
        lines = [
            f"invariant monitors: {len(self.verdicts)} scenario(s), "
            f"{self.total_checked:,} checks"
        ]
        for v in self.verdicts:
            state = "ok" if v.ok else f"{len(v.violations)} VIOLATION(S)"
            lines.append(f"  {v.name:32s} {v.checked:>12,d} checks  {state}")
            for msg in v.violations[:20]:
                lines.append("    " + msg)
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def run_monitors(
    names: Optional[Sequence[str]] = None,
    seed: int = config.DEFAULT_SEED,
    duration_ms: int = 25,
    fast: bool = False,
) -> MonitorReport:
    """Run the monitored suite; ``fast`` shortens every run to 8 ms."""
    if names is None:
        names = tuple(MONITORED_SCENARIOS)
    unknown = sorted(set(names) - set(MONITORED_SCENARIOS))
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {unknown}; "
            f"known: {list(MONITORED_SCENARIOS)}"
        )
    duration = 8 if fast else duration_ms
    verdicts: List[ScenarioVerdict] = []
    for name in names:
        registry = MONITORED_SCENARIOS[name](seed, duration)
        formatted = [v.format() for v in registry.violations]
        if registry.dropped:
            formatted.append(
                f"... and {registry.dropped} violation(s) past the cap"
            )
        verdicts.append(
            ScenarioVerdict(
                name=name,
                checked=registry.total_checked,
                violations=tuple(formatted),
            )
        )
    return MonitorReport(tuple(verdicts))
