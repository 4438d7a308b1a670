"""Calibration constants for the simulated testbed.

Every magic number in the reproduction lives here, next to the paper
measurement (or public kernel/hardware datum) that anchors it.  The
testbed being modelled is the paper's (Section 3.3): one isolated NUMA
node of an Intel Xeon Silver @ 2.1 GHz running Linux 5.4, Intel X520
10 GbE NICs, 64-byte packets.

Calibration policy (see DESIGN.md §1): constants are anchored to the
paper's *inputs and primitive measurements* (Table 1 sleep distributions,
application Mpps ceilings, Linux scheduler defaults), never to the output
of the experiment that uses them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.units import MS, US

# --------------------------------------------------------------------- #
# CPU
# --------------------------------------------------------------------- #

#: Base (and max, under the ``performance`` governor) core frequency.
#: Paper §3.3: "Intel Xeon Silver 2.10GHz cores".
BASE_FREQ_HZ = 2_100_000_000

#: Minimum frequency the ``ondemand`` governor may select.  Xeon Silver
#: 4110-class parts idle at 800 MHz.
MIN_FREQ_HZ = 800_000_000

#: Direct cost of a context switch (save/restore, runqueue bookkeeping).
#: ~1-2 us is the commonly measured figure on Skylake-SP class servers.
CONTEXT_SWITCH_NS = 1_200

#: SMT (hyper-threading): when both hardware threads of a core pair are
#: busy, each proceeds at this fraction of the full core throughput
#: (shared execution ports/caches).  The paper's §1 notes that "100%
#: usage of computing units is not favorable to performance in scenarios
#: where threads run on hyper-threaded machines"; the SMT extension
#: experiment quantifies it.  Pairs are off by default (cfg.smt_pairs).
SMT_SLOWDOWN = 0.65

#: Cache-warmup penalty: extra per-packet cost multiplier applied for a
#: short window after a thread regains the CPU from a different thread.
#: Models the indirect cost of context switching (cold caches/TLB).
CACHE_WARMUP_NS = 8_000
CACHE_WARMUP_FACTOR = 1.6

# --------------------------------------------------------------------- #
# Scheduler (Linux CFS defaults for a small runqueue)
# --------------------------------------------------------------------- #

SCHED_LATENCY_NS = 6 * MS          #: sysctl_sched_latency
SCHED_MIN_GRANULARITY_NS = 750_000  #: sysctl_sched_min_granularity
SCHED_WAKEUP_GRANULARITY_NS = 1 * MS  #: sysctl_sched_wakeup_granularity
SCHED_TICK_NS = 1 * MS             #: CONFIG_HZ=1000 tick

# --------------------------------------------------------------------- #
# Syscall / kernel-entry costs (mechanistic sleep-service model, §3.1)
# --------------------------------------------------------------------- #

#: Bare syscall entry+exit (SYSCALL/SYSRET + entry code) with KPTI on:
#: the CR3 switch alone costs several hundred cycles.
SYSCALL_ENTRY_EXIT_NS = 250

#: nanosleep() preamble beyond the bare entry: access_ok()/copy_from_user
#: of struct timespec (with the KPTI-induced TLB miss the paper calls
#: out), timespec64→ktime conversion, hrtimer_init_sleeper on the heap
#: path.  Total preamble ≈ 1.2 us of CPU before the timer is armed.
NANOSLEEP_PREAMBLE_NS = 950

#: hr_sleep() preamble: single-register argument, on-stack timer entry,
#: no cross-ring move, no allocator interaction (§3.1).
HRSLEEP_PREAMBLE_NS = 120

#: Kernel work after wakeup before returning to user space (dequeue the
#: sleeper, restore context, syscall exit).  nanosleep touches the
#: restart block and the user timespec again on the way out.
NANOSLEEP_POSTAMBLE_NS = 550
HRSLEEP_POSTAMBLE_NS = 180

#: SCHED_OTHER timer slack applied by hrtimer range timers to nanosleep
#: (task->timer_slack_ns defaults to 50 us).  This is the dominant term
#: behind Table 1's ~58 us nanosleep overhead.  hr_sleep() arms a
#: non-range timer and is unaffected.
TIMER_SLACK_NS = 50 * US

#: HPET/LAPIC timer interrupt delivery + hrtimer_interrupt handling until
#: the wakeup callback runs.
TIMER_IRQ_LATENCY_NS = 400
TIMER_IRQ_HANDLER_NS = 900

# --------------------------------------------------------------------- #
# cpuidle model
# --------------------------------------------------------------------- #
# When a core idles, the menu governor picks a C-state from the predicted
# idle interval (next timer expiry).  Exit latency then delays the first
# instruction after wakeup.  The saturating curve below is calibrated so
# the *emergent* hr_sleep() distribution reproduces Table 1:
#   exit(sleep) ≈ IDLE_EXIT_BASE + IDLE_EXIT_AMP * (1 - exp(-sleep/IDLE_EXIT_TAU))
# anchors (paper Table 1, hr_sleep overhead minus preamble/IRQ terms):
#   1us→~1.4us, 10us→~3.2us, 50us→~6.3us, 200us→~7.1us

IDLE_EXIT_BASE_NS = 1_000
IDLE_EXIT_AMP_NS = 6_200
IDLE_EXIT_TAU_NS = 28 * US
#: Coefficient of variation of the exit-latency sample (Gamma-distributed);
#: sized so 99th percentiles match Table 1 (e.g. 3.80 mean / 3.92 99p at 1us).
IDLE_EXIT_CV = 0.10

# --------------------------------------------------------------------- #
# OS noise (kernel daemons), §4.2.4 / Figure 5 tail
# --------------------------------------------------------------------- #

#: Mean interval between per-core kernel-daemon bursts (kworkers, RCU...).
OS_NOISE_MEAN_PERIOD_NS = 4 * MS
#: Burst service time bounds (uniform).
OS_NOISE_MIN_NS = 10_000
OS_NOISE_MAX_NS = 60_000

# --------------------------------------------------------------------- #
# NIC / DPDK datapath
# --------------------------------------------------------------------- #

#: 10 GbE line rate with 64B frames (+20B framing) = 14.88 Mpps.
LINE_RATE_PPS = 14_880_952
#: Paper's maximum bidirectional throughput per port (§5.1).
BIDIR_RATE_PPS = 11_610_000

#: Default Rx descriptor ring size (DPDK default; Table 3 sweeps to 4096).
DEFAULT_RX_RING = 1024
MAX_RX_RING = 4096
MIN_RX_RING = 32

#: rx burst size (paper Appendix B: "usually set to 32").
RX_BURST = 32
#: Tx batching threshold (§5.4 discusses lowering it to 1).
DEFAULT_TX_BATCH = 32

#: Fixed cost of one rte_eth_rx_burst() call (PMD prologue, reading the
#: ring tail, buffer replenish amortization).
RX_BURST_FIXED_NS = 30
#: Cost of an *empty* poll (checks the ring, finds nothing).
RX_POLL_EMPTY_NS = 20
#: Per-packet Tx enqueue + descriptor write-back cost.
TX_PKT_NS = 6
#: Cost of flushing the Tx buffer (doorbell write).
TX_FLUSH_NS = 50

#: trylock(): one CMPXCHG plus branch; contended case costs a cache-line
#: bounce.
TRYLOCK_NS = 25
TRYLOCK_CONTENDED_NS = 70
UNLOCK_NS = 15

# --------------------------------------------------------------------- #
# Application per-packet costs
# --------------------------------------------------------------------- #
# Calibrated from the Mpps ceilings the paper reports.  With the
# per-burst fixed cost above, effective service rate
#   mu = BURST / (RX_BURST_FIXED + BURST * pkt_cost)
#
# l3fwd(LPM): Table 2 implies mu ≈ 29 Mpps (B ≈ V at line rate, eq. 3):
#   (30 + 32*(25+6) + 50)/32 ≈ 33.5 ns/pkt → 29.9 Mpps.  The drain
# condition at burst=1 (RX_BURST_FIXED + pkt_cost < 67.2 ns inter-arrival
# at line rate) must hold or busy periods never terminate.
#: l3fwd longest-prefix-match lookup + header rewrite, per packet.
L3FWD_PKT_NS = 25
#: ipsec-secgw: paper §5.7 measures 5.61 Mpps max → ~178 ns/pkt.
IPSEC_PKT_NS = 175
#: FloWatcher run-to-completion: sustains line rate with margin (§5.7).
FLOWATCHER_PKT_NS = 28
#: XDP xdp_router_ipv4: 13.57 Mpps across 4 cores → ~295 ns/pkt
#: (page handling + eBPF program + DMA sync).
XDP_PKT_NS = 290
#: Per-interrupt housekeeping for XDP (§5.5: "per-interrupt housekeeping
#: instructions"): IRQ entry/exit + NAPI scheduling.
XDP_IRQ_NS = 2_600
#: Per-interrupt moderation gap (ixgbe rx-usecs class of tuning):
#: the NIC raises at most one Rx interrupt per queue every ITR interval.
#: ~30 us reproduces both XDP's low-rate CPU (Figure 12b) and its
#: low-rate latency (Figure 12a).
XDP_ITR_NS = 30 * US
#: Page-pool / buffer-recycling warmup after an idle spell: the first
#: packets after cold start pay the allocator path (~2x), which is the
#: mechanism behind XDP "losing some tens of thousands of packets"
#: on a cold line-rate burst (paper §5.5) before the pool warms.
XDP_WARM_PKTS = 30_000
XDP_WARM_FACTOR = 2.2
#: Idle time after which the page pool is considered cold again.
XDP_COLD_IDLE_NS = 5 * MS
#: NAPI poll budget (Linux default).
NAPI_BUDGET = 64

# --------------------------------------------------------------------- #
# NUMA / multi-socket topology (scale-out model, docs/SCALE.md)
# --------------------------------------------------------------------- #
# The paper's testbed is one isolated NUMA node, so every penalty below
# is *structurally inert* at the default ``numa_nodes=1``: no core is
# ever remote from the timer fabric or from a queue's DMA memory, and
# the sleep/wake and drain paths add exactly 0 ns.  Multi-socket
# configurations (the 100G scale-out figures) pay them.

#: Extra timer-IRQ delivery latency for a core on a socket remote from
#: the I/O node (IPI forwarding across UPI/QPI plus the remote LAPIC
#: write).  ~1-2 us is the commonly measured cross-socket wakeup gap on
#: two-socket Skylake-SP class servers.
CROSS_SOCKET_WAKE_NS = 1_800

#: Per-``rx_burst`` surcharge when the serving core is remote from the
#: queue's descriptor ring / DMA buffers (remote-DRAM descriptor reads
#: and the doorbell write crossing the interconnect).
NUMA_REMOTE_BURST_NS = 160

#: Per-packet surcharge for touching remote packet payload (one or two
#: remote cache-line fills above the ~local cost baked into the apps).
NUMA_REMOTE_PKT_NS = 4

#: Extra trylock cost when the lock's cache line lives on the other
#: socket (cross-socket cache-line transfer vs an on-die bounce).
NUMA_REMOTE_TRYLOCK_NS = 60

# --------------------------------------------------------------------- #
# Metronome defaults (paper §5 preamble)
# --------------------------------------------------------------------- #

DEFAULT_VBAR_NS = 10 * US       #: target vacation period V̄
DEFAULT_TL_NS = 500 * US        #: long (backup) timeout T_L
DEFAULT_M = 3                   #: number of Metronome threads
DEFAULT_ALPHA = 0.125           #: EWMA weight for the ρ estimator (eq. 10)

# --------------------------------------------------------------------- #
# Power model (anchored to Xeon Silver 4110 RAPL package numbers)
# --------------------------------------------------------------------- #

#: Package idle power (uncore + DRAM refresh share), watts.
PKG_IDLE_W = 14.0
#: Per-core power at 100% utilization and max frequency, watts.
CORE_ACTIVE_MAX_W = 7.0
#: Per-core leakage when idle in a C-state, watts.
CORE_IDLE_W = 0.4
#: Dynamic power frequency exponent (P ∝ f·V² and V roughly ∝ f).
FREQ_POWER_EXP = 2.4

#: ondemand governor sampling period and up-threshold (Linux defaults).
ONDEMAND_SAMPLE_NS = 10 * MS
ONDEMAND_UP_THRESHOLD = 0.63

# --------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------- #

#: MoonGen-style latency sampling: every Kth packet carries a timestamp.
LATENCY_SAMPLE_EVERY = 256

#: Hardware latency floor of the measurement path: NIC Rx pipeline, two
#: PCIe traversals, NIC Tx pipeline and MoonGen's timestamping, which
#: every wire-to-wire sample includes.  Anchored to the paper's minimum
#: DPDK latency of 6.83 us (§5.4) minus the modelled software path.
HW_LATENCY_FLOOR_NS = 5_100

#: Default experiment seed.
DEFAULT_SEED = 2020


@dataclass
class SimConfig:
    """Bundle of tunables an experiment can override without touching
    module-level constants.

    The defaults reproduce the paper's §5 baseline configuration:
    V̄ = 10 us, T_L = 500 us, M = 3, 1024-descriptor ring, burst 32,
    ``performance`` governor, 64B packets at 10 GbE.
    """

    seed: int = DEFAULT_SEED
    governor: str = "performance"
    num_cores: int = 6
    #: optional SMT topology: list of (core_a, core_b) sibling pairs
    smt_pairs: list = None
    #: NUMA sockets the cores are split across (contiguous blocks);
    #: 1 = the paper's isolated single node, where every cross-socket
    #: penalty above is structurally inert (docs/SCALE.md)
    numa_nodes: int = 1
    rx_ring_size: int = DEFAULT_RX_RING
    rx_burst: int = RX_BURST
    tx_batch: int = DEFAULT_TX_BATCH
    vbar_ns: int = DEFAULT_VBAR_NS
    tl_ns: int = DEFAULT_TL_NS
    num_threads: int = DEFAULT_M
    alpha: float = DEFAULT_ALPHA
    latency_sample_every: int = LATENCY_SAMPLE_EVERY
    os_noise: bool = True
    timer_slack_ns: int = TIMER_SLACK_NS
