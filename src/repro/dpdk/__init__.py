"""The DPDK-like poll-mode layer.

* :mod:`repro.dpdk.app` — the application interface (per-packet cost +
  real work on tagged packets) shared by the poll-mode driver, Metronome
  and XDP.
* :mod:`repro.dpdk.lcore` — the classic ``while(1)`` polling lcore
  (paper Listing 1), with the empty-poll fast-forward optimization.
"""

from repro.dpdk.app import CountingApp, PacketApp
from repro.dpdk.lcore import PollModeLcore

__all__ = [
    "PacketApp",
    "CountingApp",
    "PollModeLcore",
]
