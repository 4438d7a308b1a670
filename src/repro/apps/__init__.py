"""The paper's three DPDK applications, plus the interference workload.

* :mod:`repro.apps.lpm` — longest-prefix-match routing tables: a
  reference binary trie and a DPDK-style DIR-24-8 compiled table.
* :mod:`repro.apps.l3fwd` — the L3 forwarder (paper §5.7, used for all
  of §5's headline experiments).
* :mod:`repro.apps.aes` — AES-128 and CBC mode, from scratch (FIPS-197 /
  SP 800-38A), used by the IPsec gateway.
* :mod:`repro.apps.ipsec` — the IPsec security gateway (ESP tunnel
  encapsulation; §5.7).
* :mod:`repro.apps.flowatcher` — FloWatcher-DPDK per-flow traffic
  monitoring (§5.7), with an exact flow table and a count-min sketch.
* :mod:`repro.apps.ferret` — a PARSEC-ferret-like CPU-bound batch job
  used as co-located interference (§5.6).
"""

from repro.apps.aes import AES128, AesCbc
from repro.apps.ferret import FerretWorkload
from repro.apps.flowatcher import CountMinSketch, FloWatcherApp
from repro.apps.ipsec import IpsecGatewayApp
from repro.apps.l3fwd import L3FwdApp
from repro.apps.lpm import Dir24_8, LpmTrie
from repro.apps.pacer import SleepPacer

__all__ = [
    "LpmTrie",
    "Dir24_8",
    "L3FwdApp",
    "AES128",
    "AesCbc",
    "IpsecGatewayApp",
    "FloWatcherApp",
    "CountMinSketch",
    "FerretWorkload",
    "SleepPacer",
]
