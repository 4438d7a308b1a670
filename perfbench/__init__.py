"""The repository benchmark: four receiver workloads, host-cost and
modelled end-to-end metrics, and outside-in per-layer spans.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload metronome-0.5g --seed 1 \\
        --seconds 12 --trace 0

The benchmark imports the simulator from the checkout's own ``src/``
tree and nothing else; see :func:`use_source_tree`.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: root of the checkout that holds this package
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: where traced runs write their span files (ignored by git)
OUT = Path(__file__).resolve().parent / "out"


def use_source_tree() -> bool:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Returns False when the checkout has no simulator sources, so the
    benchmark can refuse to run instead of importing an installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True
