"""Outside-in layer spans for the traced benchmark run.

:class:`Tracer` installs timing wrappers around the entry points of the
simulator's runtime packages (the layers), records one span per call —
``(site, parent, start, end)`` in compact in-memory arrays — and removes
every wrapper again on exit.  Nothing under ``src/`` changes: the
wrappers replace class attributes for the lifetime of the ``with``
block only, and they neither schedule events nor draw randomness, so a
traced run's simulated outputs are identical to an untraced one (the
benchmark checks this on every traced run).

A span's *self time* is its duration minus the durations of its direct
child spans; a layer's self time is the sum over the spans attributed
to it.  Callbacks handed to ``Simulator.call_at``/``call_after`` and
thread bodies handed to ``Machine.spawn`` are attributed to the package
that defines them, so e.g. a scheduler completion event counts as
``kernel`` and a Metronome thread's ``send`` as ``core``.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Tuple

#: the layers, in report order; ``other`` collects anything unmapped
LAYERS = ("sim", "kernel", "nic", "traffic", "core", "dpdk", "xdp", "apps",
          "metrics", "other")

#: module prefix -> layer, first match wins (arrival processes live in
#: ``repro.nic.traffic`` but belong to the traffic layer)
_MODULE_LAYERS = (
    ("repro.nic.traffic", "traffic"),
    ("repro.traffic", "traffic"),
    ("repro.sim", "sim"),
    ("repro.kernel", "kernel"),
    ("repro.nic", "nic"),
    ("repro.core", "core"),
    ("repro.dpdk", "dpdk"),
    ("repro.xdp", "xdp"),
    ("repro.apps", "apps"),
    ("repro.metrics", "metrics"),
)


def layer_of_module(module: str) -> str:
    """The layer a module of the simulator belongs to."""
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class SpanRecorder:
    """Spans in four parallel arrays plus the stack of open spans."""

    def __init__(self) -> None:
        #: (site label, layer) per site id
        self.sites: List[Tuple[str, str]] = []
        self._site_ids: Dict[object, int] = {}
        self.site = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = []

    def site_id(self, key: object, label: str, layer: str) -> int:
        sid = self._site_ids.get(key)
        if sid is None:
            sid = len(self.sites)
            self.sites.append((label, layer))
            self._site_ids[key] = sid
        return sid

    def enter(self, site: int) -> None:
        idx = len(self.site)
        stack = self._stack
        self.site.append(site)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0)
        stack.append(idx)
        self.start.append(perf_counter_ns())

    def leave(self) -> None:
        t = perf_counter_ns()
        self.end[self._stack.pop()] = t

    def clear(self) -> None:
        """Drop every recorded span (only valid with none open)."""
        if self._stack:
            raise RuntimeError("cannot clear spans while some are open")
        for arr in (self.site, self.parent, self.start, self.end):
            del arr[:]

    def __len__(self) -> int:
        return len(self.site)

    def per_site(self) -> List[Tuple[str, str, int, int]]:
        """``(label, layer, calls, self_ns)`` for every site."""
        import numpy as np

        n = len(self.site)
        nsites = len(self.sites)
        if n == 0:
            return [(lbl, lay, 0, 0) for lbl, lay in self.sites]
        site = np.frombuffer(self.site, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_ns = dur - child
        calls = np.bincount(site, minlength=nsites)
        site_self = np.bincount(site, weights=self_ns, minlength=nsites)
        return [
            (lbl, lay, int(calls[i]), int(site_self[i]))
            for i, (lbl, lay) in enumerate(self.sites)
        ]

    def write(self, path: Path) -> None:
        """Write the spans as an uncompressed ``.npz`` (site table as JSON)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            site=np.frombuffer(self.site, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            sites=np.array(json.dumps(self.sites)),
        )


def _timed_generator(gen, site: int, enter: Callable[[int], None],
                     leave: Callable[[], None]):
    """Forward every ``send`` into ``gen`` inside a span."""
    send = gen.send
    value = None
    while True:
        enter(site)
        try:
            action = send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            leave()
        value = yield action


def _subclasses(cls) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Tracer:
    """Installs the layer wrappers on enter and removes them on exit.

    Install it before the workload is built: several components bind
    methods such as ``sim.call_after`` at construction time.
    """

    def __init__(self) -> None:
        self.spans = SpanRecorder()
        #: Handle.cancel calls that actually cancelled a pending event
        self.cancels = 0
        #: rx_burst calls that returned no packet
        self.empty_bursts = 0
        #: site ids of callbacks (their calls sum to the sim calls)
        self.callback_sites: set = set()
        self._patches: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------ #

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _patch(self, owner: type, name: str, replacement: object) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        """Restore every patched attribute to the original object."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _span_method(self, owner: type, name: str, layer: str) -> None:
        orig = owner.__dict__[name]
        site = self.spans.site_id((owner, name), f"{owner.__name__}.{name}",
                                  layer)
        enter, leave = self.spans.enter, self.spans.leave

        def wrapper(*args, **kwargs):
            enter(site)
            try:
                return orig(*args, **kwargs)
            finally:
                leave()

        self._patch(owner, name, wrapper)

    # ------------------------------------------------------------------ #

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.apps import l3fwd  # noqa: F401  (registers app classes)
        from repro.core.trylock import TryLock
        from repro.core.tuning import AdaptiveTuner
        from repro.dpdk.app import PacketApp
        from repro.kernel.hrtimer import HrTimerQueue
        from repro.kernel.machine import Machine
        from repro.kernel.scheduler import CfsScheduler
        from repro.kernel.sleep import SleepService
        from repro.metrics.latency import LatencyStats
        from repro.nic import topology  # noqa: F401  (registers ReplayShard)
        from repro.nic.rxqueue import RxQueue
        from repro.nic.traffic import ArrivalProcess
        from repro.sim.core import Handle, Simulator
        from repro.traffic import replay  # noqa: F401  (registers replay)

        spans = self.spans
        enter, leave = spans.enter, spans.leave
        tracer = self

        # -- sim: the run loop, every scheduled callback, cancellations --
        run_site = spans.site_id("run", "Simulator.run", "sim")
        orig_run = Simulator.__dict__["run"]
        started = []

        def run(sim, until=None):
            if not started:
                # set-up spans (building the deployment) are not the run
                started.append(True)
                spans.clear()
            enter(run_site)
            try:
                return orig_run(sim, until)
            finally:
                leave()

        self._patch(Simulator, "run", run)

        cb_sites: Dict[object, int] = {}

        def wrap_callback(fn):
            func = getattr(fn, "__func__", fn)
            key = getattr(func, "__code__", None) or type(fn)
            site = cb_sites.get(key)
            if site is None:
                module = getattr(fn, "__module__", None) or type(fn).__module__
                label = getattr(func, "__qualname__", type(fn).__qualname__)
                site = spans.site_id(("callback", key),
                                     f"callback {module}.{label}",
                                     layer_of_module(module))
                cb_sites[key] = site
                tracer.callback_sites.add(site)

            def fire(*args):
                enter(site)
                try:
                    fn(*args)
                finally:
                    leave()

            return fire

        orig_call_at = Simulator.__dict__["call_at"]
        orig_call_after = Simulator.__dict__["call_after"]

        def call_at(sim, when, fn, *args):
            return orig_call_at(sim, when, wrap_callback(fn), *args)

        def call_after(sim, delay, fn, *args):
            return orig_call_after(sim, delay, wrap_callback(fn), *args)

        self._patch(Simulator, "call_at", call_at)
        self._patch(Simulator, "call_after", call_after)

        orig_cancel = Handle.__dict__["cancel"]

        def cancel(handle):
            was = handle.cancelled
            orig_cancel(handle)
            if not was and handle.cancelled:
                tracer.cancels += 1

        self._patch(Handle, "cancel", cancel)

        # -- thread bodies: each send attributed to the body's package --
        orig_spawn = Machine.__dict__["spawn"]

        def spawn(machine, body, name, nice=0, core=0):
            def start(kt):
                gen = body(kt) if callable(body) else body
                frame = getattr(gen, "gi_frame", None)
                module = frame.f_globals.get("__name__", "") if frame else ""
                label = getattr(gen, "__qualname__", type(gen).__qualname__)
                site = spans.site_id(("body", module, label),
                                     f"thread body {module}.{label}",
                                     layer_of_module(module))
                return _timed_generator(gen, site, enter, leave)

            return orig_spawn(machine, start, name, nice=nice, core=core)

        self._patch(Machine, "spawn", spawn)

        # -- kernel --
        orig_sleep = SleepService.__dict__["call"]
        sleep_site = spans.site_id("sleep", "SleepService.call", "kernel")

        def sleep_call(service, kt, duration_ns):
            return _timed_generator(orig_sleep(service, kt, duration_ns),
                                    sleep_site, enter, leave)

        self._patch(SleepService, "call", sleep_call)
        self._span_method(CfsScheduler, "wake", "kernel")
        self._span_method(HrTimerQueue, "arm", "kernel")

        # -- nic --
        orig_burst = RxQueue.__dict__["rx_burst"]
        burst_site = spans.site_id((RxQueue, "rx_burst"), "RxQueue.rx_burst",
                                   "nic")

        def rx_burst(*args, **kwargs):
            enter(burst_site)
            try:
                got = orig_burst(*args, **kwargs)
            finally:
                leave()
            if got[0] == 0:
                tracer.empty_bursts += 1
            return got

        self._patch(RxQueue, "rx_burst", rx_burst)
        self._span_method(RxQueue, "sync", "nic")
        self._span_method(RxQueue, "occupancy", "nic")

        # -- traffic: every arrival process's advance --
        for cls in _subclasses(ArrivalProcess):
            if "advance" in cls.__dict__:
                self._span_method(cls, "advance", "traffic")

        # -- core --
        self._span_method(TryLock, "try_acquire", "core")
        self._span_method(TryLock, "release", "core")
        self._span_method(AdaptiveTuner, "observe", "core")

        # -- apps and metrics --
        for cls in _subclasses(PacketApp):
            for name in ("handle", "batch_cost_ns"):
                if name in cls.__dict__:
                    self._span_method(cls, name, "apps")
        self._span_method(LatencyStats, "add", "metrics")

    # ------------------------------------------------------------------ #

    def per_layer(self) -> Dict[str, Dict[str, int]]:
        """``{layer: {"calls": n, "self_ns": t}}`` over every layer.

        A layer's calls are the spans attributed to it, callbacks
        included.  ``sim`` calls count the callbacks the event loop
        dispatched (the event core's unit of work), not entries into
        ``Simulator.run``.
        """
        out = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
        fired = 0
        for sid, (_label, layer, calls, self_ns) in enumerate(
                self.spans.per_site()):
            out[layer]["self_ns"] += self_ns
            if layer != "sim":
                out[layer]["calls"] += calls
            if sid in self.callback_sites:
                fired += calls
        out["sim"]["calls"] = fired
        return out

    def site_calls(self, label: str) -> int:
        """Spans recorded at the site with this label."""
        import numpy as np

        sid = next((i for i, (lbl, _layer) in enumerate(self.spans.sites)
                    if lbl == label), None)
        if sid is None:
            return 0
        site = np.frombuffer(self.spans.site, dtype=np.int32)
        return int(np.count_nonzero(site == sid))
