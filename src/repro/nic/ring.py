"""The Rx descriptor ring.

Models an Intel X520-style receive ring: a fixed number of descriptors
(32–4096, paper Appendix B), FIFO semantics, tail-drop when no free
descriptor is available.  Per-packet state is not stored — the ring
tracks occupancy and the sequence-number window [head_seq, tail_seq).
"""

from __future__ import annotations

from repro import config


class DescriptorRing:
    """Occupancy-counting FIFO ring with tail-drop.

    ``offer`` and ``pop`` run on every poll, so they work on the
    sequence window in locals; the ``occupancy``, ``free`` and
    ``accepted_total`` properties are for readers.
    """

    def __init__(self, capacity: int = config.DEFAULT_RX_RING):
        if not config.MIN_RX_RING <= capacity <= config.MAX_RX_RING:
            raise ValueError(
                f"ring size {capacity} outside "
                f"[{config.MIN_RX_RING}, {config.MAX_RX_RING}]"
            )
        self.capacity = capacity
        #: sequence number of the next packet to be popped (retrieved)
        self.head_seq = 0
        #: sequence number the next accepted packet will get
        self.tail_seq = 0
        #: total packets dropped for lack of descriptors
        self.drops = 0
        #: high-water mark of occupancy
        self.max_occupancy = 0

    @property
    def occupancy(self) -> int:
        return self.tail_seq - self.head_seq

    @property
    def free(self) -> int:
        return self.capacity - self.occupancy

    @property
    def accepted_total(self) -> int:
        """All packets that ever entered the ring."""
        return self.tail_seq

    def offer(self, n: int) -> int:
        """Offer ``n`` arriving packets; returns how many were accepted.

        The first ``accepted`` packets (FIFO) enter the ring; the rest
        are tail-dropped.
        """
        if n < 0:
            raise ValueError("negative packet count")
        head = self.head_seq
        tail = self.tail_seq
        free = self.capacity - (tail - head)
        if n <= free:
            accepted = n
        else:
            accepted = free
            self.drops += n - free
        tail += accepted
        self.tail_seq = tail
        if tail - head > self.max_occupancy:
            self.max_occupancy = tail - head
        return accepted

    def pop(self, n: int) -> int:
        """Retrieve up to ``n`` packets; returns how many were popped."""
        if n < 0:
            raise ValueError("negative burst")
        head = self.head_seq
        got = self.tail_seq - head
        if n < got:
            got = n
        self.head_seq = head + got
        return got
