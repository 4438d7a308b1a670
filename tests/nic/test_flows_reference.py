"""The on-first-use ``FlowSet`` agrees with the eager reference.

``tests/nic/reference.py`` keeps the population that built every
header at construction.  Hypothesis draws the population's parameters
(above 256 prefixes the /24s collide) and an access order with
negative, past-the-end and numpy-integer indices; every header and
destination list must match, errors included, whatever the order in
which the lazy population fills in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nic.flows import FlowSet
from tests.nic.reference import EagerFlowSet


def _outcome(call):
    """A call's result, or the type of the error it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc)


@st.composite
def populations(draw):
    num_flows = draw(st.integers(1, 4096))
    params = dict(
        num_flows=num_flows,
        num_prefixes=draw(st.integers(1, 600)),
        pkt_len=draw(st.integers(1, 9216)),
        seed=draw(st.integers(0, (1 << 32) - 1)),
    )
    index = st.one_of(
        st.integers(0, num_flows - 1),
        st.integers(-num_flows, -1),                     # wraps
        st.integers(num_flows, num_flows + 3),           # past the end
        st.integers(-num_flows - 3, -num_flows - 1),     # before the start
    )
    kind = st.sampled_from(["int", "int64", "uint16", "seq"])
    accesses = draw(st.lists(st.tuples(kind, index), max_size=40))
    return params, accesses


@settings(max_examples=60, deadline=None)
@given(case=populations())
def test_lazy_flowset_matches_eager_reference(case):
    params, accesses = case
    lazy, eager = FlowSet(**params), EagerFlowSet(**params)
    for kind, i in accesses:
        if kind == "seq":
            seq = i * 7919
            assert lazy.header_for(seq) == eager.header_for(seq)
            continue
        if kind == "int64":
            i = np.int64(i)
        elif kind == "uint16":
            if not 0 <= i < 1 << 16:
                continue
            i = np.uint16(i)
        got = _outcome(lambda: lazy.header_of_flow(i))
        want = _outcome(lambda: eager.header_of_flow(i))
        assert got == want, (kind, i)
        # the memo hands out one object per flow, like the eager list
        if not isinstance(got, type):
            assert lazy.header_of_flow(i) is got
    assert lazy.all_destinations() == eager.all_destinations()
    # every header, after the drawn order filled some of them first
    for i in range(params["num_flows"]):
        assert lazy.header_of_flow(i) == eager.header_of_flow(i)


def test_no_header_built_before_first_use():
    fs = FlowSet()
    assert fs._headers == [None] * fs.num_flows
    fs.all_destinations()
    assert fs._headers == [None] * fs.num_flows
    h = fs.header_of_flow(-1)
    assert fs._headers[-1] is h
    assert sum(x is not None for x in fs._headers) == 1


@pytest.mark.parametrize("bad", [1.0, "1", None])
def test_non_integer_index_rejected_like_a_list(bad):
    with pytest.raises(TypeError):
        FlowSet(num_flows=4).header_of_flow(bad)
    with pytest.raises(TypeError):
        EagerFlowSet(num_flows=4).header_of_flow(bad)
