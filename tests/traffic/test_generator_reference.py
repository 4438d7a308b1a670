"""Trace generation draws what the stdlib calls would draw.

``generators._gen_window`` draws each record straight from its phase
stream's Mersenne Twister; ``tests/traffic/reference.gen_window`` keeps
the ``expovariate``/``randrange`` loop it replaced.  Hypothesis draws
phases (CBR or Poisson; rate 0, low or multi-Mpps; flow spaces of 1,
2, powers of two, one below them and past 2**32; continuous or
burst/gap windows; many seeds), and both loops must leave the same
``times`` and ``flows`` buffers and the same final ``rng.getstate()``.
Scripted uniforms at which a reordered gap expression truncates
differently pin ``expovariate``'s own expression, and every shipped
spec must generate the same columns either way.
"""

import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.units import MS, US
from repro.traffic import SHIPPED_TRACES, PhaseSpec, generate, generators
from tests.traffic import reference

FLOW_SPACES = st.one_of(
    st.sampled_from((1, 2, 3)),
    st.integers(2, 40).map(lambda k: 2 ** k),
    st.integers(2, 40).map(lambda k: 2 ** k - 1),
    st.integers(1, 100_000),
    st.integers(2 ** 32 + 1, 2 ** 62),
)

RATES = st.one_of(
    st.just(0),
    st.integers(1, 50_000),                # most windows hold no record
    st.integers(1_000_000, 20_000_000),    # multi-Mpps
)


@st.composite
def phase_specs(draw):
    burst = draw(st.one_of(st.just(0), st.integers(1, 50 * US)))
    return PhaseSpec(
        "p",
        duration_ns=draw(st.integers(1, 300 * US)),
        rate_pps=draw(RATES),
        arrival=draw(st.sampled_from(("cbr", "poisson"))),
        flows=draw(FLOW_SPACES),
        burst_ns=burst,
        gap_ns=draw(st.integers(1, 100 * US)) if burst else 0,
    )


class ScriptedRandom(random.Random):
    """A Mersenne Twister whose first ``random()`` draws are given.

    It overrides ``getrandbits`` too (by delegating), so ``randrange``
    keeps drawing through ``_randbelow_with_getrandbits``.
    """

    def __init__(self, uniforms, seed):
        super().__init__(seed)
        self._uniforms = iter(uniforms)

    def random(self):
        u = next(self._uniforms, None)
        return super().random() if u is None else u

    def getrandbits(self, k):
        return super().getrandbits(k)


#: uniforms (multiples of 2**-53, as ``random()`` makes) whose 3 Mpps
#: gap ``-log(1 - u) / lam`` lies within an ulp of an integer:
#: ``-log(1 - u) * (1 / lam)``, ``-log1p(-u) / lam`` and
#: ``log(1 / (1 - u)) / lam`` each truncate one of them differently
EDGE_UNIFORMS = tuple(k / 2 ** 53 for k in (
    26_981_105_869_592, 775_238_963_881_434, 2_151_884_865_220_911))


def _emit(window, spec, start, rng):
    """Run one phase's windows on ``rng``, as ``generate`` does; the
    buffers and the stream's final state."""
    times, flows = array("q"), array("q")
    end = start + spec.duration_ns
    if spec.burst_ns > 0:
        w = start
        while w < end:
            window(rng, spec, w, min(w + spec.burst_ns, end), times, flows)
            w += spec.burst_ns + spec.gap_ns
    else:
        window(rng, spec, start, end, times, flows)
    return times, flows, rng.getstate()


@settings(max_examples=200, deadline=None)
@given(spec=phase_specs(), start=st.integers(0, 10 ** 12),
       seed=st.integers(0, 2 ** 64))
def test_direct_draws_match_the_stdlib_calls(spec, start, seed):
    fast = _emit(generators._gen_window, spec, start, random.Random(seed))
    ref = _emit(reference.gen_window, spec, start, random.Random(seed))
    assert fast[0] == ref[0]
    assert fast[1] == ref[1]
    assert fast[2] == ref[2]


def test_gap_is_expovariates_own_expression():
    spec = PhaseSpec("p", 100 * US, 3_000_000, flows=256)
    fast = _emit(generators._gen_window, spec, 0,
                 ScriptedRandom(EDGE_UNIFORMS, 1))
    ref = _emit(reference.gen_window, spec, 0,
                ScriptedRandom(EDGE_UNIFORMS, 1))
    assert fast[0][:3] == array("q", [1, 31, 121])
    assert fast == ref


@pytest.mark.parametrize("seed", (1, 2, 7))
@pytest.mark.parametrize("name", sorted(SHIPPED_TRACES))
def test_shipped_specs_generate_as_the_stdlib_calls(name, seed, monkeypatch):
    spec = SHIPPED_TRACES[name](20 * MS)
    fast = generate(spec, seed)
    monkeypatch.setattr(generators, "_gen_window", reference.gen_window)
    ref = generate(spec, seed)
    assert fast.packet_count > 0
    for column in ("times", "lens", "flows"):
        assert np.array_equal(getattr(fast, column), getattr(ref, column))
    assert fast.phases == ref.phases
