"""Spec layer: JSON round-trip, grid expansion, fast scaling."""

import pytest

from repro.campaign import FIGURES
from repro.campaign.spec import FigureSpec, TaskSpec


def test_task_spec_round_trip():
    spec = TaskSpec(figure="fig7", scenario="fig7_tl_sweep",
                    params={"tls_us": (300,), "duration_ms": 80},
                    seed=7, index=2)
    again = TaskSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.canonical() == spec.canonical()


def test_task_spec_params_are_json_normalized():
    spec = TaskSpec(figure="f", scenario="s",
                    params={"cases": ((1024, 10),), "duration_ms": 20})
    # tuples become lists at construction, so the in-process path and
    # the subprocess/cache paths see identical parameter values
    assert spec.params["cases"] == [[1024, 10]]


def test_canonical_excludes_index():
    a = TaskSpec(figure="f", scenario="s", params={"x": (1,)}, index=0)
    b = TaskSpec(figure="f", scenario="s", params={"x": (1,)}, index=5)
    assert a.canonical() == b.canonical()


def test_canonical_differs_by_seed_and_params():
    base = TaskSpec(figure="f", scenario="s", params={"x": (1,)}, seed=1)
    other_seed = TaskSpec(figure="f", scenario="s", params={"x": (1,)}, seed=2)
    other_params = TaskSpec(figure="f", scenario="s", params={"x": (2,)}, seed=1)
    assert base.canonical() != other_seed.canonical()
    assert base.canonical() != other_params.canonical()


def test_task_spec_validation():
    with pytest.raises(ValueError):
        TaskSpec(figure="", scenario="s", params={})
    with pytest.raises(ValueError):
        TaskSpec(figure="f", scenario="s", params={}, index=-1)


def test_figure_spec_grid_is_nested_loop_order():
    fig = FigureSpec(
        name="toy", scenario="toy", title="t", headers=("a", "b"),
        axes=("outer", "inner"), grid=((1, 2), ("x", "y")),
        duration_base=40, duration_floor=10,
    )
    tasks = fig.tasks(scale=1.0, seed=3)
    combos = [(t.params["outer"], t.params["inner"]) for t in tasks]
    assert combos == [([1], ["x"]), ([1], ["y"]), ([2], ["x"]), ([2], ["y"])]
    assert [t.index for t in tasks] == [0, 1, 2, 3]
    assert all(t.seed == 3 for t in tasks)
    assert fig.task_count() == 4


def test_figure_spec_duration_clamping():
    fig = FigureSpec(
        name="toy", scenario="toy", title="t", headers=("a",),
        axes=("x",), grid=((1,),), duration_base=80, duration_floor=20,
    )
    assert fig.tasks(scale=1.0)[0].params["duration_ms"] == 80
    assert fig.tasks(scale=0.25)[0].params["duration_ms"] == 20
    assert fig.tasks(scale=0.01)[0].params["duration_ms"] == 20


def test_figure_spec_validation():
    with pytest.raises(ValueError):
        FigureSpec(name="x", scenario="s", title="t", headers=("a",),
                   axes=("x", "y"), grid=((1,),))
    with pytest.raises(ValueError):
        FigureSpec(name="x", scenario="s", title="t", headers=("a",),
                   axes=(), grid=())


def test_shipped_figures_reference_real_scenarios():
    from repro.harness.scenarios import SCENARIOS

    for fig in FIGURES.values():
        assert fig.scenario in SCENARIOS
        # every sharded axis must be a keyword of the scenario
        import inspect

        params = inspect.signature(SCENARIOS[fig.scenario]).parameters
        for axis in fig.axes:
            assert axis in params, f"{fig.name}: {axis}"
        assert fig.duration_param in params
