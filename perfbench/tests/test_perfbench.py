"""Tests of the benchmark itself: its statistics, its span arithmetic, its
tracing (which must not change any output) and its ladder size checks.

    python3 -m pytest perfbench/tests
"""

import os

import pytest

import inputs
import run
import speed
import stats
import spans
from spans import Span


# -- tail percentile -------------------------------------------------------


def test_tail_takes_highest_percentile_with_ten_beyond():
    values = list(range(1, 1001))  # 1..1000
    pct, value, beyond = stats.tail(values)
    assert (pct, value, beyond) == (99.0, 990, 10)


def test_tail_steps_down_when_too_few_samples_lie_beyond():
    values = list(range(1, 1000))  # 999 samples: p99 leaves only 9 beyond
    pct, value, beyond = stats.tail(values)
    assert (pct, value, beyond) == (90.0, 900, 99)


def test_tail_falls_back_to_the_median_on_small_samples():
    pct, value, beyond = stats.tail([5, 1, 4, 2, 3])
    assert (pct, value, beyond) == (50.0, 3, 2)


def test_tail_percentile_can_follow_a_reference_count():
    values = list(range(1, 201))  # 200 samples would support p90 only
    pct, value, beyond = stats.tail(values, reference_count=1000)
    assert (pct, value, beyond) == (99.0, 198, 2)


def test_tail_ignores_sample_order():
    values = [float(v) for v in range(200)]
    assert stats.tail(values[::-1]) == stats.tail(values)


def test_spread_is_interquartile_range_over_median():
    assert stats.spread([10.0] * 10) == 0.0
    q = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert q == pytest.approx((4.5 - 1.5) / 3.0)


# -- host-speed scaling -----------------------------------------------------


def test_factors_use_the_median_of_a_window_around_each_op():
    refs = [0.5, 0.25, 0.25, 0.125, 0.125]
    f = speed.factors(refs, window=1)
    # op 0: median of refs[0:2]; op 2: median of refs[1:4]; op 4: of refs[3:5]
    assert f[0] == pytest.approx(speed.REF_MS / 0.375)
    assert f[2] == pytest.approx(speed.REF_MS / 0.25)
    assert f[4] == pytest.approx(speed.REF_MS / 0.125)


def test_scaling_at_a_steady_host_speed_is_one_factor():
    # the same factor for every op, so a program twice as fast reads twice
    # as fast after scaling
    f = speed.factors([speed.REF_MS * 1.25] * 30)
    assert f == pytest.approx([0.8] * 30)


def test_reference_task_uses_no_finsite_module():
    names = {getattr(v, "__name__", "") for v in vars(speed).values()}
    assert not any(n.startswith("finsite") for n in names)
    assert speed.reference_ms() > 0


# -- span arithmetic -------------------------------------------------------


def _tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping, as --jobs
    # workers can be) and [8, 9]; grandchild [2, 3] under the first child.
    return [
        Span(0, None, "op.report", 0, 1, 0.0, 10.0),
        Span(1, 0, "classify.task", 0, 2, 1.0, 4.0),
        Span(2, 0, "classify.task", 0, 3, 3.0, 6.0),
        Span(3, 0, "presheaf.homs", 0, 1, 8.0, 9.0),
        Span(4, 1, "presheaf.homs", 0, 2, 2.0, 3.0),
    ]


def test_self_time_subtracts_the_union_of_children():
    selfs = spans.self_times(_tree())
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_covered_clips_to_the_parent_interval():
    assert spans.covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)


def test_outermost_skips_spans_nested_in_the_same_group():
    tree = _tree() + [Span(5, 4, "presheaf.homs", 0, 2, 2.2, 2.8)]
    ids = sorted(s.id for s in spans.outermost(tree, {"presheaf.homs"}))
    assert ids == [3, 4]


# -- tracing changes no output ---------------------------------------------


@pytest.fixture(scope="module")
def finsite_loaded():
    run.import_finsite()


@pytest.mark.parametrize("workload", ["corpus-pipeline", "hom-ladder"])
def test_traced_and_untraced_outputs_are_identical(workload, tmp_path, finsite_loaded):
    inp = inputs.build(workload, 3, str(tmp_path))
    home = os.getcwd()
    os.chdir(tmp_path)
    rec = spans.Recorder()
    try:
        plain = [run.call_cli(op.argv) for op in inp.ops]
        rec.install()
        rec.enabled = True
        traced = [rec.run_op(op.kind, lambda: run.call_cli(op.argv)) for op in inp.ops]
    finally:
        rec.enabled = False
        rec.uninstall()
        os.chdir(home)
    assert all(code == 0 for code, _ in plain)
    assert traced == plain
    assert {s.name for s in rec.spans} >= {"siteio.load", "classify.report", "sheaf.sheafify"}


def test_uninstall_restores_every_binding(finsite_loaded):
    import finsite.objects
    import finsite.presheaf

    before = (finsite.presheaf.presheaf_homs, finsite.objects.presheaf_homs)
    rec = spans.Recorder()
    rec.install()
    assert finsite.objects.presheaf_homs is not before[1]
    rec.uninstall()
    assert (finsite.presheaf.presheaf_homs, finsite.objects.presheaf_homs) == before


# -- ladder size checks ----------------------------------------------------


@pytest.mark.parametrize(
    "rung",
    inputs.HOM_RUNGS + inputs.LATTICE_RUNGS + inputs.HOM_CLIMB[:8] + inputs.POSET_CLIMB[:8],
)
def test_rungs_have_their_known_sizes(rung, finsite_loaded):
    from finsite.topology import enumerate_topologies

    cat = inputs.ladder_category(rung)
    tops = enumerate_topologies(cat).elements if len(cat.morphisms) <= 15 else None
    assert inputs.size_problems(rung, cat, tops) == []


def test_size_check_reports_a_wrong_count(finsite_loaded):
    cat = inputs.ladder_category("chain4")
    assert inputs.size_problems("chain4", cat, [None] * 15) == [
        "chain4 has 15 topologies, expected 16"
    ]
    assert inputs.size_problems("chain5", cat) == [
        "chain5 has 4 objects and 10 morphisms, expected 5 and 15"
    ]


def test_random_rungs_have_the_requested_search_space(finsite_loaded):
    import random

    from finsite.topology import count_candidate_assignments

    rng = random.Random(0)
    for kind, e, objects, morphisms in inputs.RANDOM_RUNGS:
        cat = inputs.random_rung(rng, e, kind, objects, morphisms)
        assert count_candidate_assignments(cat) == 1 << e
        assert (len(cat.objects), len(cat.morphisms)) == (objects, morphisms)


def test_inputs_depend_only_on_the_seed(tmp_path, finsite_loaded):
    a = inputs.build("corpus-pipeline", 5, str(tmp_path / "a"))
    b = inputs.build("corpus-pipeline", 5, str(tmp_path / "b"))
    assert [op.label for op in a.ops] == [op.label for op in b.ops]
    for name in sorted(os.listdir(tmp_path / "a")):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
