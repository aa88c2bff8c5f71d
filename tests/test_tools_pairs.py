"""The summary of tools/pairs.py on canned benchmark results."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "pairs.py")


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(wall, rss, failed=0):
    return {"correct": failed == 0, "attempted": 4, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


BETTER = {"wall_s": "lower", "peak_rss_mb": "lower"}


def test_order_alternates_and_flips_every_pair(pairs):
    assert [pairs.order(k) for k in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")]


def test_summary_of_canned_results(pairs):
    # wall_s: the change wins 9 of 10 pairs, by a median gap of 0.19 against
    # a parent interquartile distance of 0.08; peak_rss_mb: 10 ties
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.2, 0.85, 1.0, 1.02]
    change = [0.8, 0.9, 0.7, 0.85, 0.75, 0.8, 0.9, 0.9, 0.8, 0.82]
    canned = [(_result(p, 50.0), _result(c, 50.0)) for p, c in zip(parent, change)]
    s = pairs.summarize(canned, BETTER)
    assert s["pairs"] == 10 and s["correct"] is True
    assert s["failed"] == {"parent": 0, "change": 0}
    wall = s["metrics"]["wall_s"]
    assert wall["parent_median"] == 1.0 and wall["change_median"] == pytest.approx(0.81)
    assert (wall["parent_q1"], wall["parent_q3"]) == pytest.approx((0.9625, 1.0425))
    assert wall["ratio"] == pytest.approx(0.81)
    assert wall["wins"] == 9 and wall["gain_clears"] is True
    rss = s["metrics"]["peak_rss_mb"]
    assert rss["wins"] == 0 and rss["gain_clears"] is False and rss["ratio"] == 1.0
    assert "wall_s" in pairs.render(s)


def test_a_gain_inside_the_parent_spread_or_short_of_nine_wins_does_not_clear(pairs):
    # 10 wins, but the gap 0.01 is inside the parent's spread
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.0, 1.3, 0.7, 1.0]
    canned = [(_result(p, 1.0), _result(p - 0.01, 1.0)) for p in parent]
    assert pairs.summarize(canned, BETTER)["metrics"]["wall_s"]["wins"] == 10
    assert pairs.summarize(canned, BETTER)["metrics"]["wall_s"]["gain_clears"] is False
    # a wide gap, but 8 wins of 10
    canned = [(_result(1.0, 1.0), _result(0.5 if k < 8 else 1.5, 1.0)) for k in range(10)]
    wall = pairs.summarize(canned, BETTER)["metrics"]["wall_s"]
    assert wall["wins"] == 8 and wall["gain_clears"] is False


def test_higher_is_better_and_failed_runs_are_counted(pairs):
    canned = [(_result(1.0, 50.0, failed=1), _result(1.0, 60.0)) for _ in range(3)]
    s = pairs.summarize(canned, {"peak_rss_mb": "higher"})
    assert s["correct"] is False and s["failed"] == {"parent": 3, "change": 0}
    assert s["metrics"]["peak_rss_mb"]["wins"] == 3


def test_a_gain_with_more_failed_runs_than_the_parent_does_not_clear(pairs):
    # the change wins all 10 pairs by a wide gap, but one of its runs fails
    canned = [(_result(1.0 + 0.01 * k, 50.0), _result(0.5, 50.0, failed=int(k == 3)))
              for k in range(10)]
    s = pairs.summarize(canned, BETTER)
    wall = s["metrics"]["wall_s"]
    assert s["failed"] == {"parent": 0, "change": 1} and s["correct"] is False
    assert wall["wins"] == 10 and wall["gain_clears"] is False
    canned[3] = (_result(1.03, 50.0, failed=1), canned[3][1])     # as many as the parent
    assert pairs.summarize(canned, BETTER)["metrics"]["wall_s"]["gain_clears"] is True


def test_main_runs_the_sides_in_alternating_order(pairs, monkeypatch, tmp_path, capsys):
    calls = []

    def fake_run(root, workload, seed):
        calls.append(root)
        return _result(1.0 if root == "P" else 0.5, 50.0)

    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "wall_s", "better": "lower"}]}')
    monkeypatch.setattr(pairs, "run_once", fake_run)
    pairs.main(["--parent", "P", "--change", str(tmp_path), "--workload", "lsm-cdf",
                "--pairs", "3"])
    assert calls == ["P", str(tmp_path), str(tmp_path), "P", "P", str(tmp_path)]
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert '"wins": 3' in last and '"workload": "lsm-cdf"' in last
