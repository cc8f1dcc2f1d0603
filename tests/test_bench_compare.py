"""scripts/bench_compare.py: its run checks, and the claim and no-regression
tests of its summary."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts",
                     "bench_compare.py")
_SPEC = importlib.util.spec_from_file_location("bench_compare", _PATH)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def _run(throughput, correct=True, failed=0):
    return {"correct": correct, "attempted": 15, "failed": failed,
            "metrics": {"throughput_per_s": {"value": throughput, "unit": "1/s"}}}


def _pair(seed, base, head):
    return {"seed": seed, "order": ["base", "head"], "base": base, "head": head}


def _row(bases, heads, better="higher", bound=0.2):
    runs = [_pair(i, _run(b), _run(h)) for i, (b, h) in enumerate(zip(bases, heads))]
    spec = {"throughput_per_s": {"better": better, "bound": bound}}
    return bench_compare.summary(runs, spec)["throughput_per_s"]


def test_check_pair_passes_a_clean_pair():
    bench_compare.check_pair("search", _pair(1, _run(600.0), _run(850.0)))


@pytest.mark.parametrize("base, head, message", [
    (_run(600.0, correct=False), _run(850.0), "search seed 4 base: the run reports correct: false"),
    (_run(600.0), _run(850.0, correct=False), "search seed 4 head: the run reports correct: false"),
    (_run(600.0, failed=1), _run(850.0), "search seed 4: 1 failed on base, 0 on head"),
], ids=["base_incorrect", "head_incorrect", "failed_differs"])
def test_check_pair_exits_naming_seed_and_side(base, head, message):
    with pytest.raises(SystemExit) as err:
        bench_compare.check_pair("search", _pair(4, base, head))
    assert err.value.code == message


@pytest.mark.parametrize("heads, pairs, met", [
    ([850.0] * 10, 10, True),
    ([850.0] * 9 + [500.0], 10, True),      # nine wins of ten
    ([850.0] * 8 + [500.0] * 2, 10, False),  # eight wins of ten
    ([850.0] * 9, 9, False),                 # fewer than ten pairs
    ([601.0] * 10, 10, False),               # inside the base's quartile spread
], ids=["all_win", "nine_of_ten", "eight_of_ten", "nine_pairs", "within_spread"])
def test_claim_met(heads, pairs, met):
    row = _row([590.0, 595.0, 600.0, 605.0, 610.0] * 2, heads)
    assert row["pairs"] == pairs and row["claim_met"] is met


def test_claim_met_for_a_lower_is_better_metric():
    bases = [590.0, 600.0] * 5
    row = _row(bases, [b - 20.0 for b in bases], better="lower")
    assert row["head_wins"] == 10 and row["claim_met"] is True


@pytest.mark.parametrize("bases, heads, verdict", [
    ([590.0, 595.0, 600.0, 605.0, 610.0], [850.0] * 5, True),
    ([590.0, 595.0, 600.0, 605.0, 610.0], [490.0] * 5, True),   # 110 below, bound 120
    ([590.0, 595.0, 600.0, 605.0, 610.0], [470.0] * 5, False),  # 130 below
    ([300.0, 900.0] * 3, [650.0] * 6, "unresolved"),  # spread 600 > 120
    ([300.0, 900.0] * 3, [950.0] * 6, True),  # every head run beats every base run
], ids=["better", "worse_within", "worse_beyond", "unresolved", "clear_of_spread"])
def test_within_bound(bases, heads, verdict):
    assert _row(bases, heads)["within_bound"] == verdict


@pytest.mark.parametrize("head, verdict", [(12.4, True), (12.6, False)])
def test_within_bound_for_a_lower_is_better_metric(head, verdict):
    # a median of 10 with bound 0.25 allows up to 12.5
    row = _row([9.9, 10.0, 10.1] * 2, [head] * 6, better="lower", bound=0.25)
    assert row["within_bound"] is verdict
