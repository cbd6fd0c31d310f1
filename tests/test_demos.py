"""The demo drivers: every report passes and reports deterministically."""

import json

import pytest

from blowup import tree
from blowup.demos import demo_names, run_demo
from blowup.errors import InputError


def test_known_names():
    assert demo_names() == (
        "distinguished-zeros",
        "two-ring-cover",
        "first-neighborhood-irredundance",
        "sibling-chain-limit",
        "ascending-union-semigroup",
        "fiber-intersection-irredundance",
        "local-fiber-intersection",
    )


@pytest.mark.parametrize("name", demo_names())
def test_demo_passes(name):
    report = run_demo(name)
    assert report["name"] == name
    assert report["ok"], [c for c in report["checks"] if not c["ok"]]
    assert report["checks"]
    for check in report["checks"]:
        assert set(check) == {"label", "ok", "detail"}


@pytest.mark.parametrize("name", demo_names())
def test_demo_deterministic(name):
    first = json.dumps(run_demo(name), sort_keys=True)
    second = json.dumps(run_demo(name), sort_keys=True)
    assert first == second


def test_two_ring_cover_settles_its_walks_early(monkeypatch):
    # every express_step charges its step first; the walks stop at the
    # first decided point, 4,744 steps against 28,216 for whole paths
    real, calls = tree.charge, []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(tree, "charge", counting)
    assert run_demo("two-ring-cover")["ok"]
    assert len(calls) <= 5000


def test_unknown_name():
    with pytest.raises(InputError, match="unknown demo"):
        run_demo("resolution-of-everything")


def test_reports_are_json_serializable():
    for name in demo_names():
        json.dumps(run_demo(name))


def test_sibling_demo_names_the_witness():
    report = run_demo("sibling-chain-limit")
    by_label = {c["label"]: c for c in report["checks"]}
    assert "siblings" in by_label["not Noetherian"]["detail"]


def test_cusp_printings_are_pinned():
    report = run_demo("first-neighborhood-irredundance")
    by_label = {c["label"]: c for c in report["checks"]}
    assert by_label["cusp strict transform, one step"]["detail"] == "y^2 - x"
    assert by_label["cusp strict transform, two steps"]["detail"] == "x - y"
