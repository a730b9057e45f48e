import importlib.util
import json
from pathlib import Path

from preord import HARD_CAP

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("verdict_runs", _ROOT / "tools" / "verdict_runs.py")
verdict_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(verdict_runs)


def test_the_verdict_is_the_one_at_the_enumeration_cap():
    assert verdict_runs.MAX_N == HARD_CAP


def test_runs_alternate_and_report_counters_timings_and_rss(capsys, monkeypatch):
    # one run per tree at n = 2, so that the test is quick; one tree under
    # two names, so that each gets its own runs
    monkeypatch.setattr(verdict_runs, "RUNS", 1)
    monkeypatch.setattr(verdict_runs, "MAX_N", 2)
    trees = [str(_ROOT), str(_ROOT / "tools" / "..")]
    assert verdict_runs.main(["verdict_runs.py", *trees]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["max_n"] == 2 and sorted(out["runs"]) == sorted(trees)
    for tree in trees:
        (r,) = out["runs"][tree]
        # 1 + 4 labeled preorders in 1 + 3 isomorphism classes; from the 3
        # labeled equivalences into the 4 partial orders, 7 + 13 + 7 maps
        # out of the point, the discrete and the indiscrete 2-set
        assert r["ok"] and r["objects_checked"] == 5 and r["maps_checked"] == 27
        assert r["classes_checked"] == 4 and r["identity_legs"] == r["quotient_legs"] == 4
        assert r["max_rss_mb"] > 0 and r["axiom1_s"] > 0
        assert set(out["medians"][tree]) == {"catalogue_s", "axiom1_s", "axiom2_s", "max_rss_mb"}
