"""The paper's claims, checked over ``run_study`` output.

One test per paper artifact, in paper order.  Each reads its artifact
through the memoized ``study_artifact`` helper (see ``conftest.py``),
prints it paper-style and asserts what the paper reports about it, at
the scale and windows the ``REPRO_BENCH_*`` knobs select.
"""

from conftest import study_artifact
from repro.harness import format_experiment
from repro.harness.spec import derive


def show(name: str, data) -> None:
    print()
    print(format_experiment(name, data))


def test_table1():
    """Table 1: benchmark instruction counts and misprediction rates."""
    rows = study_artifact("table1")
    show("table1", rows)
    assert len(rows) == 5
    rates = {r["benchmark"]: r["misprediction_rate"] for r in rows}
    assert rates["go"] == max(rates.values())       # paper: go 16.7%, hardest
    assert rates["vortex"] == min(rates.values())   # paper: vortex 1.4%, easiest


def test_figure3(windows):
    """Figure 3: IPC of the six idealized models vs window size."""
    data = study_artifact("figure3")
    show("figure3", data)
    for name, models in data.items():
        for window in windows:
            oracle = models["oracle"][window]
            base = models["base"][window]
            wrfd = models["WR-FD"][window]
            # oracle bounds everything; WR-FD lands between base and oracle
            assert base <= oracle * 1.02
            assert wrfd <= oracle * 1.02
            assert wrfd >= base * 0.95, (name, window)


def test_figure5(windows):
    """Figure 5: detailed-machine IPC (BASE / CI / CI-I) per window size."""
    data = study_artifact("figure5")
    show("figure5", data)
    for name, machines in data.items():
        for window in windows:
            assert machines["CI"][window] > 0
            # CI never loses badly to BASE; on go it clearly wins
            assert machines["CI"][window] >= machines["BASE"][window] * 0.9
    go = data["go"]
    assert go["CI"][max(windows)] > go["BASE"][max(windows)]


def test_figure6(windows):
    """Figure 6: percent IPC improvement of CI over BASE (from Figure 5)."""
    data = derive("figure6", study_artifact("figure5"))
    show("figure6", data)
    biggest = max(windows)
    # paper: go shows the most benefit, vortex the least
    assert data["go"][biggest] > data["vortex"][biggest]


def test_table2():
    """Table 2: statistics for restart/redispatch sequences."""
    rows = study_artifact("table2")
    show("table2", rows)
    by_name = {r["benchmark"]: r for r in rows}
    for name, row in by_name.items():
        if name == "vortex":
            continue  # too few mispredictions at bench scale
        assert row["pct_reconverge"] > 40, name      # paper: 46.8 - 90.8%
        assert row["avg_ci_renamed"] < 15, name      # paper: ~2-3
    assert by_name["compress"]["pct_reconverge"] > 60


def test_table3():
    """Table 3: work saved by exploiting control independence."""
    rows = study_artifact("table3")
    show("table3", rows)
    by_name = {r["benchmark"]: r for r in rows}
    for row in rows:
        assert 0 <= row["work_saved"] <= row["fetch_saved"] <= 1
    # paper: go/compress save much more work than vortex
    assert by_name["go"]["fetch_saved"] > by_name["vortex"]["fetch_saved"]


def test_table4():
    """Table 4: instruction issues per retired instruction."""
    rows = study_artifact("table4")
    show("table4", rows)
    for row in rows:
        assert row["noci_total"] >= 1.0
        assert row["ci_total"] >= row["noci_total"] * 0.9  # CI adds reissues
    by_name = {r["benchmark"]: r for r in rows}
    # paper: compress has the most reissue traffic
    assert by_name["compress"]["ci_total"] >= by_name["vortex"]["ci_total"]


def test_figure8():
    """Figure 8: simple vs optimal preemption of restart sequences."""
    data = study_artifact("figure8")
    show("figure8", data)
    for name, row in data.items():
        # paper: simple performs close to optimal at a 256 window
        assert row["simple"] >= row["optimal"] * 0.85, name


def test_figure9():
    """Figure 9: branch completion models and false mispredictions."""
    data = study_artifact("figure9")
    show("figure9", data)
    for name, row in data.items():
        # hiding false mispredictions never hurts
        assert row["spec-HFM"] >= row["spec"] * 0.95, name
        assert row["spec-C-HFM"] >= row["spec-C"] * 0.95, name


def test_figure10():
    """Figure 10: identifying false mispredictions with TFR history."""
    data = study_artifact("figure10")
    show("figure10", data)
    for name, schemes in data.items():
        for scheme in ("static", "dynamic_pc", "dynamic_xor"):
            curve = schemes[scheme]
            true_total, false_total = schemes["counts"][scheme]
            assert curve[-1][0] == 1.0
            if false_total:
                assert curve[-1][1] == 1.0
            xs = [x for x, _ in curve]
            assert xs == sorted(xs)


def test_figure12():
    """Figure 12: impact of oracle global branch history."""
    data = study_artifact("figure12")
    show("figure12", data)
    for name, row in data.items():
        # paper: effect is bounded (about +/-5% at full scale; allow slack)
        ratio = row["oracle-history"] / row["timing"]
        assert 0.7 < ratio < 1.4, (name, ratio)


def test_figure13():
    """Figure 13: evaluation of re-predict sequences."""
    data = study_artifact("figure13")
    show("figure13", data)
    for name, row in data.items():
        # oracle re-prediction is the ceiling for the CI heuristic
        assert row["CI-OR"] >= row["CI"] * 0.9, name


def test_figure14():
    """Figure 14: segmented reorder buffer granularity."""
    data = study_artifact("figure14")
    show("figure14", data)
    for name, row in data.items():
        # fragmentation costs capacity; at bench scale second-order effects
        # allow small inversions, so bound the deviation rather than the sign
        assert row["seg16"] <= row["seg1"] * 1.15, name
        assert row["seg1"] > 0 and row["seg4"] > 0


def test_figure17():
    """Figure 17: hardware heuristics for identifying reconvergent points."""
    data = study_artifact("figure17")
    show("figure17", data)
    for name, row in data.items():
        # full post-dominator information is the reference point; the
        # combined heuristic recovers part of it (paper: 1/3 to 3/4)
        assert row["postdom"] >= -5.0
