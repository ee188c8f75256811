"""Span recording and the per-layer summary."""

import pytest

import spans


def _span(sid, name, start, end, parent=None, cell="lbl", **extra):
    return {"id": sid, "parent": parent, "name": name, "layer": name.split(".")[0],
            "start": start, "end": end, "pid": 1, "workload": "w", "cell": cell, **extra}


def test_recorder_nests_and_flushes(tmp_path):
    rec = spans.Recorder(str(tmp_path), "w", "lbl")

    def inner(x):
        return x + 1

    inner_t = rec.wrap(inner, "gaussian.hp_mean_field")
    outer_t = rec.wrap(lambda x: inner_t(x) * 2, "gaussian.solve_gaussian")
    assert outer_t(1) == 4
    rec.flush()
    recorded = spans.load_spans(str(tmp_path))
    by_name = {s["name"]: s for s in recorded}
    assert by_name["gaussian.hp_mean_field"]["parent"] == by_name["gaussian.solve_gaussian"]["id"]
    assert by_name["gaussian.solve_gaussian"]["parent"] is None
    assert all(s["workload"] == "w" and s["cell"] == "lbl" for s in recorded)


def test_summary_busy_self_and_counts():
    recorded = [
        _span("a", "cli.cell", 0.0, 10.0, cell="lbl:0"),
        _span("b", "gaussian.solve_gaussian", 1.0, 4.0, parent="a", cell="lbl:0"),
        _span("c", "gaussian.hp_mean_field", 1.5, 3.0, parent="b", cell="lbl:0"),
        _span("d", "metrics.build_report", 5.0, 6.0, parent="a", cell="lbl:0"),
        _span("e", "io.write_json", 5.5, 7.0, cell="lbl"),  # overlaps d: counted once
        _span("f", "fockspace.ed_ground_state", 8.0, 8.5, cell="lbl", N=61),
    ]
    m = spans.summarise(recorded, {"lbl": 12.0})
    assert m["gaussian.busy_s"] == pytest.approx(3.0)  # hp_mean_field is inside solve_gaussian
    assert m["gaussian.hp_mean_field.ms_p50"] == pytest.approx(1500.0)
    assert m["metrics.build_report.calls"] == 1
    assert m["fockspace.ed_ground_state.ms.N61"] == pytest.approx(500.0)
    assert m["fockspace.ed_ground_state.ms.N62"] == 0.0
    assert m["bands.classify.calls"] == 0
    # covered: [1, 4] + [5, 7] + [8, 8.5] = 5.5 of 12 s
    assert m["cli.self_s"] == pytest.approx(6.5)
