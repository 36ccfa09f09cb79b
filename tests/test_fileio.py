import json

import numpy as np
import pytest

from sheafgauge.diagnostics import ChannelReport
from sheafgauge.fileio import atomic_write_text, json_fields, write_csv, write_json


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_float_outside_a_report_raises_and_writes_nothing(tmp_path, value):
    with pytest.raises(ValueError):
        write_json(tmp_path / "x.json", {"x": value})
    assert list(tmp_path.iterdir()) == []


def test_report_is_written_field_by_field_with_a_non_finite_float_as_null(tmp_path):
    report = ChannelReport("relative_cone", "channel", 2, float("inf"), 0.5, False)
    write_json(tmp_path / "r.json", {"report": report})
    assert json.loads((tmp_path / "r.json").read_text()) == {
        "report": {"channel": "relative_cone", "operator": "channel", "kernel_dim": 2,
                   "spectral_gap": None, "global_witness": 0.5, "normalized": False,
                   "auxiliary": False},
        "schema_version": "1",
    }


def test_json_is_one_compact_line_that_reads_as_the_indented_text(tmp_path):
    report = ChannelReport("relative_cone", "channel", 2, float("nan"), np.float64(0.5), False)
    payload = {"report": report, "weight": np.float64(1 / 3), "b": [[1, 2.5e-300], [], [None]],
               "a": {"z": -0.0, "y": [report]}}
    write_json(tmp_path / "x.json", payload)
    text = (tmp_path / "x.json").read_text()
    assert text.endswith("\n") and "\n" not in text[:-1]
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    # the text once written with indent=2 holds the same object, floats by ==
    indented = json.dumps({**payload, "schema_version": "1"}, sort_keys=True, indent=2,
                          allow_nan=False, default=json_fields)
    assert data == json.loads(indented)
    assert data["report"]["spectral_gap"] is None and data["weight"] == 1 / 3


def test_csv_writes_a_numpy_float_as_its_number(tmp_path):
    write_csv(tmp_path / "x.csv", ("a", "b", "c"), [(np.float64(0.1), 0.1, np.int64(3))])
    assert (tmp_path / "x.csv").read_text() == "a,b,c\n0.1,0.1,3\n"


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    # a lone surrogate has no encoding: the write raises after the temp file exists
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(tmp_path / "x.txt", "\udc80")
    assert list(tmp_path.iterdir()) == []
