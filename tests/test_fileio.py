import json

import numpy as np
import pytest

from sheafgauge.diagnostics import ChannelReport
from sheafgauge.fileio import write_csv, write_json


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


def test_csv_writes_a_numpy_float_as_its_number(tmp_path):
    write_csv(tmp_path / "x.csv", ("a", "b", "c"), [(np.float64(0.1), 0.1, np.int64(3))])
    assert (tmp_path / "x.csv").read_text() == "a,b,c\n0.1,0.1,3\n"
