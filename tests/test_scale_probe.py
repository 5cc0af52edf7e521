"""The scale probe closes its smallest case in-process and reports it."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "scale_probe.py"


def test_scale_probe_closes_the_20x400_pe_case(monkeypatch):
    # loading the tool pins the BLAS thread variables; put them back after
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    spec = importlib.util.spec_from_file_location("scale_probe", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    result = tool.probe("20x400-pe")
    assert result["termination"] == "proved"
    assert result["master_pivots"] > 0 and result["separation_pivots"] > 0
    outcomes = result["cut"] + result["no_cut"] + result["inconclusive"]
    assert result["separations"] == outcomes > 0
    assert result["cut"] > 0 and result["peak_rss_mib"] > 0
    # every cut the pool holds, active or parked, came from a cut outcome
    assert result["cuts_active"] > 0 and result["cuts_parked"] >= 0
    assert result["cuts_active"] + result["cuts_parked"] <= result["cut"]
    text = tool.line(result)
    assert text.startswith("20x400-pe ")
    assert f"active={result['cuts_active']} parked={result['cuts_parked']} " in text
