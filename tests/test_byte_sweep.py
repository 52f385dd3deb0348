import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "byte_sweep.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("byte_sweep", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_collector_gives_one_stable_hash_per_case():
    # 8 is a Stockham size with every even route, 63 a Bluestein one
    tool = load_tool()
    sizes = (8, 63)
    cases = list(tool.cases(sizes))
    assert len(cases) == len(set(cases))
    hashes = tool.collect(sizes)
    assert list(hashes) == [f"{n} {route} {kind} {k}" for n, route, kind, k in cases]
    assert all(re.fullmatch(r"[0-9a-f]{64}", h) for h in hashes.values())
    routes = {key.split(" ", 1)[1].rsplit(" ", 2)[0] for key in hashes}
    assert "dft_inverse_halfband" in routes and "log image minus" in routes
    assert tool.collect(sizes) == hashes


def test_collector_hashes_the_csv_files_of_a_real_and_a_complex_output():
    tool = load_tool()
    hashes = tool.collect((8,), csv=True)
    assert list(hashes) == [f"{n} {route} {kind} {k}" for n, route, kind, k in tool.cases((8,), csv=True)]
    files = {key.split(" ", 1)[1].rsplit(" ", 2)[0] for key in hashes if " csv " in key}
    assert files == {"csv hilbert_first", "csv analytic_signal"}
    assert all(re.fullmatch(r"[0-9a-f]{64}", h) for h in hashes.values())
    plain = tool.collect((8,))
    assert {k: h for k, h in hashes.items() if " csv " not in k} == plain
