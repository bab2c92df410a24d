"""tools/bench_file.py: the bound verdict reads the spread of each seed,
not that of all seeds pooled."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_file.py"
SPEC = {"end_to_end": [{"name": "tail_s", "better": "lower",
                        "bound": 0.25}]}


def _tool():
    spec = importlib.util.spec_from_file_location("bench_file", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload(tool, runs):
    """The workload entry of paired runs {seed: [(parent, change), ...]}."""
    pairs = [tuple({"seed": seed, "metrics": {"tail_s": {"value": v}}}
                   for v in pair)
             for seed, values in runs.items() for pair in values]
    return {"seeds": [p["seed"] for p, _ in pairs],
            "end_to_end": {"tail_s": tool._metric(pairs, "tail_s", "lower")}}


def test_seeds_with_different_medians_do_not_widen_the_spread():
    """Seed 5 runs near 0.10 s and seed 7 near 0.20 s.  Pooled, each side
    spreads by about half its median; per seed by at most 0.04."""
    tool = _tool()
    runs = {5: [(0.100, 0.090), (0.102, 0.091), (0.101, 0.089),
                (0.099, 0.090)],
            7: [(0.200, 0.180), (0.204, 0.182), (0.198, 0.179),
                (0.202, 0.181)]}
    w = _workload(tool, runs)
    pooled = w["end_to_end"]["tail_s"]["parent"]
    assert pooled["iqr"] / pooled["median"] > 0.25
    row = tool._bounds({"plane": w}, SPEC)["plane"]["tail_s"]
    assert row["spread"] < 0.04
    assert row["verdict"] == "within bound"


def test_a_wide_seed_is_unresolved_unless_the_change_beats_it():
    """Seed 7 spreads by more than the bound.  The change is unresolved
    while its runs there overlap the parent's, and within bound once
    each of them beats each of the parent's on both seeds."""
    tool = _tool()
    steady = [(0.100, 0.095), (0.101, 0.096), (0.099, 0.094),
              (0.100, 0.095)]
    wide = [(0.20, 0.15), (0.30, 0.25), (0.10, 0.12), (0.25, 0.20)]
    row = tool._bounds({"w": _workload(tool, {5: steady, 7: wide})},
                       SPEC)["w"]["tail_s"]
    assert row["spread"] > 0.25 and row["verdict"] == "unresolved"
    beaten = [(0.20, 0.09), (0.30, 0.08), (0.10, 0.07), (0.25, 0.09)]
    row = tool._bounds({"w": _workload(tool, {5: steady, 7: beaten})},
                       SPEC)["w"]["tail_s"]
    assert row["spread"] > 0.25 and row["verdict"] == "within bound"
