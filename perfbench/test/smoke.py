"""Smoke test of the benchmark: every workload, shrunk to a few inputs.

Run from the root of the source tree:

    python3 perfbench/test/smoke.py

For each workload it runs the untraced and the traced mode and asserts
that the result line names exactly the metrics BENCHMARK.json declares,
with their units, and that every correctness check passed. It then
repeats both modes with the same seed and asserts that the exact
figures (energy, deadline misses, layer counters and ratios) agree.
"""

import json
import subprocess
import sys

EXACT_UNITS = {"count/op", "ratio", "nJ"}


def run(workload, trace):
    cmd = ["sh", "perfbench/run.sh", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, f"{cmd} exited {out.returncode}: {out.stderr}"
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(result, declared, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}"
    assert result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert set(metrics) == set(declared), \
        f"{label}: missing {set(declared) - set(metrics)}, extra {set(metrics) - set(declared)}"
    for name, unit in declared.items():
        assert metrics[name]["unit"] == unit, f"{label}: {name} unit"
        assert isinstance(metrics[name]["value"], (int, float)), f"{label}: {name}"


def exact(metrics, declared):
    return {n: metrics[n]["value"] for n, u in declared.items() if u in EXACT_UNITS}


def main():
    spec = json.load(open("BENCHMARK.json"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{w} --trace {trace}"
            first, second = run(w, trace), run(w, trace)
            check(first, declared[trace], label)
            check(second, declared[trace], label)
            a = exact(first["metrics"], declared[trace])
            b = exact(second["metrics"], declared[trace])
            assert a == b, f"{label}: exact figures differ between runs: " + \
                str({k: (a[k], b[k]) for k in a if a[k] != b[k]})
            print(f"ok {label}")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
