#!/usr/bin/env python
"""Reproducibility gate: rerun the case study and compare to the pinned
expected results (expected_results.json at the repository root).

Exit status 0 when every headline metric matches within tolerance and
every Table III row (``patched_detected``, ``patched_total`` and
``repaired`` of each patching tool, per model and ``all``) matches
exactly; 1 otherwise.  Intended for CI and for checking the reproduction
on a new machine or Python version.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.evaluation import run_case_study
from repro.evaluation.export import diff_headline, load_results, result_to_dict

ROOT = Path(__file__).resolve().parent.parent
TABLE_III = ("patched_detected", "patched_total", "repaired")


def main() -> int:
    expected_path = ROOT / "expected_results.json"
    if not expected_path.exists():
        print(f"error: {expected_path} missing", file=sys.stderr)
        return 2
    expected = load_results(expected_path)
    print("running the case study (seed from the pinned results)...")
    result = run_case_study(seed=expected["seed"])
    actual = result_to_dict(result)

    diff = diff_headline(expected, actual)
    ok = True
    for metric, entry in diff.items():
        status = "ok" if entry["ok"] else "MISMATCH"
        print(f"  {metric:18s} expected={entry['a']:.4f} actual={entry['b']:.4f}  {status}")
        ok = ok and entry["ok"]
    if actual["vulnerable_counts"] != expected["vulnerable_counts"]:
        print("  vulnerable_counts MISMATCH")
        ok = False
    rows = 0
    for tool, per_model in expected["patching"].items():
        for model, row in per_model.items():
            got = actual["patching"].get(tool, {}).get(model, {})
            for metric in TABLE_III:
                rows += 1
                if got.get(metric) != row[metric]:
                    print(f"  Table III {tool}/{model} {metric}: "
                          f"expected={row[metric]} actual={got.get(metric)}  MISMATCH")
                    ok = False
    print(f"  Table III: {rows} pinned values of {len(expected['patching'])} patching tools compared")
    print("reproduction " + ("verified" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
