#!/usr/bin/env python3
"""Bench-artifact regression gate (EXPERIMENTS.md, "Bench artifacts").

Discovers committed baselines by glob — every ``BENCH_*.json`` in the
baseline directory — instead of hard-coding filenames, so adding a new
gated experiment means committing one artifact file and (usually) no CI
edits. Each baseline file is the ``repro --json-out`` envelope::

    {"schema_version": 1, "artifacts": [ {"experiment": "...", ...}, ... ]}

Fresh artifacts produced by the CI run are matched to baselines by the
``experiment`` field, never by filename. Per-experiment rules:

* ``shared``  — deterministic counters (distinct/hits/misses/subpatterns)
  must match the baseline exactly; each cell's off/on speedup must not
  drop below the baseline beyond both runs' noise floors plus a margin.
* ``profile`` — every arm must reproduce the baseline's deterministic
  ``positives`` exactly; the Off arms' mutual delta must sit within the
  sweep's noise floor; the ``counters`` arm's overhead must stay within
  the 5% budget plus the fresh run's noise floor (checked on the
  committed baseline too, so a dishonest baseline can't slip through).

Usage::

    bench_gate.py --fresh FILE [FILE ...] [--baseline-dir DIR]
                  [--require EXPERIMENT [EXPERIMENT ...]]

Exits non-zero with a failure list on any regression, schema violation,
fresh artifact without a baseline, or missing required experiment.
"""

import argparse
import glob
import json
import os
import sys

SPEEDUP_MARGIN = 0.25  # smoke-scale slack on ratio comparisons
COUNTERS_BUDGET_PCT = 5.0  # the profiler's counters-arm overhead budget


def load_artifacts(path):
    """Return the artifact objects in one --json-out envelope."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") != 1:
        raise ValueError(f"{path}: schema_version {doc.get('schema_version')!r} != 1")
    arts = doc.get("artifacts")
    if not isinstance(arts, list) or not arts:
        raise ValueError(f"{path}: missing or empty 'artifacts' array")
    for a in arts:
        if "experiment" not in a:
            raise ValueError(f"{path}: artifact without 'experiment' field")
    return arts


def check_config(base, fresh, keys, failures, exp):
    for k in keys:
        if base.get(k) != fresh.get(k):
            failures.append(
                f"{exp}: config mismatch on {k!r}: fresh {fresh.get(k)!r} "
                f"!= baseline {base.get(k)!r}"
            )


def check_speedup(base_cell, fresh_cell, name, failures, exp):
    tol = (base_cell["noise_pct"] + fresh_cell["noise_pct"]) / 100.0 + SPEEDUP_MARGIN
    floor = base_cell["speedup"] * (1.0 - tol)
    if fresh_cell["speedup"] < floor:
        failures.append(
            f"{exp}/{name}: speedup {fresh_cell['speedup']:.2f} < floor "
            f"{floor:.2f} (baseline {base_cell['speedup']:.2f}, tolerance {tol:.0%})"
        )


def gate_shared(base, fresh, failures):
    check_config(base, fresh, ("seed", "stream_len", "reps"), failures, "shared")
    bcells = {(c["sessions"], c["overlap"]): c for c in base["cells"]}
    if len(bcells) != len(fresh["cells"]):
        failures.append(
            f"shared: cell count {len(fresh['cells'])} != baseline {len(bcells)}"
        )
        return
    for f in fresh["cells"]:
        key = (f["sessions"], f["overlap"])
        b = bcells.get(key)
        cell = f"{f['sessions']}x{f['overlap']}"
        if b is None:
            failures.append(f"shared/{cell}: cell missing from baseline")
            continue
        # Same seed, sequential sessions: these are deterministic.
        for k in ("distinct", "hits", "misses", "subpatterns"):
            if f[k] != b[k]:
                failures.append(f"shared/{cell}: {k} {f[k]} != baseline {b[k]}")
        check_speedup(b, f, cell, failures, "shared")


def profile_arms_ok(art, who, failures):
    """Self-consistency of one profile artifact (baseline or fresh)."""
    arms = {a["arm"]: a for a in art["arms"]}
    for need in ("off_a", "off_b", "counters", "full"):
        if need not in arms:
            failures.append(f"profile[{who}]: missing arm {need!r}")
            return None
    positives = {a["positives"] for a in art["arms"]}
    if len(positives) != 1:
        failures.append(
            f"profile[{who}]: arms disagree on positives: {sorted(positives)}"
        )
    for a in art["arms"]:
        if a["level"] == "off" and a["total_cost"] != 0:
            failures.append(f"profile[{who}]/{a['arm']}: Off arm attributed cost")
        if a["level"] != "off" and a["total_cost"] == 0:
            failures.append(f"profile[{who}]/{a['arm']}: profiled arm has zero cost")
    floor = art["noise_pct"]
    off_b = arms["off_b"]["overhead_pct"]
    if off_b > floor + 1e-9:
        failures.append(
            f"profile[{who}]: off_b delta {off_b:.2f}% exceeds noise floor {floor:.2f}%"
        )
    counters = arms["counters"]["overhead_pct"]
    budget = COUNTERS_BUDGET_PCT + floor
    if counters > budget:
        failures.append(
            f"profile[{who}]: counters overhead {counters:.2f}% > budget "
            f"{budget:.2f}% (5% + {floor:.2f}% noise floor)"
        )
    return arms


def gate_profile(base, fresh, failures):
    check_config(base, fresh, ("seed", "stream_len", "reps"), failures, "profile")
    barms = profile_arms_ok(base, "baseline", failures)
    farms = profile_arms_ok(fresh, "fresh", failures)
    if barms is None or farms is None:
        return
    # Same seed, same stream: match totals are deterministic across
    # machines, unlike the timings.
    bp, fp = barms["off_a"]["positives"], farms["off_a"]["positives"]
    if bp != fp:
        failures.append(f"profile: positives {fp} != baseline {bp}")


GATES = {"shared": gate_shared, "profile": gate_profile}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", nargs="+", required=True, help="fresh --json-out files")
    ap.add_argument("--baseline-dir", default=".", help="directory holding BENCH_*.json")
    ap.add_argument(
        "--require",
        nargs="*",
        default=[],
        help="experiments that must appear among the fresh artifacts",
    )
    args = ap.parse_args()

    baseline_files = sorted(glob.glob(os.path.join(args.baseline_dir, "BENCH_*.json")))
    if not baseline_files:
        print(f"bench gate: no BENCH_*.json baselines under {args.baseline_dir}")
        return 1

    baselines = {}
    for path in baseline_files:
        for art in load_artifacts(path):
            exp = art["experiment"]
            if exp in baselines:
                print(f"bench gate: experiment {exp!r} in two baselines")
                return 1
            baselines[exp] = (os.path.basename(path), art)

    failures = []
    gated = []
    for path in args.fresh:
        for art in load_artifacts(path):
            exp = art["experiment"]
            if exp not in baselines:
                failures.append(
                    f"{exp}: fresh artifact has no committed BENCH_*.json baseline"
                )
                continue
            if exp not in GATES:
                failures.append(f"{exp}: no gate rule registered for this experiment")
                continue
            GATES[exp](baselines[exp][1], art, failures)
            gated.append(f"{exp} (vs {baselines[exp][0]})")

    for exp in args.require:
        if not any(g.startswith(f"{exp} ") for g in gated):
            failures.append(f"{exp}: required experiment missing from fresh artifacts")

    if failures:
        print("bench gate FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"bench gate OK: {len(gated)} artifact(s) gated: {', '.join(gated)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
