#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark: wiring, not speed.

    python3 perfbench/smoke.py

Runs every workload named in BENCHMARK.json through perfbench/run.py with
the --smoke preset (each phase a fraction of a second), once untraced and
once traced, and fails unless each run exits 0, reports correct with no
failed attempts, prints exactly the declared end-to-end (untraced) or
per-layer (traced) metrics with their declared units, and ran every
correctness check its workload owns.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Correctness checks each run must report.
TRIAL_CHECK = {
    "cast_sweep": "cogcast.valid_distribution_tree",
    "dynamic_sweep": "cogcast.valid_distribution_tree",
    "agg_sweep": "cogcomp.result_equals_expected",
}
TRACE_CHECKS = ["trace.outcomes_equal_untraced",
                "sweep.outcomes_equal_across_workers", "trace.spans_written"]
# agg_sweep's traced run also drives the cograd serve job path.
SERVE_CHECKS = ["serve.stats_accounting", "serve.protocol_errors",
                "serve.done_frames_match_run_job",
                "serve.cogcomp_result_equals_expected",
                "journal.every_job_done_and_clean_shutdown",
                "serve.spans_written"]


def expected_checks(workload, trace):
    checks = [TRIAL_CHECK[workload]]
    if trace:
        checks += TRACE_CHECKS
        if workload == "agg_sweep":
            checks += SERVE_CHECKS
    return checks


def run_one(spec, workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    errors = []
    if proc.returncode != 0:
        return ["exit code %d: %s" % (proc.returncode, proc.stderr[-400:])]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("correct=%s failed=%s" % (result.get("correct"),
                                                result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted=%s" % result.get("attempted"))
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        errors.append("metrics differ: missing %s, extra %s, unit mismatches %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(k for k in want if k in got and got[k] != want[k])))
    for name in expected_checks(workload, trace):
        if not any(l.startswith("check %s: ok" % name) for l in lines):
            errors.append("check %s did not run or failed" % name)
    if not any(l.startswith("fingerprint ") for l in lines):
        errors.append("no fingerprint line")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = run_one(spec, workload, trace)
            status = "ok" if not errors else "FAILED: " + "; ".join(errors)
            print("smoke %s --trace %d: %s" % (workload, trace, status))
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
