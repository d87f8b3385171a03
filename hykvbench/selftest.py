#!/usr/bin/env python3
"""Smoke self-test of the hykv benchmark at tiny op counts.

    python3 hykvbench/selftest.py

Run it from the repository root. For every workload in BENCHMARK.json, and
for the workloads hykv_bench keeps outside it (EXTRA_WORKLOADS), it runs
hykv_bench for a fraction of a second with --trace 0 and --trace 1 and checks
that the run is correct and that the result carries each metric named in
BENCHMARK.json exactly once, with its unit, and no other metric; the traced
run must also write its call spans, keyed by op index, with --trace-out. It
then checks that the correctness gate fires: a run whose GET payloads are
verified against another seed's dataset must report correct=false with
failed > 0. Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

import run

SECONDS = "0.4"
# Runnable with run.py but left out of BENCHMARK.json (see WORKLOADS.md).
EXTRA_WORKLOADS = ("fits-4k-3clients",)


def parse_result(stdout):
    """Last stdout line as JSON; duplicate keys are an error."""
    def no_duplicates(pairs):
        keys = [k for k, _ in pairs]
        dups = sorted({k for k in keys if keys.count(k) > 1})
        if dups:
            raise ValueError("duplicate keys: " + ", ".join(dups))
        return dict(pairs)
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1], object_pairs_hook=no_duplicates)


def drive(workload, trace, extra=()):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(run.DEFAULT_SEED),
           "--seconds", SECONDS, "--trace", str(trace), "--setups", "1", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    return out.returncode, parse_result(out.stdout)


def check_spans(path):
    """The --trace-out CSV: a header and at least one issue span."""
    with open(path) as f:
        header = f.readline().strip()
        calls = {line.split(",")[2] for line in f}
    if header != "thread,op,call,start_ns,dur_ns":
        return [f"span file header {header!r}"]
    if not calls & {"get_issue", "set_issue"}:
        return ["span file has no issue spans"]
    return []


def check_metrics(result, expected):
    errors = []
    got = result["metrics"]
    for name, unit in expected.items():
        if name not in got:
            errors.append(f"missing {name}")
        elif got[name].get("unit") != unit:
            errors.append(f"{name}: unit {got[name].get('unit')!r} != {unit!r}")
        elif not isinstance(got[name].get("value"), (int, float)):
            errors.append(f"{name}: value is not a number")
    errors += [f"unexpected {name}" for name in got if name not in expected]
    return errors


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not run.build():
        return 2
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    workloads = [w["name"] for w in spec["workloads"]] + list(EXTRA_WORKLOADS)
    for name in workloads:
        for trace, expected in ((0, e2e), (1, layers)):
            tag = f"{name} trace={trace}"
            spans = os.path.join(run.BUILD, f"selftest-spans-{name}.csv")
            extra = ("--trace-out", spans) if trace else ()
            try:
                code, result = drive(name, trace, extra)
            except (ValueError, subprocess.TimeoutExpired) as err:
                failures.append(f"{tag}: {err}")
                continue
            problems = check_metrics(result, expected)
            if trace:
                problems += check_spans(spans)
                os.remove(spans)
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"incorrect run (exit {code}, failed {result['failed']})")
            if result["attempted"] < 1:
                problems.append("attempted < 1")
            failures += [f"{tag}: {p}" for p in problems]
            print(f"{tag}: {'ok' if not problems else 'FAIL'} "
                  f"({result['attempted']} ops, {len(result['metrics'])} metrics)")

    wrong_seed = str(run.DEFAULT_SEED + 1)
    for name in workloads:
        tag = f"{name} verify-seed={wrong_seed}"
        try:
            code, result = drive(name, 0, ("--verify-seed", wrong_seed))
        except (ValueError, subprocess.TimeoutExpired) as err:
            failures.append(f"{tag}: {err}")
            continue
        fired = code != 0 and not result["correct"] and result["failed"] > 0
        if not fired:
            failures.append(f"{tag}: gate did not fire")
        print(f"{tag}: {'gate fired' if fired else 'FAIL'} "
              f"({result['failed']} of {result['attempted']} failed)")

    for f in failures:
        print("FAIL", f)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
