#!/usr/bin/env python3
"""Fast self-test of the benchmark harness on the tiny `mal-ex2` design.

    python3 perfbench/selftest.py

Run it from the root of the repository. It checks that:

* an untraced run prints every end-to-end metric of BENCHMARK.json, and
  `failure_rate`, by name and unit, and returns exactly those metrics;
* a traced run returns exactly the per-layer metrics of BENCHMARK.json;
* a deliberately wrong reference fingerprint is counted as a failure;
* a `SPECMATCHER_*` override makes the harness refuse to measure.

Exits 0 when every check passes.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the harness itself, next to this file)
WORKLOAD = "selftest-ex2"
failures = []


def check(ok, what):
    print("%s: %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def harness(trace, env=None):
    cmd = [sys.executable, RUN, "--workload", WORKLOAD, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    proc, result = harness(0)
    check(proc.returncode == 0 and result is not None, "untraced run exits 0 with a result")
    if result is not None:
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
              "result has exactly correct/attempted/failed/metrics")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              "untraced run matches the reference")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == e2e, "untraced metrics are exactly the end-to-end metrics")
    printed = proc.stdout.splitlines()[:-1]
    for name, unit in list(e2e.items()) + [("failure_rate", "ratio")]:
        check(any(l.split()[:1] == [name] and unit in l.split() for l in printed),
              "%s printed with unit %s" % (name, unit))

    proc, result = harness(1)
    check(proc.returncode == 0 and result is not None and result["correct"],
          "traced run exits 0 with a correct result")
    if result is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == layers, "traced metrics are exactly the per-layer metrics")
    check("counter determinism" in proc.stdout, "traced run compares counters")
    check(any(l.split()[:1] == ["bench.check"] for l in proc.stdout.splitlines()),
          "traced run prints the time no span covers")

    # The harness's own untraced run, against a reference whose first
    # gap property is wrong.
    ref = run.load_reference(WORKLOAD)
    ref["fingerprint"] = ["A: G(wrong)"] + ref["fingerprint"][1:]
    with contextlib.redirect_stdout(io.StringIO()):
        worker, cli = run.build()
        runner = run.Runner(worker, cli, time.monotonic() + run.RUN_CAP_S)
        attempted, failed, _ = run.untraced_run(runner, WORKLOAD, ref, 1)
    check(attempted >= 1 and failed >= 1,
          "a wrong reference fingerprint is counted as a failure")

    env = dict(os.environ, SPECMATCHER_JOBS="1")
    proc, result = harness(0, env=env)
    check(proc.returncode != 0 and result is None, "a SPECMATCHER_* override is refused")

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
