#!/usr/bin/env python3
"""The specmatcher benchmark: fixed coverage checks, end-to-end timings
and per-layer attribution.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It builds the `specmatcher` CLI
and `perfbench/worker` (release profile, into `$CARGO_TARGET_DIR`, default
`.bench_build`), then starts one process per measured pass, one at a time.
A check is `specmatcher check --design <d> --backend <b> --jobs 1 --bmc <m>
--json`; the worker times model builds, primary phases and traced passes.

* `--trace 0` repeats, until `--seconds` have passed (at least once):
  SETUPS cold model builds, primary-phase passes, one check,
  primary-phase passes, SETUPS more cold model builds. It reports the
  end-to-end metrics as medians.
* `--trace 1` runs one untraced check, for trace.overhead_s, and then two
  traced passes, which must give identical counters. It reports the
  per-layer metrics.

Every check is compared with `perfbench/reference.json`: exit code,
completeness, unknown candidates, resolved engines and the ordered gap
fingerprint. A mismatch counts as a failed run. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
See `perfbench/README.md` for what each metric means.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER_MANIFEST = os.path.join(HERE, "worker", "Cargo.toml")
REFERENCE = os.path.join(HERE, "reference.json")

# Cold model builds timed on each side of a check (each in its own process,
# 1-3 ms each), so the setup_s median does not rest on one short stretch of
# machine noise.
SETUPS = 40
# Primary-phase passes on each side of the check, at least one and until
# PRIMARY_BUDGET_S is spent: a 1-4 s phase in a fresh process varies by a
# quarter from pass to pass, and machine speed drifts over tens of
# seconds, so primary_s is the median of the check's primary time and
# passes taken before and after it.
PRIMARY_BUDGET_S = 2.0
# A run stops starting new passes, and kills a running one, RUN_CAP_S
# after it started, so that it exits within 180 s. A run whose build took
# long (the first in a checkout) gets BUILD_RUN_CAP_S after its build
# instead. A pass killed at the cap counts as failed.
RUN_CAP_S = 176.0
BUILD_RUN_CAP_S = 170.0

END_TO_END = [
    ("check_s", "s"),
    ("setup_s", "s"),
    ("primary_s", "s"),
    ("gap_s", "s"),
    ("peak_rss_mb", "MB"),
]


def ratio(num, den):
    return num / den if den else 0.0


def span_total(spans, name):
    return spans.get(name, {}).get("total_s", 0.0)


def span_self(spans, name):
    return spans.get(name, {}).get("self_s", 0.0)


def span_calls(spans, name):
    return spans.get(name, {}).get("calls", 0)


# name, unit, value from (spans, counters) of one traced pass. The layer is
# the name's first component; README.md maps each to the end-to-end metric
# and workload it should move.
PER_LAYER = [
    ("core.setup_s", "s", lambda s, c: span_total(s, "bench.setup")),
    ("core.primary_s", "s", lambda s, c: span_total(s, "bench.primary")),
    ("core.uncovered_terms_s", "s", lambda s, c: span_total(s, "bench.uncovered_terms")),
    ("core.find_gap_s", "s", lambda s, c: span_total(s, "bench.find_gap")),
    ("core.self_s", "s", lambda s, c: sum(
        span_self(s, n) for n in ("bench.setup", "bench.primary",
                                  "bench.uncovered_terms", "bench.find_gap"))),
    ("explicit.states_expanded", "count", lambda s, c: c["explicit.states_expanded"]),
    ("gap.candidates_enumerated", "count", lambda s, c: c["gap.candidates_enumerated"]),
    ("gap.implication_settled", "count", lambda s, c: c["gap.implication_settled"]),
    ("gap.probe_refuted", "count", lambda s, c: c["gap.probe_refuted"]),
    ("gap.fixpoint_verified", "count", lambda s, c: c["gap.fixpoint_verified"]),
    ("gap.budget_refunds", "count", lambda s, c: c["gap.budget_refunds"]),
    ("gap.fixpoint_share", "ratio", lambda s, c: ratio(
        c["gap.fixpoint_verified"], c["gap.candidates_enumerated"])),
    ("symbolic.product_build_s", "s", lambda s, c: span_self(s, "symbolic.product_build")),
    ("symbolic.product_build_calls", "count", lambda s, c: span_calls(s, "symbolic.product_build")),
    ("symbolic.reachable_s", "s", lambda s, c: span_self(s, "symbolic.reachable")),
    ("symbolic.fair_hull_s", "s", lambda s, c: span_self(s, "symbolic.fair_hull")),
    ("bdd.ite_ops", "count", lambda s, c: c["bdd.ite_ops"]),
    ("bdd.and_exists_ops", "count", lambda s, c: c["bdd.and_exists_ops"]),
    ("bdd.rename_ops", "count", lambda s, c: c["bdd.rename_ops"]),
    ("bdd.partition_images", "count", lambda s, c: c["bdd.partition_images"]),
    ("bdd.memo_hit_rate", "ratio", lambda s, c: ratio(c["bdd.memo_hits"], c["bdd.memo_lookups"])),
    ("bdd.unique_hit_rate", "ratio", lambda s, c: ratio(
        c["bdd.unique_hits"], c["bdd.unique_lookups"])),
    ("bdd.peak_nodes", "count", lambda s, c: c["bdd.peak_nodes"]),
    ("bdd.gc_collections", "count", lambda s, c: c["bdd.gc_collections"]),
    ("bdd.reorders", "count", lambda s, c: c["bdd.reorders"]),
    ("bmc.queries", "count", lambda s, c: c["bmc.queries"]),
    ("bmc.encode_s", "s", lambda s, c: span_self(s, "bmc.encode")),
    ("bmc.solve_s", "s", lambda s, c: span_self(s, "bmc.solve")),
    ("bmc.refute_rate", "ratio", lambda s, c: ratio(c["bmc.refuted"], c["bmc.queries"])),
    ("sat.conflicts", "count", lambda s, c: c["sat.conflicts"]),
    ("sat.decisions", "count", lambda s, c: c["sat.decisions"]),
    ("automata.translate_s", "s", lambda s, c: span_self(s, "automata.translate")),
    ("automata.translate_calls", "count", lambda s, c: span_calls(s, "automata.translate")),
    ("gba.cache_hit_rate", "ratio", lambda s, c: ratio(
        c["gba.cache_hits"], c["gba.cache_hits"] + c["gba.cache_misses"])),
    ("fsm.kripke_build_s", "s", lambda s, c: span_self(s, "fsm.kripke_build")),
    ("trace.unattributed_s", "s", lambda s, c: span_self(s, "bench.check")),
]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def out(line=""):
    print(line, flush=True)


def percentile_note(n):
    """The highest percentile with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return "n=%d; no percentile above the median has 10 samples beyond it" % n
    return "n=%d; p%d supported" % (n, best)


def build():
    """Builds the CLI and the worker; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        die("the specmatcher sources are not here (crates/core missing); "
            "run from the root of a repository checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, what in ((os.path.join(ROOT, "Cargo.toml"), "--bin=specmatcher"),
                           (WORKER_MANIFEST, "--bin=perfbench-worker")):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, what]
        if subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            die("building %s failed" % what.split("=")[1])
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench-worker"), os.path.join(release, "specmatcher")


def environment_record():
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True,
                               text=True).stdout.strip() or "unknown"
    except OSError:
        rustc = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or "none"
    except OSError:
        commit = "none"
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml", ".py", ".json")))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return {
        "cores": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "rustc": rustc,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "profile": "release (opt-level 3, debug = true), jobs 1",
    }


class Runner:
    """Starts processes one at a time under the run's time cap."""

    def __init__(self, worker, cli, deadline):
        self.worker = worker
        self.cli = cli
        self.deadline = deadline

    def time_left(self):
        return self.deadline - time.monotonic()

    def spawn(self, cmd):
        """Runs one process to its end, or kills it at the cap. Returns
        (exit code, stdout, wall seconds, peak RSS in MiB), or None when
        the process was killed or not started for lack of time."""
        left = self.time_left()
        if left <= 0:
            print("perfbench: no time left for %s" % " ".join(cmd[1:]), file=sys.stderr)
            return None
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        streams = {}
        readers = [threading.Thread(target=lambda k, f: streams.__setitem__(k, f.read()),
                                    args=(k, f)) for k, f in (("out", proc.stdout),
                                                             ("err", proc.stderr))]
        for r in readers:
            r.start()
        killed = threading.Event()
        timer = threading.Timer(left, lambda: (killed.set(), proc.kill()))
        timer.start()
        # wait4 rather than Popen.wait: it also returns the child's rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        for r in readers:
            r.join()
        proc.stdout.close()
        proc.stderr.close()
        sys.stderr.write(streams["err"])
        if killed.is_set():
            print("perfbench: %s killed at the run's time cap" % " ".join(cmd[1:]),
                  file=sys.stderr)
            return None
        return proc.returncode, streams["out"], wall, usage.ru_maxrss / 1024.0

    def worker_pass(self, *args):
        """Runs one worker pass; returns its JSON line, or None if it failed."""
        done = self.spawn([self.worker, *args])
        if done is None:
            return None
        code, stdout, _, _ = done
        lines = stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1]) if lines else None
        except ValueError:
            record = None
        if code != 0 or record is None:
            print("perfbench: worker %s exited %s without a result" % (" ".join(args), code),
                  file=sys.stderr)
            return None
        return record

    def check(self, design, backend, bmc):
        """Runs `specmatcher check --json` once; returns what verify() and
        the end-to-end metrics need, or None if it printed no report."""
        done = self.spawn([self.cli, "check", "--design", design, "--backend", backend,
                           "--jobs", "1", "--bmc", bmc, "--json"])
        if done is None:
            return None
        code, stdout, wall, rss_mb = done
        try:
            report = json.loads(stdout)
        except ValueError:
            print("perfbench: check of %s exited %s without a JSON report" % (design, code),
                  file=sys.stderr)
            return None
        props = report["properties"]
        return {
            "exit_code": code,
            "covered": report["all_covered"],
            "complete": report["incomplete"] is None,
            "unknown": sum((p["unknown"] is not None) + len(p["unknown_gaps"]) for p in props),
            "backend": report["backend"],
            "gap_backend": report["gap_backend"],
            # As dic_bench::gap_fingerprint renders a run.
            "fingerprint": ["%s: %s" % (p["name"], g["formula"])
                            for p in props for g in p["gap_properties"]],
            "check_s": wall,
            "primary_s": report["timings"]["primary_s"],
            "gap_s": report["timings"]["gap_find_s"],
            "peak_rss_mb": rss_mb,
        }


def verify(workload, ref, record):
    """Problems with one check or traced pass against the reference. A
    traced pass has no exit code; its verdict is checked by `covered`."""
    if record is None:
        problems = ["a pass gave no result"]
    else:
        problems = []
        if "exit_code" in record and record["exit_code"] != ref["exit_code"]:
            problems.append("exit code %s, expected %s" % (record["exit_code"], ref["exit_code"]))
        if record["covered"] != (ref["exit_code"] == 0):
            problems.append("covered is %s against the reference" % record["covered"])
        if not record["complete"]:
            problems.append("incomplete run")
        if record["unknown"]:
            problems.append("%d unknown candidates" % record["unknown"])
        engines = [record["backend"], record["gap_backend"]]
        if engines != ref["engines"]:
            problems.append("engines %s, expected %s" % (engines, ref["engines"]))
        expected = ref["fingerprint"]
        got = record["fingerprint"]
        if got != expected:
            first = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                         min(len(got), len(expected)))
            problems.append("gap fingerprint differs at entry %d (%d entries, expected %d)"
                            % (first, len(got), len(expected)))
    for p in problems:
        print("perfbench: %s: %s" % (workload, p), file=sys.stderr)
    return problems


def load_reference(workload):
    with open(REFERENCE) as fh:
        doc = json.load(fh)
    if workload not in doc["workloads"]:
        die("unknown workload %r; known: %s" % (workload, ", ".join(sorted(doc["workloads"]))))
    ref = dict(doc["workloads"][workload])
    ref["fingerprint"] = doc["fingerprints"][ref["design"]]
    return ref


def untraced_run(runner, workload, ref, seconds):
    design, backend, bmc = ref["design"], ref["backend"], ref["bmc"]
    setups, primaries, checks = [], [], []
    attempted = failed = 0

    def setup_passes(count):
        for _ in range(count):
            record = runner.worker_pass("setup", design, backend)
            if record is None:
                die("a model build failed on %s" % workload)
            setups.append(record["setup_s"])

    def primary_passes():
        nonlocal attempted, failed
        start = time.monotonic()
        while runner.time_left() > 0:
            record = runner.worker_pass("primary", design, backend)
            attempted += 1
            if record is None or record["covered"] != (ref["exit_code"] == 0):
                print("perfbench: %s: primary pass gave %s" % (workload, record), file=sys.stderr)
                failed += 1
            else:
                primaries.append(record["primary_s"])
            if time.monotonic() - start >= PRIMARY_BUDGET_S:
                break

    start = time.monotonic()
    while True:
        began = time.monotonic()
        setup_passes(SETUPS)
        primary_passes()
        record = runner.check(design, backend, bmc)
        attempted += 1
        if verify(workload, ref, record):
            failed += 1
        if record is not None:
            checks.append(record)
            primaries.append(record["primary_s"])
        primary_passes()
        setup_passes(SETUPS)
        took = time.monotonic() - began
        elapsed = time.monotonic() - start
        if elapsed >= seconds or runner.time_left() < took or runner.time_left() <= 0:
            break
    if not checks:
        return attempted, failed, None
    samples = {name: [c[name] for c in checks] for name in ("check_s", "gap_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    samples["primary_s"] = primaries
    metrics = {}
    out("end-to-end metrics (%s, untraced, medians):" % workload)
    for name, unit in END_TO_END:
        value = statistics.median(samples[name])
        metrics[name] = {"value": value, "unit": unit}
        out("  %-14s %14.6f %-5s (%s)" % (name, value, unit, percentile_note(len(samples[name]))))
    out("  %-14s %14.6f %-5s (%d failed of %d attempted)"
        % ("failure_rate", ratio(failed, attempted), "ratio", failed, attempted))
    return attempted, failed, metrics


def traced_run(runner, workload, ref):
    """One untraced check, then two traced passes. A pass that misses the
    run's time cap counts as failed; the metrics need the check and at
    least one traced pass."""
    design, backend, bmc = ref["design"], ref["backend"], ref["bmc"]
    plain = runner.check(design, backend, bmc)
    attempted, failed = 1, int(bool(verify(workload, ref, plain)))
    passes = []
    for _ in range(2):
        record = runner.worker_pass("traced", design, backend, bmc)
        attempted += 1
        if verify(workload, ref, record):
            failed += 1
        if record is not None:
            passes.append(record)
    if plain is None or not passes:
        return attempted, failed, None

    if len(passes) < 2:
        print("perfbench: %s: one traced pass only, so counter determinism is unchecked"
              % workload, file=sys.stderr)
    else:
        first, second = passes[0]["counters"], passes[1]["counters"]
        differing = [k for k in first if first[k] != second.get(k)]
        if differing:
            k = differing[0]
            print("perfbench: %s: counters differ between two traced passes, first at %s: "
                  "%s vs %s" % (workload, k, first[k], second.get(k)), file=sys.stderr)
            failed += 1
        else:
            out("counter determinism (%s): %d counters identical across two traced passes"
                % (workload, len(first)))

    spans = passes[0]["spans"]
    root = span_total(spans, "bench.check")
    out("span self times (%s, first traced pass; bench.check self = time no span covers):"
        % workload)
    for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        out("  %-26s calls %7d  total %11.6f s  self %11.6f s" % (
            name, s["calls"], s["total_s"], s["self_s"]))
    attributed = sum(s["self_s"] for s in spans.values())
    out("  %-26s %11.6f s of %11.6f s traced" % ("sum of self times", attributed, root))
    if abs(attributed - root) > 1e-3:
        print("perfbench: %s: span self times sum to %.6f s, not the traced %.6f s: a span "
              "lies outside bench.check" % (workload, attributed, root), file=sys.stderr)
        failed += 1

    metrics = {}
    for name, unit, fn in PER_LAYER:
        values = [fn(p["spans"], p["counters"]) for p in passes]
        # Counts and ratios are identical in both passes (checked above).
        value = statistics.median(values) if unit == "s" else values[0]
        metrics[name] = {"value": value, "unit": unit}
    traced_s = statistics.median(p["check_s"] for p in passes)
    metrics["trace.check_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - plain["check_s"], "unit": "s"}
    out("per-layer metrics (%s, median of %d traced passes):" % (workload, len(passes)))
    for name, m in metrics.items():
        value = m["value"]
        shown = "%d" % value if isinstance(value, int) else "%.6f" % value
        out("  %-28s %18s %s" % (name, shown, m["unit"]))
    return attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="recorded only: every workload is a packaged design with fixed inputs")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    started = time.monotonic()
    overrides = sorted(k for k in os.environ if k.startswith("SPECMATCHER_"))
    if overrides:
        die("refusing to measure with %s set" % ", ".join(overrides))
    if not os.path.isfile(REFERENCE):
        die("no reference verdicts at %s" % REFERENCE)
    ref = load_reference(args.workload)
    worker, cli = build()

    out("env: " + json.dumps(dict(environment_record(), workload=args.workload,
                                  seed=args.seed, seconds=args.seconds, trace=args.trace)))
    deadline = max(started + RUN_CAP_S, time.monotonic() + BUILD_RUN_CAP_S)
    runner = Runner(worker, cli, deadline)
    if args.trace:
        attempted, failed, metrics = traced_run(runner, args.workload, ref)
    else:
        attempted, failed, metrics = untraced_run(runner, args.workload, ref, args.seconds)
    if metrics is None:
        die("%s: no pass completed (%d attempted)" % (args.workload, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
