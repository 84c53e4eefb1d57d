#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload campus-engine --seed 1 --seconds 12 --trace 0

builds the benchmark (a Go module of its own in this directory) into
.bench_build/ at the repository root, runs one workload and passes its
output through: the last line of standard output is the JSON result.

Two conveniences run the benchmark several times:

    --workload all      every workload in turn, then a table of the
                        end-to-end (or, with --trace 1, per-layer) metrics
                        and one of each workload's own named figures
    --check-counts      the traced run twice with one seed, checking that
                        every deterministic count came out identical

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "perfbench"
SCRATCH = BUILD / "perfbench-scratch"
WORKLOADS = ["campus-engine", "campus-wire", "campus-fleet", "route-churn"]

# A run sets up, measures for --seconds and checks its outputs, and must
# end within 180 s.
RUN_TIMEOUT = 170
BUILD_TIMEOUT = 850

# Per-layer metrics that are exact functions of the seed: two traced
# runs of one seed must report them identically.
DETERMINISTIC = [
    "atoms.affected_max",
    "atoms.affected_mean",
    "atoms.atoms",
    "bytecode.ops_per_pkt",
    "engine.shard_skew",
    "fleet.seed_pairs_per_worker",
    "netsim.checks_per_pkt",
    "netsim.events_per_pkt",
    "netsim.fast_tx_share",
    "netsim.telemetry_bytes_per_pkt",
    "netsim.wire_bytes_per_pkt",
    "pipeline.seed_entries",
    "pipeline.table_applies_per_pkt",
    "wireproto.batch_bytes_per_pkt",
    "wireproto.seed_bytes_per_worker",
]


def build():
    """Builds the benchmark binary with every Go cache inside .bench_build."""
    env = dict(
        os.environ,
        GOCACHE=str(BUILD / "gocache"),
        GOPATH=str(BUILD / "gopath"),
        GOMODCACHE=str(BUILD / "gopath" / "pkg" / "mod"),
        GOTMPDIR=str(BUILD / "gotmp"),
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    for d in ("gocache", "gopath", "gotmp", "config", "perfbench"):
        (BUILD / d).mkdir(parents=True, exist_ok=True)
    go = shutil.which("go") or os.path.join(os.environ.get("GOROOT", ""), "bin", "go")
    subprocess.run(
        [go, "build", "-o", str(BINARY), "."],
        cwd=HERE, env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT,
    )


def run(workload, seed, seconds, trace, capture):
    """Runs one workload; returns (exit code, stdout lines)."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(BINARY), "-workload", workload, "-seed", str(seed),
        "-seconds", str(seconds), "-trace", str(trace), "-scratch", str(SCRATCH),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT}s", file=sys.stderr)
        return 1, []
    lines = [line for line in out.splitlines() if line.strip()]
    for line in lines:
        print(line, file=sys.stderr if capture else sys.stdout)
    return proc.returncode, lines


def named_figures(lines):
    """The workload-specific figures of an end-to-end run's report
    (pkts_per_s, alert_p99_ms, updates_per_s, ...): name -> (value, unit)."""
    out, inside = {}, False
    for line in lines:
        if " end to end: " in line:
            inside = True
        elif line.endswith(" metrics:"):
            inside = False
        elif inside:
            name, value, unit = line.split()
            out[name] = (float(value), unit)
    return out


def table(rows):
    """Prints {workload: {name: (value, unit)}} as one row per name."""
    names = sorted({n for r in rows.values() for n in r})
    print(f"{'metric':44}" + "".join(f"{w:>16}" for w in WORKLOADS) + "  unit")
    for n in names:
        cells = [rows[w].get(n) for w in WORKLOADS]
        unit = next(c[1] for c in cells if c)
        print(f"{n:44}" + "".join(f"{c[0]:16.6g}" if c else f"{'-':>16}" for c in cells) + f"  {unit}")


def run_all(args):
    results, named = {}, {}
    for w in WORKLOADS:
        rc, lines = run(w, args.seed, args.seconds, args.trace, capture=True)
        if rc != 0:
            return rc
        results[w] = json.loads(lines[-1])
        named[w] = named_figures(lines)
        named[w]["failed_share"] = (results[w]["failed"] / results[w]["attempted"], "share")
    table({w: {k: (m["value"], m["unit"]) for k, m in r["metrics"].items()} for w, r in results.items()})
    if args.trace == 0:
        print()
        table(named)
    return 0 if all(r["correct"] for r in results.values()) else 1


def check_counts(args):
    runs = []
    for _ in range(2):
        rc, lines = run(args.workload, args.seed, args.seconds, 1, capture=True)
        if rc != 0:
            return rc
        runs.append(json.loads(lines[-1])["metrics"])
    differ = 0
    for n in DETERMINISTIC:
        a, b = runs[0][n]["value"], runs[1][n]["value"]
        same = a == b
        differ += not same
        print(f"{n:44} {a:>18.10g} {b:>18.10g}  {'same' if same else 'DIFFERENT'}")
    print(f"{len(DETERMINISTIC) - differ} of {len(DETERMINISTIC)} deterministic counts identical across two runs of seed {args.seed}")
    return 1 if differ else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--check-counts", action="store_true")
    args = ap.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.check_counts:
        if args.workload == "all":
            ap.error("--check-counts takes one workload")
        return check_counts(args)
    if args.workload == "all":
        return run_all(args)
    rc, _ = run(args.workload, args.seed, args.seconds, args.trace, capture=False)
    return rc


if __name__ == "__main__":
    sys.exit(main())
