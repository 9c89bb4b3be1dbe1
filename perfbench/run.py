#!/usr/bin/env python3
"""fuzzygamma benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 2.  One process runs one workload: set-up (timed
separately, in fresh processes), then a closed loop with one caller that
runs items until ``--seconds`` have passed, checking every verdict against
a reference.  With ``--trace 1`` the loop runs a second time with the
program's public functions wrapped (see ``tracer.py``) and the per-layer
metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  A human-readable report goes to standard error.
The exit code is 0 when every check passed, 1 when one failed, 2 on a usage
or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from workloads import LAW_IDS, CONTROL_ID, SetupError  # noqa: E402


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import fuzzygamma from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "fuzzygamma" / "__init__.py").is_file():
        fail(f"no program at {SRC / 'fuzzygamma'}")
    sys.path.insert(0, str(SRC))
    import fuzzygamma
    from fuzzygamma import enumeration, fuzzy, ideals, structure, theorems
    if Path(fuzzygamma.__file__).resolve().parent != SRC / "fuzzygamma":
        fail(f"imported fuzzygamma from {fuzzygamma.__file__}")
    return types.SimpleNamespace(enumeration=enumeration, fuzzy=fuzzy,
                                 ideals=ideals, structure=structure,
                                 theorems=theorems)


def time_setup(args) -> list[float]:
    """Wall time of a fresh process that imports the program and builds the
    workload's inputs, ``SETUP_REPEATS`` times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            fail(f"set-up process failed:\n{done.stderr}")
    return times


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": git_commit()}


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1] if len(values) > 1 else values[0]


# --- tracing ---------------------------------------------------------------

def install_tracer(fg):
    from tracer import Tracer
    tr = Tracer()
    th, fz, en = fg.theorems, fg.fuzzy, fg.enumeration
    tr.wrap(th, "check", "theorems.check", label=lambda a, k: (
        "theorems.check." + (a[1] if len(a) > 1 else k["theorem_id"])))
    tr.wrap(th, "check_all", "theorems.check_all")
    tr.wrap(th, "replay_witness", "theorems.replay_witness")
    tr.wrap(th, "factorizations", "structure.factorizations")
    tr.wrap(fz, "factorizations", "structure.factorizations")
    tr.wrap(fz, "enumerate_grid_battery", "fuzzy.enumerate_grid_battery")
    tr.wrap(fz, "compose", "fuzzy.compose")
    tr.wrap(fg.ideals, "classify", "ideals.classify")
    tr.wrap(fg.structure.GammaStructure, "digest", "structure.digest")
    tr.wrap(en, "validate_structure", "structure.validate_structure")
    for name in ("enumerate_structures", "enumerate_tables",
                 "enumerate_orders", "canonical_encoding"):
        tr.wrap(en, name, f"enumeration.{name}")
    return tr


def layer_metrics(fg, tr, rec, overhead_s: float) -> dict:
    """Per-layer metrics of a traced loop, each per pass of the workload.

    A ratio comes with its numerator and denominator as metrics of their
    own, and reads 0 when the denominator is 0.  A metric whose wrapped
    function no longer exists in the program is left out.
    """
    summ = tr.summary()
    per = 1.0 / rec.passes
    out = {}

    def put(name, value, unit, needs=()):
        if not any(n in tr.missing for n in needs):
            out[name] = {"value": value, "unit": unit}

    def span(name, key="s"):
        return summ.get(name, {}).get(key, 0.0) * per

    def calls(name):
        return summ.get(name, {}).get("spans", 0) * per

    def ratio(num, den):
        return num / den if den else 0.0

    for law in LAW_IDS + (CONTROL_ID,):
        put(f"theorems.check.{law}.s", span(f"theorems.check.{law}"), "s",
            ["theorems.check"])
    put("theorems.check_all.s", span("theorems.check_all"), "s",
        ["theorems.check_all"])
    put("theorems.context.self_s", span("theorems.check_all", "ctx_s"), "s",
        ["theorems.check_all", "theorems.check"])
    for name in ("theorems.replay_witness", "fuzzy.compose", "ideals.classify",
                 "structure.validate_structure", "structure.digest"):
        put(f"{name}.s", span(name), "s", [name])
        put(f"{name}.calls", calls(name), "count", [name])
    refuted, replay_ok = rec.counts["refuted"], rec.counts["replay_ok"]
    put("theorems.refuted", refuted * per, "count")
    put("theorems.replay_ok", replay_ok * per, "count")
    put("theorems.replay_ok_ratio", ratio(replay_ok, refuted), "ratio")

    battery = "fuzzy.enumerate_grid_battery"
    rows = tr.items[battery]
    put(f"{battery}.s", span(battery), "s", [battery])
    put("fuzzy.battery_rows", rows * per, "count", [battery])
    put("fuzzy.battery_rows_per_structure", ratio(rows, rec.attempted),
        "rows", [battery])

    fact = "structure.factorizations"
    put(f"{fact}.calls", calls(fact), "count", [fact])
    cache_info = getattr(fg.structure.factorizations, "cache_info", None)
    if cache_info is not None:
        put(f"{fact}.cache_entries", cache_info().currsize, "count")

    tables = "enumeration.enumerate_tables"
    orders = "enumeration.enumerate_orders"
    canon = "enumeration.canonical_encoding"
    put(f"{tables}.s", span(tables), "s", [tables])
    put("enumeration.tables", tr.items[tables] * per, "count", [tables])
    put(f"{orders}.s", span(orders), "s", [orders])
    put(f"{orders}.calls", tr.calls[orders] * per, "count", [orders])
    put("enumeration.orders", tr.items[orders] * per, "count", [orders])
    put("enumeration.orders_per_table",
        ratio(tr.items[orders], tr.calls[orders]), "orders", [orders])
    put(f"{canon}.s", span(canon), "s", [canon])
    put(f"{canon}.calls", calls(canon), "count", [canon])
    put("enumeration.iso_kept", rec.counts["iso_kept"] * per, "count")
    put("enumeration.iso_kept_ratio",
        ratio(rec.counts["iso_kept"], summ.get(canon, {}).get("spans", 0)),
        "ratio", [canon])
    put("enumeration.enumerate_structures.self_s",
        span("enumeration.enumerate_structures", "self_s"), "s",
        ["enumeration.enumerate_structures"])

    put("trace.overhead_s", overhead_s, "s")
    put("trace.structures", rec.attempted * per, "count")
    put("trace.spans", sum(v["spans"] for v in summ.values()) * per, "count")
    return out


def save_spans(tr, workload: str) -> Path:
    import numpy as np
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}.npz"
    np.savez_compressed(path, names=np.array(tr.names), **tr.spans())
    return path


# --- main ------------------------------------------------------------------

def report(args, rec, extra: dict, kind: str = "untraced") -> None:
    times = rec.verdict_s
    lines = [f"workload {args.workload} seed {args.seed} "
             f"({'smoke' if args.smoke else 'full'}, {kind}): "
             f"{rec.items} items, "
             f"{rec.passes:.3f} passes, {len(times)} verdicts timed",
             f"  attempted {rec.attempted} failed {rec.failed} "
             f"failed_ratio {rec.failed / rec.attempted:.6f}"]
    for q in (0.25, 0.5, 0.75, 0.9, 0.99):
        if q == 0.5 or len(times) * (1 - q) >= 10:
            lines.append(f"  verdict_s.p{round(q * 100)} "
                         f"{quantile(times, q):.6f} s")
    lines += [f"  {k} {v}" for k, v in extra.items()]
    lines += [f"  FAILED {p}" for p in rec.problems[:20]]
    print("\n".join(lines), file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own test")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    fg = load_program()
    make = workloads.WORKLOADS[args.workload]
    try:
        if args.setup_only:
            make(fg, args.seed, args.smoke)
            return 0
        setup_times = [] if args.trace else time_setup(args)
        wl = make(fg, args.seed, args.smoke)
    except SetupError as exc:
        print(f"perfbench: set-up check failed: {exc}", file=sys.stderr)
        return 2

    rec = workloads.measure(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_s = rec.program_s / rec.passes
    extra = {"run_s": run_s, "peak_rss_mb": peak_rss_mb}
    if setup_times:
        extra["setup_s runs"] = setup_times
    report(args, rec, extra)
    recs = [rec]
    if args.trace:
        cache_clear = getattr(fg.structure.factorizations, "cache_clear", None)
        if cache_clear is not None:
            cache_clear()
        with install_tracer(fg) as tr:
            traced = workloads.measure(wl, args.seconds)
        traced_run_s = traced.program_s / traced.passes
        metrics = layer_metrics(fg, tr, traced, traced_run_s - run_s)
        spans_path = save_spans(tr, args.workload)
        report(args, traced, {"traced run_s": traced_run_s,
                              "spans": spans_path.relative_to(ROOT),
                              "absent": sorted(tr.missing)}, "traced")
        recs.append(traced)
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "verdict_s.p50": {"value": statistics.median(rec.verdict_s),
                              "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    failed = sum(r.failed for r in recs)
    print("# env " + json.dumps(environment()))
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r.attempted for r in recs),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
