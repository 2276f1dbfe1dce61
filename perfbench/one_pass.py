"""One pass over one workload, in a fresh process.

    python3 perfbench/one_pass.py --workload NAME --seed N --trace 0|1
        [--spawned-at T] [--spans PATH]

Prints one JSON object: per-case latencies and the host calibrations
around them, failures, set-up time, peak resident memory and, when
traced, the per-layer metrics.  ``run.py``
starts this once per pass so that no pass can reuse anything an earlier
pass left in memory.  ``--spawned-at`` is the parent's CLOCK_MONOTONIC
reading just before it started this process; set-up time is measured
from it, so it includes interpreter start and imports.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# A calibration runs after at least this much case time, and after the
# last case.
CALIBRATION_EVERY_S = 0.02

_CALIBRATION_TERMS = [
    (tuple(sorted({(f"x{i % 5}", i % 3 + 1), (f"y{i % 7}", 1)})),
     Fraction(i % 9 + 1, i % 4 + 2))
    for i in range(40)]


def _calibration_loop():
    out = {}
    for m1, c1 in _CALIBRATION_TERMS:
        for m2, c2 in _CALIBRATION_TERMS[:4]:
            mono = tuple(sorted(dict(m1 + m2).items()))
            out[mono] = out.get(mono, 0) + c1 * c2
    return out


def calibrate():
    """Seconds for a fixed loop of the work chowline spends its time on
    (sparse products of Fraction coefficients keyed by monomial tuples),
    median of three.  It measures how fast the host runs Python right
    now, independently of chowline: the cyclic garbage collector is off
    while it runs, so neither the program's live heap nor any collector
    setting it makes (gc.freeze, gc.set_threshold, gc.disable) reaches
    the calibration and cancels out of the scaled times."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _calibration_loop()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return sorted(times)[1]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def execute(cases, tracer):
    """Run each case, timed, then its check, untimed and untraced.

    Returns one record per case: latency, the mean of the calibrations
    just before and after it, verdict, output digest and the traced work
    of the case (spans plus polynomial term pairs; zero when not traced).
    """
    records = []
    clock = time.perf_counter
    before = calibrate()
    waiting, since = [], 0.0
    for index, case in enumerate(cases):
        spans0, pairs0 = len(tracer.span_name), tracer.term_pairs
        tracer.case = index
        error = None
        tracer.active = tracer.enabled
        t0 = clock()
        try:
            out = case.run()
        except Exception:
            error = traceback.format_exc()
        t1 = clock()
        tracer.active = False
        work = len(tracer.span_name) - spans0 + tracer.term_pairs - pairs0
        if error is None:
            try:
                ok, text = case.check(out)
                if not ok:
                    error = f"wrong verdict or oracle mismatch; output: {text[-1000:]}"
            except Exception:
                ok, text = False, traceback.format_exc()
                error = text
        else:
            ok, text = False, error
        records.append({"key": case.key, "kind": case.kind, "latency": t1 - t0,
                        "ok": bool(ok), "digest": digest(text), "work": work,
                        "error": None if ok else error[-2000:]})
        waiting.append(records[-1])
        since += t1 - t0
        if since >= CALIBRATION_EVERY_S or index == len(cases) - 1:
            after = calibrate()
            for record in waiting:
                record["calibration"] = (before + after) / 2
            before, waiting, since = after, [], 0.0
    return records


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at
    t0 = time.monotonic()
    start_calibration = calibrate()
    calibration_s = time.monotonic() - t0  # not part of set-up

    if not (ROOT / "src" / "chowline" / "__init__.py").is_file():
        print(f"error: no chowline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import chowline  # noqa: F401  (imports every layer module)
    import layers
    import workloads

    catalogue = workloads.load_catalogue(args.workload)
    pinned = {entry["key"]: entry["digest"] for entry in catalogue}
    specs = workloads.select(args.workload, catalogue, args.seed)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        cases = workloads.prepare(args.workload, specs, workdir)
        tracer = layers.Tracer(enabled=bool(args.trace))
        if args.trace:
            tracer.install()
        setup_s = time.monotonic() - spawned_at - calibration_s
        # Set-up spans several changes of host speed: scale it by the mean
        # of a calibration at its start and one at its end.
        setup_calibration = (start_calibration + calibrate()) / 2
        records = execute(cases, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = []
    for record in records:
        if record["ok"] and record["digest"] != pinned[record["key"]]:
            record["ok"] = False
            record["error"] = (f"digest {record['digest']} differs from the "
                               f"pinned {pinned[record['key']]}")
        if not record["ok"]:
            failures.append({"key": record["key"], "error": record["error"]})
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_calibration": setup_calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latencies": [r["latency"] for r in records],
        "calibrations": [r["calibration"] for r in records],
        "kinds": [r["kind"] for r in records],
        "failures": failures,
    }
    if args.trace:
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
