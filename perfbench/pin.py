"""Build and pin the case catalogues.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs every candidate case of each workload once, traced, checks it
against its oracle, and writes ``catalogue/<workload>.json``: the case
parameters, the digest of the exact output and the case's work count.
For kinds drawn at random, candidates whose work exceeds the workload's
cap, or that run longer than the candidate timeout, are left out, so that
no single case dominates a pass.  Run it only to change the catalogue:
the pinned digests are what later versions of chowline must reproduce.
"""

import json
import os
import signal
import statistics
import sys
import tempfile

# Work counts depend on set iteration order; pin under the hash seed the
# benchmark's passes use (run.run_pass), or the bins would not repeat.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable] + sys.argv,
              dict(os.environ, PYTHONHASHSEED="0"))

import one_pass  # noqa: E402

sys.path.insert(0, str(one_pass.ROOT / "src"))
sys.path.insert(0, str(one_pass.HERE))

import chowline  # noqa: E402,F401
import layers  # noqa: E402
import workloads  # noqa: E402


class CandidateTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CandidateTimeout()


def _bounded(run):
    def call():
        signal.setitimer(signal.ITIMER_REAL, workloads.CANDIDATE_TIMEOUT_S)
        try:
            return run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return call


def pin(workload):
    specs = workloads.candidates(workload)
    quotas = workloads.QUOTAS[workload]
    counts = {}
    for spec in specs:
        counts[spec["kind"]] = counts.get(spec["kind"], 0) + 1
    drawn = {kind for kind, n in counts.items() if n > quotas[kind]}
    with tempfile.TemporaryDirectory(dir=one_pass.ROOT) as tmp:
        cases = workloads.prepare(workload, specs, tmp)
        for case in cases:
            if case.kind in drawn:
                case.run = _bounded(case.run)
        tracer = layers.Tracer(enabled=True)
        tracer.install()
        signal.signal(signal.SIGALRM, _alarm)
        try:
            records = one_pass.execute(cases, tracer)
        finally:
            tracer.uninstall()
    cap = workloads.WORK_CAP[workload]
    keep = workloads.CANDIDATES_PER_BIN
    pools, dropped = {}, {}
    for spec, record in zip(specs, records):
        kind = spec["kind"]
        if kind in drawn:
            timed_out = not record["ok"] and "CandidateTimeout" in record["error"]
            if timed_out or (cap is not None and record["work"] > cap):
                dropped[kind] = dropped.get(kind, 0) + 1
                continue
        if not record["ok"]:
            raise SystemExit(f"{spec['key']} fails its check:\n{record['error']}")
        entry = dict(spec, digest=record["digest"], work=record["work"])
        pools.setdefault(kind, []).append((entry, record))
    entries = []
    for kind, pool in pools.items():
        quota = quotas[kind]
        if kind in drawn:
            # For each of the quota bins, the candidates nearest its middle
            # quantile of work; select() cuts the same bins again.
            if len(pool) < quota * keep:
                raise SystemExit(f"{workload}: only {len(pool)} {kind} cases for "
                                 f"{quota} bins of {keep}")
            pool.sort(key=lambda pair: (pair[0]["work"], pair[0]["key"]))
            mids = [(2 * b + 1) * len(pool) // (2 * quota) for b in range(quota)]
            pool = [pool[i] for m in mids for i in range(m - keep // 2, m - keep // 2 + keep)]
        entries += [entry for entry, _ in pool]
        ms = sorted(1000 * record["latency"] for _, record in pool)
        print(f"{workload:15s} {kind:20s} quota={quota:4d} n={len(pool):4d} "
              f"dropped={dropped.get(kind, 0):3d} traced ms: min {ms[0]:7.2f} "
              f"med {statistics.median(ms):7.2f} max {ms[-1]:8.2f}")
    with open(workloads.catalogue_path(workload), "w") as handle:
        json.dump(entries, handle, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    workloads.CATALOGUE_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or list(workloads.QUOTAS):
        pin(name)
