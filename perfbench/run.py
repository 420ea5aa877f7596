"""The splitkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload topo-q --seed 1 --seconds 30 --trace 0

Run from the repository root.  A request is one `splitkit.cli.main(argv)`
call in a fresh interpreter (child.py); a single client sends the
workload's requests as a closed loop, one in flight, and checks every
report against the independent oracles in checks.py.  It makes whole
passes over the request list, at least one and more while another still
fits in `--seconds`; an untraced run then fills the time left by sending
again the requests that set req_p50_s and req_tail_s (see `measure`).

--trace 0 prints the end-to-end metrics.  --trace 1 runs every request
twice, untraced and traced, and prints the per-layer metrics of
tracing.py with the tracing overhead.  The last stdout line is the JSON
result; the lines before it are the same numbers for a human reader.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import tracing  # noqa: E402
import workloads  # noqa: E402

REQUEST_TIMEOUT_S = 40.0  # a hung request is killed and counted as failed
RUN_LIMIT_S = 150.0  # no request starts after this; a run must end within 180 s
WARMUP_REQUESTS = 2  # fill the bytecode caches before timing set-up
TAIL_BEYOND = 10  # req_tail_s: highest percentile with this many samples beyond it
CHILD_ENV = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SPLITKIT_SIZE_CAP")}
CHILD_ENV.update(PYTHONHASHSEED="0", PYTHONIOENCODING="utf-8")
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("req_p50_s", "s"), ("req_tail_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class Outcome:
    label: str
    error: str | None = None  # None when the report passed its check
    setup: float | None = None  # spawn until splitkit.cli is imported
    latency: float | None = None  # main(argv), JSON emit included
    rss_kb: int = 0
    wall: float = 0.0  # spawn until the process ended


def run_request(req_id: int, req: workloads.Request | None, argv, deadline: float, spans: Path | None = None) -> Outcome:
    """Spawn one request process, wait for it (or kill it) and check its report."""
    label = req.label if req else " ".join(argv)
    timeout = min(REQUEST_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        return Outcome(label, "not started: run time limit reached")
    cmd = [sys.executable, str(HERE / "child.py"), str(req_id), str(spans) if spans else "-", *argv]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Outcome(label, f"timed out after {timeout:.1f} s", wall=time.monotonic() - spawned)
    wall = time.monotonic() - spawned
    lines = err.decode("utf-8", "replace").splitlines()
    if not lines or not lines[-1].startswith("PERFBENCH "):
        return Outcome(label, f"exit {proc.returncode} without a timing record: {lines[-1:] or 'no stderr'}", wall=wall)
    rec = json.loads(lines[-1][len("PERFBENCH ") :])
    result = Outcome(label, None, rec["ready"] - spawned, rec["latency"], rec["maxrss_kb"], wall)
    if req is None:
        return result
    try:
        result.error = req.check(json.loads(out.decode("utf-8")), proc.returncode)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        result.error = f"malformed report: {type(exc).__name__}: {exc}"
    return result


def tail_rank(wl: workloads.Workload, num_requests: int) -> int:
    """1-based rank of req_tail_s in the list ordered by median latency: the
    highest percentile that leaves ten attempts beyond it in `tail_passes`
    whole passes, so every run of a workload reports the same percentile."""
    return max(1, num_requests - TAIL_BEYOND // wl.tail_passes)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "splitkit" / "cli.py").is_file() or not (ROOT / workloads.RP2).is_file():
        print(f"perfbench: no splitkit source tree (src/splitkit, fixtures) under {ROOT}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    wl = workloads.WORKLOADS[args.workload]
    requests = wl.build(work.relative_to(ROOT), args.seed)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    for k in range(WARMUP_REQUESTS):
        warm = run_request(-1 - k, None, ["--version"], deadline)
        if warm.error:
            print(f"perfbench: warm-up request failed: {warm.error}", file=sys.stderr)
            return 2

    outcomes, traced, stats = [], [], tracing.Stats()

    def send(req):
        rid = len(outcomes)
        outcomes.append(run_request(rid, req, req.argv, deadline))
        if args.trace:
            spans = work / f"spans-{rid}.json"
            traced.append(run_request(rid, req, req.argv, deadline, spans))
            if spans.is_file():
                stats.add(json.loads(spans.read_text()))
                spans.unlink()

    def fits(seconds_needed: float) -> bool:
        now = time.monotonic()
        return now - started + seconds_needed <= args.seconds and now + seconds_needed <= deadline

    passes = 0
    while True:
        pass_start = time.monotonic()
        for req in requests:
            send(req)
        passes += 1
        if not fits(time.monotonic() - pass_start):
            break

    if not args.trace:
        # The order statistics rest on the requests at and below their ranks.
        # A long request (boolean5 over Q takes a third of a topo-q run) leaves
        # room for one pass only, so the time left goes to those requests:
        # each request's median stays unbiased, it just gets more samples.
        first = {o.label: o.latency for o in outcomes[: len(requests)]}
        ranked = sorted(requests, key=lambda r: math.inf if first[r.label] is None else first[r.label])
        fill = ranked[: max(len(requests) // 2 + 1, tail_rank(wl, len(requests)))]
        last_wall = {o.label: o.wall for o in outcomes}
        sent = True
        while sent:
            sent = False
            for req in fill:
                if fits(last_wall[req.label]):
                    send(req)
                    last_wall[req.label] = outcomes[-1].wall
                    sent = True

    every = outcomes + traced
    failures = [o for o in every if o.error]
    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {args.seed}: {passes} passes of {len(requests)} requests, {len(outcomes)} requests in {time.monotonic() - started:.1f} s")
    print(f"fail_ratio {len(failures) / len(every):.6g} ({len(failures)} of {len(every)} requests)")
    for o in failures:
        print(f"  FAILED {o.label}: {o.error}")
    median = {}  # label -> median latency over the run's attempts
    for req in requests:
        lat = sorted(o.latency for o in outcomes if o.label == req.label and o.latency is not None)
        if lat:
            median[req.label] = statistics.median(lat)
            print(f"  {median[req.label]:8.4f} s ({lat[0]:.4f}..{lat[-1]:.4f}, {len(lat)} attempts)  {req.label}")

    if args.trace:
        traced_lat = defaultdict(list)
        for t in traced:
            if t.latency is not None:
                traced_lat[t.label].append(t.latency)
        both = [label for label in traced_lat if label in median]
        untraced_sum = sum(median[label] for label in both)
        overhead = sum(statistics.median(traced_lat[label]) for label in both) / untraced_sum - 1 if both else 0.0
        metrics = tracing.per_layer(stats, passes, overhead)
        print(f"tracing overhead {overhead:+.2%} over {len(both)} requests; {stats.spans} spans")
        top = sorted(stats.self_s.items(), key=lambda kv: -kv[1])[:8]
        print("largest self times per pass: " + ", ".join(f"{n} {v / passes:.4f} s" for n, v in top))
    else:
        timed = [o for o in outcomes if o.latency is not None]
        by_latency = sorted(median, key=median.get)
        rank = min(tail_rank(wl, len(requests)), len(by_latency))
        values = {
            "setup_s": statistics.median(o.setup for o in timed) if timed else 0.0,
            "pass_s": sum(median.values()),
            "req_p50_s": statistics.median(median.values()) if median else 0.0,
            "req_tail_s": median[by_latency[rank - 1]] if median else 0.0,
            "peak_rss_mb": max((o.rss_kb for o in timed), default=0) / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        if median:
            label = by_latency[rank - 1]
            count = sum(1 for o in timed if o.label == label)
            print(f"req_tail_s is the p{100 * rank / len(requests):.1f} of the request list: {label}, median of {count} attempts")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    result = {"correct": not failures, "attempted": len(every), "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
