"""Benchmark of the `blowup` workbench: seeded query workloads, checked answers.

    python3 perfbench/run.py --workload tree-sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
`src`.  Set-up (import, input generation, family files, warm-up) is
repeated and timed; the timed phase is a closed loop of whole rounds in one
process; afterwards every answer is checked against references that do not
come from `blowup`.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
same rounds run once untraced and once with spans around every listed
layer function, and the metrics are the per-layer ones.  A readable summary,
the failed queries with their reasons and the provenance go to the lines
before it and to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import harness
import workloads
from tracer import LAYERS, RATIOS, Tracer

SETUP_REPEATS = 7
DEPTHS = range(1, 12)

END_TO_END = (("setup_s", "s", "lower"), ("queries_per_s", "1/s", "higher"),
              ("query_p50_ms", "ms", "lower"), ("query_p90_ms", "ms", "lower"),
              ("peak_rss_mb", "MB", "lower"))


def per_layer() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    out = []
    for name, _, _ in LAYERS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [(name, "ratio", "higher" if "nontrivial" in name else "lower") for name in RATIOS]
    out += [("poly.terms_peak", "count", "lower"), ("query.self_s", "s", "lower"),
            ("trace.root_spans_s", "s", "lower"), ("trace.self_sum_s", "s", "lower"),
            ("trace.calibration_s", "s", "lower"),
            ("trace.spans", "count", "lower"), ("trace.wall_s", "s", "lower"),
            ("trace.untraced_wall_s", "s", "lower"), ("trace.harness_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"), ("trace.overhead_share", "ratio", "lower")]
    for d in DEPTHS:
        out += [(f"deep.depth_{d}_ms", "ms", "lower"), (f"deep.depth_{d}_dnf", "count", "lower")]
    out += [("queries.samples", "count", "higher"), ("queries.rounds", "count", "higher"),
            ("queries.failed_share", "ratio", "lower")]
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance(root: Path, seed: int) -> Dict[str, object]:
    return {"git_sha": _git_sha(root), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed}


def _git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(workload: str, seed: int, out_dir: Path):
    bl = harness.fresh_import()
    queries = workloads.GENERATORS[workload](seed)
    ctx = workloads.prepare(bl, workload, queries, str(out_dir))
    workloads.warm_up(ctx)
    return ctx, queries


def depth_curve(queries, records, depth_of) -> Dict[str, float]:
    """Median latency of finished queries per descent depth, and how many
    did not finish.  Depths past the last bucket go into it."""
    done: Dict[int, List[float]] = {d: [] for d in DEPTHS}
    dnf = {d: 0 for d in DEPTHS}
    for r in records:
        depth = depth_of(queries[r.qid])
        if depth is None or depth < DEPTHS[0]:
            continue
        depth = min(depth, DEPTHS[-1])
        if r.status == "timeout":
            dnf[depth] += 1
        else:
            done[depth].append(r.calibrated_s * 1000.0)
    out = {}
    for d in DEPTHS:
        out[f"deep.depth_{d}_ms"] = statistics.median(done[d]) if done[d] else 0.0
        out[f"deep.depth_{d}_dnf"] = dnf[d]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "blowup" / "__init__.py").is_file():
        print(f"perfbench: {root / 'src' / 'blowup'} is missing; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)

    setup_times, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        ctx = None
        harness.forget_package()
        (ctx, queries), wall, cal = harness.calibrated(
            lambda: setup(args.workload, args.seed, out_dir))
        setup_times.append(cal)
        setup_wall.append(wall)

    tracer = None
    if args.trace:
        timed, wall, rounds = harness.run_rounds(workloads.execute, ctx, queries,
                                                 args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall, _ = harness.run_rounds(workloads.execute, ctx, queries,
                                                        None, rounds=rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        records = timed + traced
    else:
        timed, wall, rounds = harness.run_rounds(workloads.execute, ctx, queries, args.seconds)
        records = timed
    rss = harness.peak_rss_mb()

    import checks  # sympy is loaded only after the timed phase and the memory reading

    mismatches = dict(checks.check(args.workload, queries, harness.first_answers(records),
                                   args.seed, str(root)))
    failed, wrong = harness.judge(records, mismatches)
    timed_ids = {id(r) for r in timed}
    failed_timed = sum(1 for r, _ in failed if id(r) in timed_ids)
    end_to_end = {"setup_s": statistics.median(setup_times), "peak_rss_mb": rss,
                  **harness.latency_metrics(timed, failed_timed)}
    uncalibrated = {"setup_s": statistics.median(setup_wall), "wall_s": wall,
                    **harness.latency_metrics(timed, failed_timed, calibrate=False)}
    depth_of = checks.descent_depth if args.workload == "deep-charts" else (lambda q: None)
    layers = depth_curve(queries, timed, depth_of)
    layers.update({"queries.samples": len(timed), "queries.rounds": rounds,
                   "queries.failed_share": failed_timed / len(timed)})
    if tracer is not None:
        layers.update(tracer.layer_metrics())
        busy = sum(r.calibrated_s for r in timed)
        overhead = sum(r.calibrated_s for r in traced) - busy
        layers.update({"trace.wall_s": traced_wall, "trace.untraced_wall_s": wall,
                       "trace.harness_s": traced_wall - layers["trace.root_spans_s"],
                       "trace.overhead_s": overhead, "trace.overhead_share": overhead / busy})

    units = {name: unit for name, unit, _ in END_TO_END + tuple(per_layer())}
    chosen = layers if args.trace else end_to_end
    metrics = {name: {"value": chosen[name], "unit": units[name]}
               for name, _, _ in (per_layer() if args.trace else END_TO_END)}
    info = provenance(root, args.seed)
    report = {"workload": args.workload, "trace": args.trace, "provenance": info,
              "rounds": rounds, "queries_per_round": len(queries),
              "setup_times_s": setup_times, "end_to_end": end_to_end,
              "uncalibrated": uncalibrated, "per_layer": layers,
              "latency_ms": [[r.round, r.qid, r.calibrated_s * 1000.0, r.latency_s * 1000.0,
                              r.status] for r in timed],
              "failed": [{"round": r.round, "query": r.qid, "kind": queries[r.qid]["kind"],
                          "input": _describe(queries[r.qid]), "reason": reason}
                         for r, reason in failed]}
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        tracer.write(f"{stem}-spans.json.gz", {"provenance": info, "workload": args.workload})

    _print_summary(args, info, rounds, queries, timed, end_to_end, uncalibrated, failed,
                   failed_timed)
    print(json.dumps({"correct": not wrong, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def _describe(q: Dict) -> str:
    if q["kind"] == "cli":
        return " ".join(q["argv"]) + (f" --family {q['family']}" if q["family"] else "")
    return json.dumps({k: v for k, v in q.items() if k not in ("kind", "limit_s")})


def _print_summary(args, info, rounds, queries, timed, end_to_end, uncalibrated, failed,
                   failed_timed) -> None:
    print(f"perfbench {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"git {info['git_sha'][:12]}  python {info['python']}  nproc {info['nproc']}")
    latencies = harness.query_latencies_ms(timed)
    p90_tail = sum(1 for v in latencies if v > end_to_end["query_p90_ms"])
    print(f"  {rounds} rounds of {len(queries)} queries, {len(timed)} timed queries; "
          f"percentiles over {len(latencies)} per-query medians, {p90_tail} beyond p90")
    print(f"  {'metric':<16} {'calibrated':>12} {'wall clock':>12}")
    for name, unit, _ in END_TO_END:
        print(f"  {name:<16} {end_to_end[name]:12.4f} "
              f"{uncalibrated.get(name, end_to_end[name]):12.4f} {unit}")
    print(f"  {'failed_share':<16} {failed_timed / len(timed):12.4f} ratio")
    seen = set()
    for r, reason in failed:
        if r.qid not in seen:
            seen.add(r.qid)
            print(f"  failed query {r.qid} ({queries[r.qid]['kind']}): {reason}: "
                  f"{_describe(queries[r.qid])[:160]}")


if __name__ == "__main__":
    sys.exit(main())
