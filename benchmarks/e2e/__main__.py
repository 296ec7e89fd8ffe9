"""``python -m benchmarks.e2e run | compare`` — sets of runs, and their comparison.

    PYTHONPATH=src python -m benchmarks.e2e run [--workload NAME]... [--seed N]
        [--repeat N] [--trace] [--out DIR]
    PYTHONPATH=src python -m benchmarks.e2e compare A/result.json B/result.json

``run`` executes ``run.py`` once per (workload, seed) in a fresh process,
prints every metric by name with its unit and sample count, cross-checks the
HTTP answers against the in-process ones, writes ``<out>/result.json`` and
exits non-zero when any check failed.  ``compare`` judges set B against set
A with the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from . import spec
from .run import ROOT, environment

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
#: Per-layer counts that repeat exactly for a given seed (one client, no timers).
EXACT_COUNTERS = ("store.wal.syncs", "store.durable.checkpoints",
                  "store.endpoint.selects", "core.virtual_graph.bootstrap_selects")


def _quartiles(values: list[float]) -> tuple[float, float] | None:
    if len(values) < 4:  # fewer points only extrapolate
        return None
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_once(args: argparse.Namespace, out: str, name: str, seed: int,
             seconds: float, trace: int) -> dict | None:
    """One ``run.py`` process; its result document, or None when it died."""
    run_out = os.path.join(out, f"seed-{seed}")
    command = [
        sys.executable, RUN_PY, "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", run_out,
        "--inputs-cache", os.path.join(out, "inputs")]
    if args.toy:
        command.append("--toy")
    if args.corrupt_digest and name == "explore_inproc":
        command.append("--corrupt-digest")
    finished = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if finished.returncode != 0:
        return None
    # everything but the driver's result line is for people
    sys.stdout.write(finished.stdout.rsplit("\n", 2)[0] + "\n")
    suffix = "-trace" if trace else ""
    with open(os.path.join(run_out, f"result-{name}{suffix}.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def run_set(args: argparse.Namespace) -> int:
    declared = spec.declared()
    names = args.workload or [w["name"] for w in declared["workloads"]]
    unknown = [n for n in names if n not in spec.WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; "
                         f"expected {sorted(spec.WORKLOADS)}")
    seconds = args.seconds or declared["run_seconds"]
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    documents = []
    failures: list[str] = []
    for seed in range(args.seed, args.seed + args.repeat):
        for name in names:
            for trace in ([0, 1] if args.trace else [0]):
                document = run_once(args, out, name, seed, seconds, trace)
                if document is None:
                    failures.append(f"{name} seed {seed} trace {trace}: died")
                    continue
                documents.append(document)
                if document["failed"]:
                    failures.append(f"{name} seed {seed}: {document['failed']} "
                                    f"of {document['attempted']} failed")
        failures += cross_check(
            [d for d in documents if d["seed"] == seed and not d["trace"]])

    summary = summarize(documents)
    result = {
        "environment": documents[0]["environment"] if documents else environment(),
        "seed": args.seed,
        "repeat": args.repeat,
        "seconds": seconds,
        "toy": args.toy,
        "failures": failures,
        "summary": summary,
        "runs": documents,
    }
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(f"\n== medians over {args.repeat} run(s) per workload")
    for key, entry in summary.items():
        print(f"  {key:62s} {entry['median']:14.4f} {entry['unit']:6s} "
              f"n={entry['n']}")
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"wrote {os.path.join(out, 'result.json')}")
    return 1 if failures else 0


def cross_check(documents: list[dict]) -> list[str]:
    """explore_http's step digests equal explore_inproc's for shared scripts."""
    by_name = {d["workload"]: d.get("digests", {}) for d in documents}
    served, inproc = by_name.get("explore_http"), by_name.get("explore_inproc")
    if not served or not inproc:
        return []
    shared = sorted(set(served) & set(inproc))
    differing = [key for key in shared if served[key] != inproc[key]]
    if differing:
        return [f"HTTP and in-process answers differ at script:slot:kind "
                f"{differing[:5]} ({len(differing)} of {len(shared)})"]
    if not shared:
        return ["explore_http and explore_inproc share no digested step"]
    return []


def summarize(documents: list[dict]) -> dict:
    """``metric@workload`` -> median, quartiles, n over the set's runs."""
    values: dict[str, list] = {}
    units: dict[str, str] = {}
    for document in documents:
        for name, metric in document["metrics"].items():
            key = f"{name}@{document['workload']}"
            values.setdefault(key, []).append(metric["value"])
            units[key] = metric["unit"]
    summary = {}
    for key, sample in values.items():
        entry = {"median": statistics.median(sample), "n": len(sample),
                 "unit": units[key], "values": sample}
        quartiles = _quartiles(sample)
        if quartiles:
            entry["q1"], entry["q3"] = quartiles
        summary[key] = entry
    return summary


def compare(args: argparse.Namespace) -> int:
    """One row per (end-to-end metric, workload): B against A.

    When both sets hold traced runs of the same seeds, the exact counters
    must be identical as well.
    """
    with open(args.a, encoding="utf-8") as handle:
        a = json.load(handle)["summary"]
    with open(args.b, encoding="utf-8") as handle:
        b = json.load(handle)["summary"]
    declared = spec.declared()
    worse = unresolved = 0
    print(f"{'metric@workload':46s} {'A (base)':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict")
    for metric in declared["end_to_end"]:
        for workload in (w["name"] for w in declared["workloads"]):
            key = f"{metric['name']}@{workload}"
            if key not in a or key not in b:
                continue
            base, new = a[key]["median"], b[key]["median"]
            ratio = new / base
            loss = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            spreads = [(e["q3"] - e["q1"]) / e["median"]
                       for e in (a[key], b[key]) if "q1" in e]
            spread = max(spreads) if spreads else float("nan")
            if spreads and spread > metric["bound"]:
                verdict = "unresolved"
                unresolved += 1
            elif loss > metric["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{key:46s} {base:12.4f} {new:12.4f} {ratio:7.3f} "
                  f"{spread:7.3f} {metric['bound']:6.2f}  {verdict}"
                  f"  (base {base:.4g} {metric['unit']}, n={a[key]['n']}/"
                  f"{b[key]['n']})")
    differing = 0
    for counter in EXACT_COUNTERS:
        for workload in (w["name"] for w in declared["workloads"]):
            key = f"{counter}@{workload}"
            if key in a and key in b:
                same = a[key]["values"] == b[key]["values"]
                differing += not same
                print(f"{key:62s} {'identical' if same else 'DIFFERS'}: "
                      f"{a[key]['values']} / {b[key]['values']}")
    print(f"{worse} worse, {unresolved} unresolved, "
          f"{differing} exact counter(s) differing")
    return 1 if worse or unresolved or differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run a set and write result.json")
    run.add_argument("--workload", action="append",
                     help="repeatable; default: all four")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--repeat", type=int, default=1,
                     help="runs per workload, on seeds seed..seed+N-1")
    run.add_argument("--seconds", type=float, default=None,
                     help="default: run_seconds of BENCHMARK.json")
    run.add_argument("--trace", action="store_true",
                     help="also make the traced (per-layer) run")
    run.add_argument("--out", default=os.path.join(ROOT, ".bench_e2e"))
    run.add_argument("--toy", action="store_true")
    run.add_argument("--corrupt-digest", action="store_true",
                     help="falsify one expected digest (shows a failing check)")
    cmp_ = commands.add_parser("compare", help="judge set B against set A")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)
    return run_set(args) if args.command == "run" else compare(args)


if __name__ == "__main__":
    raise SystemExit(main())
