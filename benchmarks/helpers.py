"""Shared benchmark utilities: timing, table rendering, result persistence.

Every benchmark prints the table or series it regenerates (the same rows
the paper's figure reports) and also appends it to
``benchmarks/results/<name>.txt`` so a full run leaves an inspectable
record next to the pytest-benchmark timings.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def env_metadata() -> dict:
    """The execution environment facts a perf number is meaningless without.

    Recorded into every ``emit_json`` payload: cpu count (serving-worker
    throughput depends on it), numpy version (the array backend), and
    PYTHONHASHSEED (hash randomization perturbs dict-heavy paths).
    """
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def timed(fn, *args, **kwargs):
    """Run ``fn`` and return (result, elapsed seconds)."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def format_table(headers: list[str], rows: list[list]) -> str:
    """Fixed-width table rendering used by all harness outputs."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    lines.extend(" | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells)
    return "\n".join(lines)


def emit(name: str, title: str, table: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    banner = f"\n### {title}\n{table}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(f"{title}\n\n{table}\n")


def emit_json(name: str, payload: dict) -> Path:
    """Persist machine-readable benchmark results.

    Writes ``benchmarks/results/BENCH_<name>.json`` so the perf trajectory
    can be tracked across PRs (CI uploads these as artifacts).  The payload
    should carry timings in seconds, speedups as plain ratios, and row /
    observation counts — whatever a later run needs to compare against.
    Returns the written path.  An ``env`` block (cpu count, numpy
    version, PYTHONHASHSEED) is added automatically unless the payload
    already carries one.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"env": env_metadata(), **payload}
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f}ms"
