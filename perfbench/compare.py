"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 perfbench/compare.py --base perfbench-runs/base/*.json \\
        --change perfbench-runs/change/*.json

Each file is a record written by ``run.py --out``.  Runs are grouped by
workload; for every end-to-end metric the tool prints the median of
each side, the base's quartile spread and a verdict against the
metric's bound from ``BENCHMARK.json``:

* ``regression`` — the change's median is worse than the base median
  by more than the bound;
* ``unresolved`` — the base's own quartile spread is wider than the
  bound, so a difference of that size is noise (unless every change
  run beats every base run);
* ``ok`` otherwise.

Runs are comparable only when their host facts agree (CPU count, BLAS
thread count, numpy and Python versions); the tool refuses otherwise,
so a change that pins BLAS threads shows up as a different host, not
as a speed-up.  It also prints, per workload, the median host gauge
(``host_reference_ms``, a fixed task of the benchmark's own timed
throughout every run) of each side: when the two differ by more than
``HOST_DRIFT``, the host itself ran at another speed.  Most timings are
scaled to a reference host speed by that gauge, but ``serve_open``'s
open-loop latencies are not, and their verdicts then say more about
the host than the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARABLE_FACTS = ("cpu_count", "blas_threads", "numpy", "python")
HOST_DRIFT = 0.10


class HostMismatch(ValueError):
    """Two runs were measured under different host facts."""


def _load(paths) -> list[dict]:
    return [json.loads(Path(path).read_text()) for path in paths]


def _check_hosts(records: list[dict]) -> None:
    reference = {fact: records[0]["host"].get(fact)
                 for fact in COMPARABLE_FACTS}
    for record in records[1:]:
        for fact, value in reference.items():
            if record["host"].get(fact) != value:
                raise HostMismatch(
                    f"host fact {fact!r} differs: {value!r} vs "
                    f"{record['host'].get(fact)!r}")


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def host_gauge(records: list[dict]) -> float | None:
    """Median ``host_reference_ms`` of ``records`` (None if unrecorded)."""
    values = [r.get("properties", {}).get("host_reference_ms")
              for r in records]
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def compare(base_paths, change_paths, bounds: dict[str, float],
            better: dict[str, str] | None = None) -> list[dict]:
    """One row per (workload, metric) present on both sides."""
    base, change = _load(base_paths), _load(change_paths)
    _check_hosts(base + change)
    better = better or {}
    rows = []
    for workload in sorted({r["workload"] for r in base}):
        mine = [r for r in base if r["workload"] == workload]
        theirs = [r for r in change if r["workload"] == workload]
        gauges = host_gauge(mine), host_gauge(theirs)
        host_ratio = (gauges[1] / gauges[0] if None not in gauges
                      else None)
        for metric, bound in bounds.items():
            before = [r["metrics"][metric]["value"] for r in mine
                      if metric in r["metrics"]]
            after = [r["metrics"][metric]["value"] for r in theirs
                     if metric in r["metrics"]]
            if not before or not after:
                continue
            q1, m0, q3 = _summary(before)
            _, m1, _ = _summary(after)
            sign = 1.0 if better.get(metric, "lower") == "lower" else -1.0
            worse = sign * (m1 - m0) / m0
            spread = (q3 - q1) / m0
            all_better = (max(after) < min(before) if sign > 0
                          else min(after) > max(before))
            if worse > bound:
                verdict = "regression"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": metric,
                         "base_median": m0, "change_median": m1,
                         "worse_by": worse, "base_spread": spread,
                         "bound": bound, "verdict": verdict,
                         "host_ratio": host_ratio})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    try:
        rows = compare(args.base, args.change, bounds, better)
    except HostMismatch as error:
        print(f"refusing to compare: {error}", file=sys.stderr)
        return 2
    drifted = set()
    for row in rows:
        ratio = row["host_ratio"]
        if (ratio is not None and abs(ratio - 1.0) > HOST_DRIFT
                and row["workload"] not in drifted):
            drifted.add(row["workload"])
            print(f"{row['workload']}: the host gauge read {ratio:.2f}x "
                  "the base's; its unscaled timings compare host speeds "
                  "too")
        print(f"{row['workload']:13s} {row['metric']:24s} "
              f"{row['base_median']:12.4f} -> {row['change_median']:12.4f}"
              f"  worse by {row['worse_by']:+7.1%} (bound "
              f"{row['bound']:.0%}, base spread {row['base_spread']:.1%})"
              f"  {row['verdict']}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
