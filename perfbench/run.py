"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_open --seed 1 \\
        --seconds 14 --trace 0 [--out perfbench-runs/serve_open-1.json]

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separately traced run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the host facts
and the measured workload properties.  ``--out`` also writes both to a
file that ``perfbench/compare.py`` reads.  The exit code is nonzero
when any decision fails its check or the run is invalid.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve_open", "deploy_churn", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full run record here")
    args = parser.parse_args(argv)

    # Replace the script directory: modules resolve as ``perfbench.*``.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common, deploy_churn, serve_open, spans, train

    workload = {"serve_open": serve_open, "deploy_churn": deploy_churn,
                "train": train}[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    values = (spans.complete(outcome.metrics, units) if args.trace
              else outcome.metrics)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    correct = outcome.failed == 0
    record = {"workload": args.workload, "trace": args.trace,
              "host": common.host_facts(args.seed, ROOT),
              "properties": outcome.properties,
              "problems": outcome.problems}
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({**record, **result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
