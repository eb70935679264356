"""Generate BENCH_PR8_LOAD.json: the E19 document for the interval-
checkpoint era.

Successor to ``bench_pr7.py``: same load-harness matrix, re-measured
with dirty-key tracking, deferred encoding, and interval (fuzzy)
checkpoints on -- the shipped defaults -- plus the ``smoke-crash``
row (``checkpoint_interval=8`` with one mid-run app crash), which
pins down recovery-by-tail-replay under the new checkpoint cadence.
The ``repro bench --check`` gate and EXPERIMENTS.md tables read from
the written document.  The committed ``BENCH_PR8_LOAD.json`` also
holds rows with ``"codec": "named"``, measured with a field-named wire
format that has since been retired; ``repro bench --check`` skips them.

    PYTHONPATH=src python benchmarks/bench_pr8.py [--out BENCH_PR8_LOAD.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench import PRESETS, run_scenario

#: Presets, cheapest first so failures surface early.
MATRIX = ["smoke", "smoke-crash", "e19-100k", "e19-100k-k4", "e19-1m",
          "e19-1m-k4"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_PR8_LOAD.json")
    parser.add_argument("--only", default=None,
                        help="comma-separated preset names to run")
    args = parser.parse_args(argv)
    only = set(args.only.split(",")) if args.only else None

    runs = []
    for preset in MATRIX:
        if only is not None and preset not in only:
            continue
        scenario = PRESETS[preset]
        print(f"=== {preset} ===", flush=True)
        report = run_scenario(scenario,
                              log=lambda line: print(line, flush=True))
        doc = report.to_dict()
        runs.append(doc)
        print(json.dumps(doc["results"], sort_keys=True), flush=True)
        if report.aborted:
            print(f"!! aborted: {report.aborted}", file=sys.stderr)

    out = {
        "experiment": "E19 sustained load harness (interval checkpoints)",
        "generated_unix": int(time.time()),
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({len(runs)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
