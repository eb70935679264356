"""One repetition in a fresh process: ``python -m wallbench.child``.

``--mode setup`` builds the stack, settles discovery and exits;
``measure`` runs a full repetition; ``traced`` runs it with the layer
tracer installed and writes the spans to ``--spans-out``.  The last
line of standard output is one JSON object.  ``setup_done`` is the
wall-clock time (``time.time()``) at which the first injected flow was
due, so the parent measures set-up from before it started the process;
``setup_probe_s`` is the speed probe taken right after it.  Traced
layer times are scaled to the reference speed slice by slice.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from wallbench.spec import PROBE_REF_S, WORKLOADS, Workload


def repetition(workload: Workload, seed: int, mode: str,
               spans_out: Optional[str] = None) -> dict:
    """Run one repetition in this process and return its result."""
    tracer = None
    if mode == "traced":
        from wallbench.tracing import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    try:
        from wallbench.stack import Stack, probe, run_repetition

        if mode == "setup":
            Stack(workload, seed).settle()
            return {"setup_done": time.time(), "setup_probe_s": probe()}
        stamp = {}

        def on_setup():
            stamp["t"] = time.time()
            stamp["probe"] = probe()

        result = run_repetition(workload, seed, tracer=tracer,
                                on_setup=on_setup)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["setup_done"] = stamp["t"]
    result["setup_probe_s"] = stamp["probe"]
    if tracer is not None:
        probes = result["probe_s"]
        scale = [2 * PROBE_REF_S / (a + b)
                 for a, b in zip(probes, probes[1:])]
        result["layers"] = tracer.layer_totals(scale)
        result["restore_s"] = tracer.call_seconds("CheckpointStore.restore",
                                                  scale)
        result["codec_bytes"] = dict(tracer.bytes)
        result["spans_traced"] = len(tracer.spans)
        result["spans_outside_slices"] = tracer.spans_outside(
            result["slice_bounds"])
        if spans_out:
            tracer.write(spans_out)
    del result["slice_bounds"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "traced"),
                        required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    result = repetition(WORKLOADS[args.workload], args.seed, args.mode,
                        spans_out=args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
