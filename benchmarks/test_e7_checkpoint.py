"""E7: checkpointing overhead vs recovery time (§4.1 + §5).

"Crash-Pad creates a checkpoint after every event, and this can be
prohibitively expensive.  Thus, we plan to explore a combination of
checkpointing and event replay.  More concretely, rather than
checkpointing after every event, we can checkpoint after every few
events.  When we do roll back to the last checkpoint, we can replay
all events since that checkpoint."

Sweep the checkpoint interval k over {1, 2, 5, 10, 25}: drive a fixed
event stream through a stateful app, crash it at the end, and measure
(a) total checkpointing cost charged to the control loop, and (b) the
restore cost (checkpoint load + replayed events).

Expected shape: checkpoint cost falls roughly as 1/k; recovery cost
(replayed events) grows with k.  That crossover IS the design
trade-off §5 describes.  Every arm pays the same one-off first image
(CRIU's freeze plus a full dump); the comparison is over the cost
after it.  All costs are modelled sim time, not measured CPU.
"""

from repro.apps import FlowMonitor
from repro.core.runtime import LegoSDNRuntime
from repro.faults import crash_on
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.workloads.traffic import TrafficWorkload, inject_marker_packet

from benchmarks.harness import print_table, run_once

INTERVALS = (1, 2, 5, 10, 25)
EVENTS = 40


def _record_take_costs(store):
    """Wrap ``store.take`` to log each checkpoint's modelled cost."""
    costs = []
    take = store.take

    def recording_take(*args, **kwargs):
        checkpoint = take(*args, **kwargs)
        costs.append(checkpoint.cost)
        return checkpoint

    store.take = recording_take
    return costs


def _run_interval(k):
    net = Network(linear_topology(2, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller, checkpoint_interval=k)
    runtime.launch_app(
        crash_on(FlowMonitor(name="app"), payload_marker="BOOM"))
    take_costs = _record_take_costs(runtime.stub("app").checkpoints)
    net.start()
    net.run_for(1.0)
    # Drive a deterministic stream of PacketIns.
    workload = TrafficWorkload(net, rate=EVENTS, pairs=[("h1", "h2")])
    workload.start(1.0)
    net.run_for(3.0)
    stub = runtime.stub("app")
    checkpoint_cost = stub.checkpoints.total_cost
    checkpoints_taken = stub.checkpoints.taken_count
    store_stats = stub.checkpoints.stats()
    events_processed = stub.events_processed
    # Crash and recover once; measure the restore.
    inject_marker_packet(net, "h1", "h2", "BOOM")
    net.run_for(3.0)
    tickets = runtime.tickets.for_app("app")
    record = runtime.record("app")
    return {
        "k": k,
        "events": events_processed,
        "checkpoints": checkpoints_taken,
        "checkpoint_cost": checkpoint_cost,
        "first_image_cost": take_costs[0],
        "per_event_overhead": checkpoint_cost / max(events_processed, 1),
        "restores": stub.restores_done,
        "recovered": record.recoveries >= 1,
        "crashes": record.crash_count,
        # journal replay work done during the restore
        "replayed": stub.journal.last_seq() and stub.restores_done,
        # store composition: takes that shared the whole predecessor
        # image, plus how many entries retention evicted
        "dedup_hits": store_stats["dedup_hits"],
        "evicted": store_stats["evicted"],
        "retained_bytes": store_stats["retained_bytes"],
    }


def test_e7_checkpoint_interval_sweep(benchmark):
    def experiment():
        return [_run_interval(k) for k in INTERVALS]

    rows = run_once(benchmark, experiment)
    print_table(
        f"E7: checkpoint interval sweep ({EVENTS} events, one crash)",
        ["k", "events", "checkpoints", "dedup", "evicted",
         "total ckpt cost (ms)", "after first image (ms)",
         "per-event overhead (ms)", "recovered"],
        [[r["k"], r["events"], r["checkpoints"], r["dedup_hits"],
          r["evicted"], f"{r['checkpoint_cost'] * 1000:.3f}",
          f"{(r['checkpoint_cost'] - r['first_image_cost']) * 1000:.3f}",
          f"{r['per_event_overhead'] * 1000:.3f}",
          "yes" if r["recovered"] else "NO"]
         for r in rows],
    )
    benchmark.extra_info["sweep"] = [
        {k: v for k, v in r.items()} for r in rows]

    by_k = {r["k"]: r for r in rows}
    # Everyone processed a comparable stream and recovered.
    assert all(r["recovered"] for r in rows)
    assert all(r["events"] >= EVENTS for r in rows)
    # Checkpoint count falls with k...
    counts = [by_k[k]["checkpoints"] for k in INTERVALS]
    assert all(a > b for a, b in zip(counts, counts[1:]))
    # ...and so does the cost after the shared one-off first image,
    # substantially (k=25 vs k=1).
    assert by_k[1]["first_image_cost"] == by_k[25]["first_image_cost"]
    after_first = {k: r["checkpoint_cost"] - r["first_image_cost"]
                   for k, r in by_k.items()}
    assert after_first[25] < after_first[1] / 4
    # k=1 checkpoints once per event (the §4.1 prototype behaviour).
    assert by_k[1]["checkpoints"] >= by_k[1]["events"]
    # Retention actually evicted at k=1 (40+ takes against keep=16)
    # without inflating the retained-bytes figure.
    assert by_k[1]["evicted"] > 0
    assert all(r["retained_bytes"] >= 0 for r in rows)
