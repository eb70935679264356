"""E14: dealing with concurrency (§5).

"SDN-Apps, being event-driven, can handle multiple events in parallel
if they [arrive] from multiple switches.  Fortunately, these events
are often handled by different threads and thus we can pin-point which
event causes the thread to crash.  Furthermore, we can correlate the
output of this thread to the input."

The proxy's concurrency lanes implement this: one in-flight event per
originating switch.  Measured:

- **throughput**: time to drain a burst of one event per switch
  through a reactive app (serial vs lanes), sweeping switch count;
- **attribution**: with four events in flight, the one that crashes is
  pinpointed, its transaction alone is rolled back, and the other
  lanes' events are re-delivered (none lost).

Expected shape: drain time is ~flat in switch count with lanes and
~linear without (the per-event checkpoint + RPC round trip dominates);
crash recovery under concurrency loses zero innocent events.
"""

from repro.apps import FlowMonitor, Hub
from repro.faults import crash_on
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.core.runtime import LegoSDNRuntime
from repro.workloads.traffic import inject_marker_packet

from benchmarks.harness import print_table, run_once

SWITCH_COUNTS = (2, 4, 6, 8)


def _drain_time(switches, parallel):
    net = Network(linear_topology(switches, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller, parallel_lanes=parallel)
    runtime.launch_app(Hub())
    net.start()
    net.run_for(1.0)
    names = sorted(net.hosts)
    start = net.now
    for i, src in enumerate(names):
        inject_marker_packet(net, src, names[(i + 1) % len(names)],
                             f"b-{src}")
    record = runtime.record("hub")
    # Poll well below the per-event cost (~2.4 ms with incremental
    # checkpoints) or quantisation drowns the serial-vs-lanes signal.
    while net.now - start < 10.0 and record.events_completed < switches:
        net.run_for(0.0005)
    return net.now - start


def _crash_attribution():
    net = Network(linear_topology(4, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller, parallel_lanes=True)
    runtime.launch_app(
        crash_on(FlowMonitor(name="app"), payload_marker="BOOM"))
    net.start()
    net.run_for(1.0)
    names = sorted(net.hosts)
    inject_marker_packet(net, names[0], names[1], "BOOM")
    for src, dst in ((names[1], names[2]), (names[2], names[3]),
                     (names[3], names[0])):
        inject_marker_packet(net, src, dst, f"innocent-{src}")
    net.run_for(3.0)
    record = runtime.record("app")
    pairs = runtime.app("app").inner.pair_packets
    innocents_observed = sum(
        count for (src, dst), count in pairs.items())
    ticket = (runtime.tickets.for_app("app")[0]
              if runtime.tickets.for_app("app") else None)
    return {
        "crashes": record.crash_count,
        "recovered": record.recoveries >= record.crash_count,
        "innocents_observed": innocents_observed,
        "offending_pinpointed": (ticket is not None
                                 and "BOOM" in ticket.offending_event),
    }


def test_e14_concurrency_lanes(benchmark):
    def experiment():
        sweep = []
        for switches in SWITCH_COUNTS:
            sweep.append({
                "switches": switches,
                "serial": _drain_time(switches, parallel=False),
                "lanes": _drain_time(switches, parallel=True),
            })
        return {"sweep": sweep, "attribution": _crash_attribution()}

    r = run_once(benchmark, experiment)
    print_table(
        "E14: burst drain time, one fresh event per switch (ms)",
        ["switches", "serial", "lanes", "speedup"],
        [[row["switches"],
          f"{row['serial'] * 1000:.1f}",
          f"{row['lanes'] * 1000:.1f}",
          f"{row['serial'] / row['lanes']:.1f}x"]
         for row in r["sweep"]],
    )
    a = r["attribution"]
    print(f"attribution under 4-way concurrency: crashes={a['crashes']}, "
          f"offending pinpointed={a['offending_pinpointed']}, "
          f"innocent events observed={a['innocents_observed']}, "
          f"recovered={a['recovered']}")
    benchmark.extra_info["results"] = r

    by_n = {row["switches"]: row for row in r["sweep"]}
    # Lanes overlap the per-event pipeline latency: real speedups that
    # grow with switch count.
    assert by_n[4]["serial"] / by_n[4]["lanes"] > 1.5
    assert (by_n[8]["serial"] / by_n[8]["lanes"]
            > by_n[2]["serial"] / by_n[2]["lanes"])
    # Serial drain grows ~linearly with switches; lanes stay ~flat.
    # The first event of a drain can pay a full image (a constant
    # ~10 ms), so compare marginal growth
    # rather than the raw n=8/n=2 ratio.
    serial_growth = by_n[8]["serial"] - by_n[2]["serial"]
    lanes_growth = by_n[8]["lanes"] - by_n[2]["lanes"]
    assert serial_growth > 0.010  # 6 extra events, >=2 ms each
    assert lanes_growth < serial_growth / 3
    assert by_n[8]["lanes"] < by_n[2]["lanes"] * 2.5
    # Attribution: the crash was pinpointed, the app recovered, and the
    # innocent in-flight events were not lost.
    assert a["crashes"] >= 1 and a["recovered"]
    assert a["offending_pinpointed"]
    assert a["innocents_observed"] >= 3
