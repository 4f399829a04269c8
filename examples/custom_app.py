#!/usr/bin/env python3
"""Tutorial: build, verify, and run your own event-driven application.

This walks through everything a user of the library needs to write a
new stateful program from scratch:

1. define a topology;
2. write the program in concrete Stateful NetKAT syntax;
3. inspect its ETS and NES, checking the section 3.1 conditions and the
   locality restriction;
4. exhaustively verify small workloads against Definition 6;
5. run it on the timed simulator.

The program here is a "one-shot gate": host H1 may send H4 exactly one
probe; the probe's arrival closes the gate (the opposite of the
firewall -- it starts open and shuts).

Run:  python examples/custom_app.py
"""

from repro import CompileOptions
from repro.apps.base import App
from repro.events.locality import is_locally_determined
from repro.netkat import parse_policy, pretty_policy
from repro.network import (
    CorrectLogic,
    SimNetwork,
    install_ping_responders,
    ping_outcomes,
    send_ping,
)
from repro.topology import Topology
from repro.verify import explore_all_interleavings

PROGRAM = """
  # While the gate is open (state 0), probes flow and shut it.
  pt=2 & ip_dst=4; state(0)=0; pt<-1; (1:1)->(4:1)<state(0)<-1>; pt<-2

  # Replies from H4 are always allowed (so the probe's answer returns).
+ pt=2 & ip_dst=1; pt<-1; (4:1)->(1:1); pt<-2
"""


def build_app() -> App:
    topology = Topology()
    topology.add_duplex_link("1:1", "4:1")
    topology.add_host("H1", "1:2")
    topology.add_host("H4", "4:2")
    return App(
        name="one-shot-gate",
        program=parse_policy(PROGRAM),
        topology=topology,
        initial_state=(0,),
        description="H1 gets exactly one probe to H4; the probe shuts the gate.",
        # All compile knobs live here; e.g. cache_dir=... persists
        # artifacts across runs.
        options=CompileOptions(),
    )


def main() -> None:
    app = build_app()
    print(f"{app.name}: {app.description}\n")
    print("Program (pretty-printed back from the AST):")
    print(" ", pretty_policy(app.program), "\n")

    pipeline = app.pipeline  # the staged toolchain behind ets/nes/compiled
    print("ETS:")
    print(pipeline.ets, "\n")
    nes = pipeline.nes  # raises if the section 3.1 conditions fail
    print(f"NES: {nes}")
    print(f"locally determined: {is_locally_determined(nes)}\n")
    compiled = pipeline.compiled
    print(f"Compiled: {compiled}")
    print(f"{pipeline.report()}\n")

    print("Exhaustively verifying a 2-probe race against Definition 6 ...")
    result = explore_all_interleavings(
        app,
        [
            ("H1", {"ip_dst": 4, "ip_src": 1, "ident": 1}),
            ("H1", {"ip_dst": 4, "ip_src": 1, "ident": 2}),
        ],
    )
    print(
        f"  {result.states_visited} states explored, "
        f"{len(result.violations)} violations\n"
    )
    assert result.all_correct

    print("Timed simulation: three probes, one should pass:")
    net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=1)
    install_ping_responders(net)
    pings = []
    for i, at in enumerate([0.5, 1.5, 2.5], start=1):
        send_ping(net, "H1", "H4", i, at)
        pings.append(("H1", "H4", i, at))
    net.run(until=10.0)
    passed = 0
    for outcome in ping_outcomes(net, pings):
        status = "OK" if outcome.succeeded else "blocked"
        passed += outcome.succeeded
        print(f"  t={outcome.sent_at:3.1f}s probe {outcome.ident}: {status}")
    assert passed == 1
    print("\nExactly one probe passed; the gate shut consistently.")


if __name__ == "__main__":
    main()
