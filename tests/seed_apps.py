"""Shared helpers for the byte-identity golden tests.

One definition of the seven seed applications, of the canonical
guarded-table serialization, of the reference compile the goldens
compare the pipeline against, and of the deltas (policy and topology
edits) the update suites apply, imported by
``test_compiler_caching.py``, ``test_pipeline.py``,
``test_differential.py`` and ``test_faults.py`` — so adding a seed app
or changing the serialization updates every golden suite at once.
"""

from repro.apps import (
    authentication_app,
    bandwidth_cap_app,
    firewall_app,
    ids_app,
    learning_multi_app,
    learning_switch_app,
    ring_app,
)
from repro.events.ets_to_nes import nes_of_ets
from repro.netkat.compiler import compile_policy
from repro.netkat.ast import Filter, conj, test as field_test
from repro.pipeline import Delta, Pipeline
from repro.runtime.compiler import CompiledNES
from repro.service.protocol import topology_from_wire, topology_to_wire
from repro.stateful.ets import ETS
from repro.topology import Topology

from naive_oracles import ReferenceFDDBuilder, build_ets_naive

APPS = (
    ("firewall", firewall_app),
    ("ids", ids_app),
    ("authentication", authentication_app),
    ("ring", lambda: ring_app(4)),
    ("bandwidth_cap", bandwidth_cap_app),
    ("learning_switch", learning_switch_app),
    ("learning_multi", learning_multi_app),
)


def guarded_bytes(compiled: CompiledNES) -> bytes:
    """A canonical byte serialization of the guarded merged tables."""
    tables = compiled.guarded_tables()
    lines = [f"switch {sw}:\n{tables[sw]!r}" for sw in sorted(tables)]
    return "\n".join(lines).encode()


def cold_after(app, delta: Delta) -> Pipeline:
    """The from-scratch pipeline for the post-delta inputs: what every
    ``Pipeline.update`` result must equal byte for byte."""
    return Pipeline(
        delta.apply_program(app.program),
        delta.apply_topology(app.topology),
        delta.apply_initial_state(app.initial_state),
    )


def compiles(pipeline: Pipeline) -> int:
    """The ``compile_policy`` runs of ``pipeline``'s compile stage: its
    configuration store misses."""
    return pipeline._lookups.get(("configuration", "miss"), 0)


def edited_topology(topology: Topology, **parts) -> Topology:
    """A new topology: ``topology``'s wire form with ``links`` /
    ``hosts`` / ``switches`` replaced by the given lists."""
    return topology_from_wire({**topology_to_wire(topology), **parts})


def switch_preserving_edits(app) -> dict:
    """Four host/link edits of ``app.topology`` that keep its switch
    set — the deltas under which ``Pipeline.update`` compiles nothing."""
    wire = topology_to_wire(app.topology)
    near, far = min(wire["switches"]), max(wire["switches"])
    (name, attachment), *other_hosts = wire["hosts"]
    program_text = repr(app.program)
    used = next(
        link for link in wire["links"]
        if f"({link[0]})->({link[1]})" in program_text
    )
    return {
        "attach_host": edited_topology(
            app.topology, hosts=wire["hosts"] + [["HX", f"{near}:9"]]
        ),
        "move_host": edited_topology(
            app.topology,
            hosts=[[name, f"{attachment.split(':')[0]}:9"], *other_hosts],
        ),
        "add_unused_link": edited_topology(
            app.topology, links=wire["links"] + [[f"{near}:11", f"{far}:11"]]
        ),
        "remove_used_link": edited_topology(
            app.topology, links=[l for l in wire["links"] if l != used]
        ),
    }


def firewall_policy_delta() -> Delta:
    """Widen the firewall's outgoing filter to ip_dst=2 traffic: a
    ``replace_policy`` delta under which configurations recompile."""
    return Delta(
        replace_policy=Filter(conj(field_test("pt", 2), field_test("ip_dst", 4))),
        with_policy=Filter(conj(field_test("pt", 2), field_test("ip_dst", 2))),
    )


def reference_ets(app) -> ETS:
    """The ETS by the Fig. 6 per-state ``extract``/``project`` walks."""
    return build_ets_naive(app.program, app.initial_state)


def reference_compile(app, nes=None) -> CompiledNES:
    """The compile path composed from the layer-level reference
    implementations: per-state ``build_ets_naive`` -> ``nes_of_ets`` -> one
    uncached ``compile_policy`` per configuration on the mask/union,
    memo-free ``ReferenceFDDBuilder``.  Pass ``nes`` to start from an
    NES already in hand (only the FDD/compiler references then differ
    from the pipeline).  The configurations are handed to
    ``CompiledNES`` directly, so the pipeline's own compile never runs;
    only the tag merge is shared.
    """
    if nes is None:
        nes = nes_of_ets(reference_ets(app))
    builder = ReferenceFDDBuilder()
    configurations = {
        state: compile_policy(
            nes.configuration_policy(state),
            app.topology,
            builder=builder,
            name=f"C{list(state)}",
        )
        for state in nes.configuration_states()
    }
    return CompiledNES(nes, app.topology, configurations)
