"""End-to-end compiler property: for randomly generated path policies,
running the compiled per-switch tables hop by hop produces exactly the
packets the policy's denotational semantics produces."""

from hypothesis import given, settings, strategies as st

from repro.netkat.ast import (
    assign,
    conj,
    filter_,
    link,
    seq,
    test as field_test,
    union,
)
from repro.netkat.compiler import compile_policy
from repro.netkat.packet import LocatedPacket, Location, Packet
from repro.netkat.semantics import eval_packet
from repro.topology import star_topology

# Star topology plumbing (Figure 8(c)): hub s4 with spokes s1/s2/s3.
# Host ports are port 2 everywhere; hub-side ports: 1->1, 2->3, 3->4.
HUB_PORT_OF_SPOKE = {1: 1, 2: 3, 3: 4}

spokes = st.sampled_from([1, 2, 3])
dst_values = st.sampled_from([1, 2, 3, 4])
mark_values = st.sampled_from([0, 1, 2])


@st.composite
def outbound_branch(draw):
    """A hub-to-spoke path: H4's traffic to some internal host."""
    spoke = draw(spokes)
    dst = draw(dst_values)
    hub_port = HUB_PORT_OF_SPOKE[spoke]
    tests = [field_test("pt", 2), field_test("ip_dst", dst)]
    if draw(st.booleans()):
        tests.append(field_test("mark", draw(mark_values)))
    body = [filter_(conj(*tests))]
    if draw(st.booleans()):
        body.append(assign("mark", draw(mark_values)))
    body.append(assign("pt", hub_port))
    body.append(link(Location(4, hub_port), Location(spoke, 1)))
    if draw(st.booleans()):
        body.append(filter_(field_test("ip_dst", dst)))
    body.append(assign("pt", 2))
    return seq(*body)


@st.composite
def inbound_branch(draw):
    """A spoke-to-hub path: an internal host's traffic toward H4."""
    spoke = draw(spokes)
    hub_port = HUB_PORT_OF_SPOKE[spoke]
    tests = [field_test("pt", 2), field_test("sw", spoke)]
    if draw(st.booleans()):
        tests.append(field_test("ip_dst", 4))
    body = [filter_(conj(*tests)), assign("pt", 1)]
    body.append(link(Location(spoke, 1), Location(4, hub_port)))
    body.append(assign("pt", 2))
    return seq(*body)


@st.composite
def path_policies(draw):
    n = draw(st.integers(1, 4))
    branches = [
        draw(st.one_of(outbound_branch(), inbound_branch())) for _ in range(n)
    ]
    return union(*branches)


@st.composite
def ingress_packets(draw):
    sw = draw(st.sampled_from([1, 2, 3, 4]))
    return Packet(
        {
            "sw": sw,
            "pt": 2,
            "ip_dst": draw(dst_values),
            "mark": draw(mark_values),
        }
    )


def run_compiled(config, packet: Packet, max_hops: int = 16):
    """Follow the configuration's step relation to terminal packets."""
    current = {LocatedPacket.of(packet)}
    delivered = set()
    for _ in range(max_hops):
        nxt = set()
        for lp in current:
            outs = config.switch_step(lp)
            for out in outs:
                moved = config.link_step(out)
                if moved:
                    nxt |= moved
                else:
                    delivered.add(out.packet)
        if not nxt:
            return frozenset(delivered)
        current = nxt
    raise AssertionError("packet did not terminate")


class TestCompilerAgainstDenotation:
    @given(path_policies(), ingress_packets())
    @settings(max_examples=200, deadline=None)
    def test_compiled_equals_denotational(self, policy, packet):
        topology = star_topology()
        config = compile_policy(policy, topology)
        expected = eval_packet(policy, packet)
        got = run_compiled(config, packet)
        assert got == expected, (
            f"\npolicy: {policy!r}\npacket: {packet!r}\n"
            f"expected {sorted(map(repr, expected))}\n"
            f"got      {sorted(map(repr, got))}"
        )
