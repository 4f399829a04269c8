"""Network event structures (Definition 5).

An NES is an event structure over network events together with a map
``g`` assigning a network configuration to every event-set.  In this
reproduction ``g`` maps each event-set -- encoded as its structure's
bitmask -- to the ETS state vector it came from, and the NES carries the
per-state configuration policies alongside (two views of the same
``g``: ``state_of`` and ``config_of``) and, once compiled, the per-state
:class:`~repro.netkat.compiler.Configuration` (``compiled``, which the
Definition 6 checker reads).  The compiler and the checker look masks
up directly (``state_of_mask``); the frozenset views encode or decode.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, KeysView, Mapping, Optional, Tuple

from ..netkat.ast import Policy
from ..stateful.ast import StateVector
from .event import Event, EventSet
from .structure import EventStructure

__all__ = ["NES"]


class NES:
    """A network event structure ``(E, con, ⊢, g)``."""

    # ``g`` compiled: ``(switch set, {state: Configuration})`` left by the
    # latest ``CompiledNES`` (tables depend on policy and switch set only).
    # One slot, as an NES outlives any chain of topologies; never pickled.
    compiled: Optional[Tuple[FrozenSet[int], Mapping[StateVector, object]]] = None

    def __init__(
        self,
        structure: EventStructure,
        g_states: Mapping[int, StateVector],
        configurations: Mapping[StateVector, Policy],
    ):
        """``g_states`` maps each event-set, encoded by ``structure``, to
        its state."""
        self.structure = structure
        self._g: Dict[int, StateVector] = dict(g_states)
        self._configurations: Dict[StateVector, Policy] = dict(configurations)
        if 0 not in self._g:
            raise ValueError("g must be defined on the empty event-set")
        for mask, state in self._g.items():
            if state not in self._configurations:
                raise ValueError(
                    f"event-set {set(structure.decode(mask))} maps to state "
                    f"{state} with no configuration"
                )

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("compiled", None)
        return state

    # -- the g map ------------------------------------------------------------

    @property
    def events(self) -> FrozenSet[Event]:
        return self.structure.events

    def event_sets(self) -> FrozenSet[EventSet]:
        return frozenset(map(self.structure.decode, self._g))

    def event_set_masks(self) -> KeysView[int]:
        """The event-sets, encoded."""
        return self._g.keys()

    def state_of(self, event_set: Iterable[Event]) -> StateVector:
        """The ETS state vector for an event-set."""
        key = frozenset(event_set)
        state = self._g.get(self.structure._try_encode(key))
        if state is None:
            raise KeyError(f"{set(key)} is not an event-set of this NES")
        return state

    def state_of_mask(self, mask: int) -> StateVector:
        """:meth:`state_of` an encoded event-set (``KeyError`` off ``g``)."""
        return self._g[mask]

    def config_of(self, event_set: Iterable[Event]) -> Policy:
        """``g(X)``: the configuration policy active at an event-set."""
        return self._configurations[self.state_of(event_set)]

    def configuration_states(self) -> Tuple[StateVector, ...]:
        return tuple(sorted(self._configurations))

    def configuration_policy(self, state: StateVector) -> Policy:
        return self._configurations[state]

    @property
    def initial_state(self) -> StateVector:
        return self._g[0]

    def with_configurations(
        self, configurations: Mapping[StateVector, Policy]
    ) -> "NES":
        """A new NES sharing this one's event structure and ``g`` (both
        immutable) over other per-state configuration policies."""
        return NES(self.structure, self._g, configurations)

    # -- convenience passthroughs ---------------------------------------------

    def con(self, subset: Iterable[Event]) -> bool:
        return self.structure.con(frozenset(subset))

    def enables(self, enabler: Iterable[Event], event: Event) -> bool:
        return self.structure.enables(frozenset(enabler), event)

    def allows_sequence(self, sequence) -> bool:
        return self.structure.allows_sequence(sequence)

    def __repr__(self) -> str:
        return (
            f"NES({len(self.events)} events, {len(self._g)} event-sets, "
            f"{len(self._configurations)} configurations)"
        )
