"""Common structure for the paper's case-study applications (section 5.1).

Each application bundles a Stateful NetKAT program, the topology of
Figure 8 it runs on and an initial state vector; the staged artifacts
(:attr:`App.ets`, :attr:`App.nes`, :attr:`App.compiled`) all delegate
to one :class:`~repro.pipeline.Pipeline` per app, built on first use.
A caller who wants compile options (an artifact cache, a deadline)
builds ``Pipeline(app.program, app.topology, app.initial_state,
options)`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict

from ..events.nes import NES
from ..netkat.ast import Policy
from ..pipeline import Pipeline
from ..runtime.compiler import CompiledNES
from ..runtime.semantics import Runtime
from ..stateful.ast import StateVector
from ..stateful.ets import ETS
from ..topology import Topology

__all__ = ["App", "HOSTS"]

# Conventional numeric host addresses used by all case studies: the value
# carried in a packet's ip_dst/ip_src fields for host "Hk" is k.
HOSTS: Dict[str, int] = {"H1": 1, "H2": 2, "H3": 3, "H4": 4}


@dataclass(frozen=True)
class App:
    """A runnable case study: program + topology + initial state."""

    name: str
    program: Policy
    topology: Topology
    initial_state: StateVector
    description: str = ""

    @cached_property
    def pipeline(self) -> Pipeline:
        """The staged compilation pipeline for this app, built once per
        app object, so the staged work and the timing report are
        shared by every reader."""
        return Pipeline(self.program, self.topology, self.initial_state)

    @property
    def ets(self) -> ETS:
        return self.pipeline.ets

    @property
    def nes(self) -> NES:
        return self.pipeline.nes

    @property
    def compiled(self) -> CompiledNES:
        return self.pipeline.compiled

    def runtime(self, seed: int = 0, controller_assist: bool = False) -> Runtime:
        """A fresh runtime executing this application."""
        return Runtime(
            self.compiled, seed=seed, controller_assist=controller_assist
        )
