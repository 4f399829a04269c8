"""Common structure for the paper's case-study applications (section 5.1).

Each application bundles a Stateful NetKAT program, the topology of
Figure 8 it runs on, an initial state vector, and the
:class:`~repro.pipeline.CompileOptions` it compiles under; the staged
artifacts (:attr:`App.ets`, :attr:`App.nes`, :attr:`App.compiled`) all
delegate to one cached :class:`~repro.pipeline.Pipeline`, so an app
constructed with ``options.cache_dir`` set skips the whole toolchain on
a warm artifact cache.  There is one compile path: the options carry
only how it executes (cache placement and trust, retry, deadline),
never what it produces or which implementation computes a stage — the
reference implementations live in their own layers and are called by
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..events.nes import NES
from ..netkat.ast import Policy
from ..pipeline import CompileOptions, Pipeline, _topology_fingerprint
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
    options: CompileOptions = CompileOptions()

    @property
    def pipeline(self) -> Pipeline:
        """The staged compilation pipeline for this app.

        Memoized **keyed on the pipeline's inputs**, not unconditionally:
        an app whose ``options`` (or other frozen fields) are replaced
        via ``dataclasses.replace``-style surgery, or whose topology is
        mutated in place, gets a fresh pipeline instead of stale staged
        artifacts.  Unchanged inputs keep returning the same pipeline
        object, so the staged work and the timing report stay shared.
        """
        key = (
            id(self.program),
            self.initial_state,
            self.options,
            _topology_fingerprint(self.topology),
        )
        memo = self.__dict__.get("_pipeline_memo")
        if memo is not None and memo[0] == key:
            return memo[1]
        pipeline = Pipeline(
            self.program, self.topology, self.initial_state, self.options
        )
        object.__setattr__(self, "_pipeline_memo", (key, pipeline))
        return pipeline

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
