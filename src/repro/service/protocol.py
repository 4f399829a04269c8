"""The compilation service's JSON wire protocol.

One module owns every translation between wire JSON and pipeline
objects, used by both the server handlers and the client:

- **programs** travel as concrete-syntax source strings and go through
  the existing parser/pretty-printer pair
  (:func:`repro.netkat.parser.parse_policy` /
  :func:`repro.netkat.pretty.pretty_policy`), which round-trips the
  smart-constructor normal form every programmatically-built policy is
  already in — so a program serialized by a client and parsed by the
  server is structurally equal to the original, and the served tables
  (and artifact keys) match a direct :class:`~repro.pipeline.Pipeline`
  build byte for byte;
- **topologies** travel as ``{"links", "hosts", "switches"}`` objects
  mirroring :func:`repro.pipeline._topology_fingerprint`;
- **options** do not travel: a request says *what* to compile and the
  server decides *how* (cache placement and trust); only the
  per-request wall-clock budget travels, as a top-level
  ``deadline_seconds`` field mapped onto
  ``CompileOptions.deadline_seconds`` server-side;
- **deltas** (:class:`~repro.pipeline.Delta`) round-trip through
  :func:`delta_to_wire` / :func:`delta_from_wire`, so ``POST /update``
  works over the wire;
- **tables** are served in the canonical per-switch serialization the
  byte-identity golden suites pin (``tests/seed_apps.guarded_bytes``).

Malformed wire input raises :class:`ProtocolError` carrying a stable
machine-readable ``code``; the server maps it to a structured 400 body.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..netkat.ast import Policy
from ..netkat.parser import ParseError, parse_policy
from ..netkat.pretty import pretty_policy
from ..pipeline import Delta
from ..runtime.compiler import CompiledNES
from ..topology import Topology

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "compile_request_to_wire",
    "delta_from_wire",
    "delta_to_wire",
    "error_to_wire",
    "initial_state_from_wire",
    "program_from_wire",
    "program_to_wire",
    "tables_to_wire",
    "topology_from_wire",
    "topology_to_wire",
]

# Bumped on incompatible wire-shape changes; served by GET /version so a
# fleet can gate rollouts on it.  Version 3 shrank the requestable
# option set to five fields; version 4 removed request options (a
# request naming ``options`` is an unknown-field 400, never ignored).
PROTOCOL_VERSION = 4

# HTTP head limits on both ends (the stdlib's): a longer line, more fields.
MAX_HEAD_LINE = 65536
MAX_HEAD_FIELDS = 100
# A token, a colon, a value without CR, LF or NUL; an obs-fold never
# matches.  Only greedy classes that exclude what follows them: linear.
_FIELD = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+):([^\r\n\0]*)\r?\n")


class HeadError(ValueError):
    """An unframeable HTTP head; ``args`` are the status that answers it
    (400 or 431; the client's 502; None: the peer closed mid-head), why."""


def read_fields(readline: Callable[[int], bytes]) -> Dict[str, str]:
    """A head's fields to its blank line, by lower-cased name; the first
    of a repeated field wins, and two ``Content-Length`` values clash."""
    fields: Dict[str, str] = {}
    for _ in range(MAX_HEAD_FIELDS + 1):
        line = readline(MAX_HEAD_LINE + 1)
        if line in (b"\r\n", b"\n"):
            return fields
        if len(line) > MAX_HEAD_LINE:
            raise HeadError(431, "a header line is too long")
        field = _FIELD.fullmatch(line)
        if field is None:
            raise HeadError(400 if line else None, f"bad header line {line[:80]!r}")
        name = field[1].decode().lower()
        value = field[2].strip(b" \t").decode("latin-1")
        if fields.setdefault(name, value) != value and name == "content-length":
            raise HeadError(400, "conflicting Content-Length values")
    raise HeadError(431, "too many header fields")


class ProtocolError(ValueError):
    """Malformed wire input; ``code`` is a stable machine-readable
    discriminator (``"parse_error"``, ``"bad_topology"``, ...)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _json_int(value: Any) -> int:
    """``value`` when it is a JSON integer.  ``int()`` would coerce a
    boolean, a float or a digit string onto the integer spelling's
    artifact key; nothing is tolerated-and-ignored."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def _expect_mapping(obj: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(obj, Mapping):
        raise ProtocolError(
            f"bad_{what}", f"{what} must be a JSON object, got {type(obj).__name__}"
        )
    return obj


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def program_to_wire(program: Union[Policy, str]) -> str:
    """Concrete-syntax source for a policy (strings pass through)."""
    if isinstance(program, str):
        return program
    return pretty_policy(program)


def program_from_wire(obj: Any) -> Policy:
    """Parse a wire program (a concrete-syntax source string)."""
    if not isinstance(obj, str):
        raise ProtocolError(
            "bad_program",
            f"program must be a source string, got {type(obj).__name__}",
        )
    try:
        return parse_policy(obj)
    except ParseError as exc:
        raise ProtocolError("parse_error", str(exc)) from exc


# ---------------------------------------------------------------------------
# Topologies
# ---------------------------------------------------------------------------


def topology_to_wire(topology: Topology) -> Dict[str, Any]:
    """``{"links": [["sw:pt","sw:pt"], ...], "hosts": [[name,"sw:pt"],
    ...], "switches": [...]}`` — the same data the artifact-key
    fingerprint digests, so equal wire topologies key identically."""
    return {
        "links": [[str(src), str(dst)] for src, dst in topology.links()],
        "hosts": [[h.name, str(h.attachment)] for h in topology.hosts],
        "switches": sorted(topology.switches),
    }


def topology_from_wire(obj: Any) -> Topology:
    """Rebuild a :class:`~repro.topology.Topology` from its wire form."""
    wire = _expect_mapping(obj, "topology")
    unknown = set(wire) - {"links", "hosts", "switches"}
    if unknown:
        raise ProtocolError(
            "bad_topology", f"unknown topology keys {sorted(unknown)}"
        )
    topology = Topology()
    try:
        for pair in wire.get("links", ()):
            src, dst = pair
            topology.add_link(str(src), str(dst))
        for pair in wire.get("hosts", ()):
            name, attachment = pair
            topology.add_host(str(name), str(attachment))
        for switch in wire.get("switches", ()):
            topology.add_switch(_json_int(switch))
    except (TypeError, ValueError) as exc:
        raise ProtocolError("bad_topology", f"malformed topology: {exc}") from exc
    return topology


# ---------------------------------------------------------------------------
# Initial state
# ---------------------------------------------------------------------------


def initial_state_from_wire(obj: Any) -> Tuple[int, ...]:
    """A state vector from a JSON list of ints."""
    if not isinstance(obj, Sequence) or isinstance(obj, (str, bytes)):
        raise ProtocolError(
            "bad_initial_state",
            f"initial_state must be a list of ints, got {type(obj).__name__}",
        )
    try:
        return tuple(_json_int(component) for component in obj)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            "bad_initial_state", f"malformed initial_state: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Deltas
# ---------------------------------------------------------------------------


def delta_to_wire(delta: Delta) -> Dict[str, Any]:
    """A JSON object round-tripping through :func:`delta_from_wire`."""
    wire: Dict[str, Any] = {}
    if delta.set_state:
        wire["set_state"] = [[m, n] for m, n in delta.set_state]
    if delta.replace_policy is not None:
        wire["replace_policy"] = pretty_policy(delta.replace_policy)
        wire["with_policy"] = pretty_policy(delta.with_policy)
    if delta.topology is not None:
        wire["topology"] = topology_to_wire(delta.topology)
    return wire


def delta_from_wire(obj: Any) -> Delta:
    """Rebuild a :class:`~repro.pipeline.Delta` from its wire form."""
    wire = _expect_mapping(obj, "delta")
    unknown = set(wire) - {"set_state", "replace_policy", "with_policy", "topology"}
    if unknown:
        raise ProtocolError("bad_delta", f"unknown delta keys {sorted(unknown)}")
    set_state: List[Tuple[int, int]] = []
    for pair in wire.get("set_state", ()):
        try:
            component, value = pair
            set_state.append((_json_int(component), _json_int(value)))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                "bad_delta", f"set_state entries must be [component, value] "
                f"int pairs: {exc}"
            ) from exc
    replace = wire.get("replace_policy")
    with_ = wire.get("with_policy")
    topology_wire = wire.get("topology")
    try:
        return Delta(
            set_state=tuple(set_state),
            replace_policy=(
                program_from_wire(replace) if replace is not None else None
            ),
            with_policy=(
                program_from_wire(with_) if with_ is not None else None
            ),
            topology=(
                topology_from_wire(topology_wire)
                if topology_wire is not None
                else None
            ),
        )
    except ValueError as exc:
        if isinstance(exc, ProtocolError):
            raise
        raise ProtocolError("bad_delta", str(exc)) from exc


# ---------------------------------------------------------------------------
# Requests, tables, errors
# ---------------------------------------------------------------------------


def compile_request_to_wire(
    program: Union[Policy, str],
    topology: Union[Topology, Mapping[str, Any]],
    initial_state: Sequence[int],
    deadline_seconds: Optional[float] = None,
    include_tables: bool = True,
) -> Dict[str, Any]:
    """One ``POST /compile`` request body (also a batch entry).

    A value the daemon would answer with a 400 -- a state component that
    is not an int, a deadline that is not a number, an ``include_tables``
    that is not a bool -- raises :class:`TypeError` here instead of being
    coerced onto another request's artifact key.  A non-finite deadline
    has no JSON spelling (``json.dumps`` would emit the non-JSON token
    ``NaN``) and raises :class:`ValueError`."""
    state = [_json_int(component) for component in initial_state]
    if deadline_seconds is not None and (
        isinstance(deadline_seconds, bool)
        or not isinstance(deadline_seconds, (int, float))
    ):
        raise TypeError(f"deadline_seconds must be a number, got {deadline_seconds!r}")
    if deadline_seconds is not None and not math.isfinite(deadline_seconds):
        raise ValueError(f"deadline_seconds must be finite, got {deadline_seconds!r}")
    if not isinstance(include_tables, bool):
        raise TypeError(f"include_tables must be a bool, got {include_tables!r}")
    body: Dict[str, Any] = {
        "program": program_to_wire(program),
        "topology": (
            topology_to_wire(topology)
            if isinstance(topology, Topology)
            else dict(topology)
        ),
        "initial_state": state,
    }
    if deadline_seconds is not None:
        body["deadline_seconds"] = float(deadline_seconds)
    if not include_tables:
        body["include_tables"] = False
    return body


def tables_to_wire(compiled: CompiledNES) -> Dict[str, str]:
    """The guarded merged tables in the canonical per-switch
    serialization: ``{"<switch>": repr(table)}``, the exact bytes the
    golden suites compare (``tests/seed_apps.guarded_bytes`` joins the
    same reprs)."""
    tables = compiled.guarded_tables()
    return {str(switch): repr(tables[switch]) for switch in sorted(tables)}


def error_to_wire(exc: BaseException, code: Optional[str] = None) -> Dict[str, Any]:
    """The structured error body: always a type and a message, plus the
    stage provenance when the failure is a typed pipeline error."""
    body: Dict[str, Any] = {
        "type": type(exc).__name__,
        "code": code if code is not None else getattr(exc, "code", "error"),
        "message": str(exc),
    }
    stage = getattr(exc, "stage", None)
    if stage is not None:
        body["stage"] = stage
    return body
