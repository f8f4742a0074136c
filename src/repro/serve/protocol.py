"""Wire format of the simulation service.

One rule governs the whole API: **the wire identity of a run is the
runner's existing content-addressed cache key** (:func:`repro.runner.
key_for_spec`).  Two submissions whose JSON bodies decode to equal
:class:`~repro.runner.RunSpec`\\ s therefore share a spec hash, a cache
shard, an in-flight coalescing slot and (with ``engine`` deliberately
excluded from the key, the PR 5 invariant) one simulation — no matter
which engine either request asked for.  ``tests/test_serve_protocol.py``
locks this with hypothesis at the API boundary.

:func:`spec_from_wire` is strict: unknown fields, missing required
fields and mistyped values raise :class:`WireError` (rendered as HTTP
400) instead of being guessed at — a service accepting sweeps from
many tenants must not silently coerce one tenant's typo into another
tenant's cache entry.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.runner import RunSpec, key_for_spec, shard_of
from repro.sim.core import DEFAULT_ENGINE, ENGINES
from repro.workloads import WORKLOAD_NAMES

_REQUIRED = ("benchmark", "n_samples", "seed", "predictor_spec")
_BDT_UPDATES = ("commit", "mem", "execute")
_BACKENDS = ("inorder", "ooo")


class WireError(ValueError):
    """A malformed request body (HTTP 400, message safe to echo)."""


#: JSON-level type constraint per RunSpec field, taken from a probe
#: instance (field annotations are strings under future-annotations).
#: ``bool`` is checked before ``int`` in the decoder because bool is an
#: int subclass: ``true`` must not pass for ``n_samples`` nor ``1`` for
#: ``with_asbr``.
_PROBE = RunSpec("x", 1, 1, "x")
_FIELD_TYPES: Dict[str, type] = {
    f.name: type(getattr(_PROBE, f.name))
    for f in dataclasses.fields(RunSpec)
}


def spec_to_wire(spec: RunSpec) -> dict:
    """JSON-ready dict carrying every RunSpec field (incl. engine)."""
    return dataclasses.asdict(spec)


def spec_from_wire(obj) -> RunSpec:
    """Decode and validate one spec object from a request body."""
    if not isinstance(obj, dict):
        raise WireError("spec must be a JSON object, got %s"
                        % type(obj).__name__)
    unknown = sorted(set(obj) - set(_FIELD_TYPES))
    if unknown:
        raise WireError("unknown spec field(s): %s" % ", ".join(unknown))
    missing = [n for n in _REQUIRED if n not in obj]
    if missing:
        raise WireError("missing required spec field(s): %s"
                        % ", ".join(missing))
    kwargs = {}
    for name, value in obj.items():
        want = _FIELD_TYPES[name]
        if want is bool:
            if not isinstance(value, bool):
                raise WireError("field %r must be a boolean" % name)
        elif want is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise WireError("field %r must be an integer" % name)
        elif want is float:
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float)):
                raise WireError("field %r must be a number" % name)
            value = float(value)
        elif want is str:
            if not isinstance(value, str):
                raise WireError("field %r must be a string" % name)
        kwargs[name] = value
    if kwargs["benchmark"] not in WORKLOAD_NAMES:
        raise WireError("unknown benchmark %r (one of: %s)"
                        % (kwargs["benchmark"],
                           ", ".join(sorted(WORKLOAD_NAMES))))
    if kwargs["n_samples"] <= 0:
        raise WireError("n_samples must be positive")
    if kwargs.get("engine", DEFAULT_ENGINE) not in ENGINES:
        raise WireError("engine must be one of: %s" % ", ".join(ENGINES))
    if kwargs.get("bdt_update", "execute") not in _BDT_UPDATES:
        raise WireError("bdt_update must be one of: %s"
                        % ", ".join(_BDT_UPDATES))
    if kwargs.get("backend", "inorder") not in _BACKENDS:
        raise WireError("backend must be one of: %s"
                        % ", ".join(_BACKENDS))
    return RunSpec(**kwargs)


def specs_from_wire(objs) -> List[RunSpec]:
    """Decode a sweep's spec list (bounded sanity checks only)."""
    if not isinstance(objs, list) or not objs:
        raise WireError("specs must be a non-empty JSON array")
    out = []
    for i, obj in enumerate(objs):
        try:
            out.append(spec_from_wire(obj))
        except WireError as exc:
            raise WireError("specs[%d]: %s" % (i, exc))
    return out


def deadline_from_wire(obj: dict) -> float:
    """Decode a request body's optional ``deadline_ms`` into seconds.

    ``deadline_ms`` is *request-level*, not spec-level: it bounds how
    long the caller will wait, so it must never enter the spec — two
    tenants asking for the same point with different patience share
    one cache entry and one execution.  Returns 0.0 when absent.
    """
    value = obj.get("deadline_ms")
    if value is None:
        return 0.0
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value <= 0:
        raise WireError("deadline_ms must be a positive number of "
                        "milliseconds")
    return float(value) / 1000.0


def spec_key(spec: RunSpec) -> str:
    """The service's coalescing/cache key — the runner's, verbatim."""
    return key_for_spec(spec)


def shard_path(spec: RunSpec, shards: int) -> str:
    """``"<shard>/<key>.json"`` relative entry path under a cache root."""
    key = spec_key(spec)
    prefix = shard_of(key, shards)
    name = key + ".json"
    return prefix + "/" + name if prefix else name
