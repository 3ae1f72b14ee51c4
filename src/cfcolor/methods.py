"""Engine registry and the compact method-spec grammar.

A spec is `name` or `name:key=value,key=value`, e.g. `dynamic:t=2`,
`fixed-chain:U=4096,t=8`, `grid:L=8,inner=trivial`.  One row of _METHODS
holds all that a method's name means: its engine, its required keys, its
optional keys with their defaults, in the engine's argument order, and the
input domain that `cfcolor bench` draws its traces from.  _KEYS lists every
key with the conversion build_engine applies to it; a key whose conversion
is int takes only an integer.
The CLI's per-flag form uses the same keys: flags override or fill in
the keys of a spec, and the merged parameters are validated once.
"""

from __future__ import annotations

from typing import NamedTuple

from .baseline import TrivialEngine, UniqueColorEngine
from .core import EngineError, parse_number
from .engine_dynamic import DynamicEngine, EpsilonEngine
from .engine_fixed import FixedChainEngine, FixedDistinctEngine
from .grid import GridEngine
from .online import OnlineNestedEngine

__all__ = [
    "METHOD_NAMES",
    "build_engine",
    "method_label",
    "parse_method_spec",
]

_INNER_FACTORIES = {
    "trivial": TrivialEngine,
    "dynamic": DynamicEngine,
    "eps": EpsilonEngine,
}
INNER_NAMES = tuple(_INNER_FACTORIES)

# key -> its conversion in build_engine; the order is method_label's
_KEYS = {
    "universe": int,
    "t": int,
    "eps": float,
    "L": lambda L: L,
    "inner": _INNER_FACTORIES.__getitem__,
}
METHOD_KEYS = tuple(_KEYS)
_ALIASES = {"U": "universe"}


class _Method(NamedTuple):
    engine: type
    required: tuple[str, ...]
    optional: dict  # key -> default
    domain: str  # bench input: random, bounded-length, nested-lb or universe


_METHODS = {
    "fixed-distinct": _Method(FixedDistinctEngine, ("universe",), {"t": 2}, "universe"),
    "fixed-chain": _Method(FixedChainEngine, ("universe",), {"t": 2}, "universe"),
    "dynamic": _Method(DynamicEngine, (), {"t": 2}, "random"),
    "eps": _Method(EpsilonEngine, (), {"eps": 0.5}, "random"),
    "grid": _Method(GridEngine, ("L",), {"inner": "trivial"}, "bounded-length"),
    "greedy-nested": _Method(OnlineNestedEngine, (), {}, "nested-lb"),
    "trivial": _Method(TrivialEngine, (), {}, "random"),
    "unique": _Method(UniqueColorEngine, (), {}, "random"),
}

METHOD_NAMES = tuple(sorted(_METHODS))
BENCH_DOMAINS = {name: method.domain for name, method in _METHODS.items()}


def split_method_spec(spec: str) -> tuple[str, dict]:
    """Split `name:k=v,...` into (name, params) without validating them."""
    name, _, tail = spec.partition(":")
    params: dict = {}
    if tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key or not value:
                raise EngineError(f"bad method parameter {item!r} in {spec!r}")
            canon = _ALIASES.get(key, key)
            if canon not in _KEYS:
                raise EngineError(f"unknown method parameter {key!r} in {spec!r}")
            if canon == "inner":
                params[canon] = value
            else:
                try:
                    params[canon] = parse_number(value)
                except ValueError:
                    raise EngineError(
                        f"non-numeric value for {key!r} in {spec!r}"
                    ) from None
    return name, params


def parse_method_spec(spec: str) -> tuple[str, dict]:
    """Split `name:k=v,...` into a validated (name, params) pair."""
    return validate_method(*split_method_spec(spec))


def validate_method(name: str, params: dict) -> tuple[str, dict]:
    method = _METHODS.get(name)
    if method is None:
        known = ", ".join(METHOD_NAMES)
        raise EngineError(f"unknown method {name!r} (known: {known})")
    missing = set(method.required) - params.keys()
    if missing:
        raise EngineError(f"method {name!r} needs {sorted(missing)}")
    extra = params.keys() - set(method.required) - method.optional.keys()
    if extra:
        raise EngineError(f"method {name!r} does not take {sorted(extra)}")
    for key, value in params.items():
        if _KEYS[key] is int and not isinstance(value, int):
            raise EngineError(f"method parameter {key!r} must be an integer, got {value}")
    if "inner" in params and params["inner"] not in _INNER_FACTORIES:
        raise EngineError(f"inner engine must be one of {sorted(_INNER_FACTORIES)}")
    return name, params


def build_engine(spec: str | tuple[str, dict]):
    """Instantiate an engine from a spec string or (name, params) pair."""
    name, params = parse_method_spec(spec) if isinstance(spec, str) else validate_method(*spec)
    method = _METHODS[name]
    values = {**method.optional, **params}
    return method.engine(*(_KEYS[k](values[k]) for k in (*method.required, *method.optional)))


def method_label(name: str, params: dict) -> str:
    """Canonical `name:k=v,...` form; stable key order for report columns."""
    if not params:
        return name
    shown = {canon: alias for alias, canon in _ALIASES.items()}
    tail = ",".join(f"{shown.get(k, k)}={params[k]}" for k in _KEYS if k in params)
    return f"{name}:{tail}"
