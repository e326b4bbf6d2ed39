"""Plain-text run configuration.

Config files are `key = value` lines with `#` comments; keys are dotted
and grouped by prefix. Recognized keys:

    model.name          noise_magnitude | heaviside
    model.prior_mean    float
    model.prior_var     float, nonnegative
    model.noise_scale   float (noise_magnitude only)
    model.step_height   float (heaviside only)
    engine.kind         monte_carlo | sigma_point | gauss_hermite
    engine.samples      int (monte_carlo only; default 5000,
                        quadrature.DEFAULT_SAMPLE_COUNT)
    engine.seed         int (monte_carlo only)
    engine.kappa        float (sigma_point only)
    engine.nodes        int, at least 2 (gauss_hermite only; default 3)
    feature.order       int (monomial order)
    feature.standardize true | false
    run.steps           int
    run.seed            int
    run.seeds           int (number of consecutive seeds)
    run.orders          comma-separated ints
    run.out             output directory

A built-in model is defined in one place, ``experiments.EXPERIMENTS``:
its model.* keys are its factory's parameters, and its default feature
order, standardization and engine come from there too. Any engine.* key
replaces that default engine, and engine.kind then defaults to
monte_carlo. Unknown keys, model.* keys the selected model does not
take and engine.* keys the selected engine kind ignores are rejected,
so typos fail loudly; the CLI also rejects a key its subcommand does
not read. Every model.* value must be a finite number.
"""

from __future__ import annotations

import inspect

from .experiments import EXPERIMENTS, _experiment
from .models import GaussianBelief, StateSpaceModel, _model_param
from .quadrature import ExpectationEngine

__all__ = [
    "KNOWN_KEYS",
    "load_config",
    "parse_config_text",
    "parse_bool",
    "parse_orders",
    "model_from_config",
    "engine_from_config",
]

# The model.* keys each built-in model's factory takes, by parameter name.
_MODEL_PARAMS = {
    name: tuple(inspect.signature(entry.factory).parameters)
    for name, entry in EXPERIMENTS.items()
}

# The engine.* keys each engine kind takes: key suffix -> (keyword, type).
_ENGINE_PARAMS = {
    "monte_carlo": {"samples": ("sample_count", int), "seed": ("seed", int)},
    "sigma_point": {"kappa": ("kappa", float)},
    "gauss_hermite": {"nodes": ("nodes", int)},
}

KNOWN_KEYS = frozenset(
    {"model.name", "engine.kind", "feature.order", "feature.standardize"}
    | {"run.steps", "run.seed", "run.seeds", "run.orders", "run.out"}
    | {f"model.{param}" for params in _MODEL_PARAMS.values() for param in params}
    | {f"engine.{suffix}" for params in _ENGINE_PARAMS.values() for suffix in params}
)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse config lines into a flat string dict; last duplicate wins."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
        if not value:
            raise ValueError(f"config key {key!r} has an empty value")
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _get(cfg: dict[str, str], key: str, cast, default):
    if key not in cfg:
        return default
    raw = cfg[key]
    try:
        return cast(raw)
    except (TypeError, ValueError) as err:
        raise ValueError(f"config key {key!r} has invalid value {raw!r}") from err


def parse_bool(raw: str) -> bool:
    lowered = str(raw).lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def parse_orders(raw: str) -> tuple[int, ...]:
    """Parse a comma-separated order list such as '1,2,3'."""
    try:
        orders = tuple(int(part.strip()) for part in str(raw).split(","))
    except ValueError as err:
        raise ValueError(f"orders must be comma-separated integers, got {raw!r}") from err
    if not orders or any(o < 1 for o in orders):
        raise ValueError(f"orders must be positive integers, got {raw!r}")
    if len(set(orders)) < len(orders):
        raise ValueError(f"order {max(orders, key=orders.count)} is listed twice in {raw!r}")
    return orders


def _group_kwargs(cfg: dict[str, str], group: str, params: dict, what: str) -> dict:
    # Keyword arguments from the group.* keys that are set, other than
    # the selector (model.name or engine.kind). ``params`` maps a key's
    # suffix to (keyword, type); a key missing there does not apply to
    # ``what``. Defaults cover the keys left unset.
    kwargs = {}
    for key in cfg:
        prefix, _, suffix = key.partition(".")
        if prefix != group or suffix in ("name", "kind"):
            continue
        if suffix not in params:
            raise ValueError(f"config key {key!r} does not apply to {what}")
        keyword, cast = params[suffix]
        kwargs[keyword] = _get(cfg, key, cast, None)
    return kwargs


def _model_kwargs(cfg: dict[str, str], name: str) -> dict[str, float]:
    # Factory keyword arguments from the model.* keys that are set, each
    # parsed as a float and screened as its factory screens it.
    params = {p: (p, lambda raw, p=p: _model_param(p, float(raw))) for p in _MODEL_PARAMS[name]}
    return _group_kwargs(cfg, "model", params, f"model {name!r}")


def model_from_config(
    cfg: dict[str, str], name: str | None = None
) -> tuple[StateSpaceModel, GaussianBelief]:
    """Build the named built-in model with config knobs applied."""
    name = name or cfg.get("model.name")
    if name is None:
        raise ValueError("no model selected: pass --model or set model.name")
    factory = _experiment(name).factory
    return factory(**_model_kwargs(cfg, name))


def engine_from_config(cfg: dict[str, str]) -> ExpectationEngine | None:
    """Build the configured engine, or None when no engine keys are set."""
    if not any(key.startswith("engine.") for key in cfg):
        return None
    kind = cfg.get("engine.kind", "monte_carlo")
    if kind not in _ENGINE_PARAMS:
        raise ValueError(f"config key 'engine.kind' has invalid value {kind!r}")
    kwargs = _group_kwargs(cfg, "engine", _ENGINE_PARAMS[kind], f"engine kind {kind!r}")
    return ExpectationEngine(kind, **kwargs)

