"""Flat key=value run configuration shared by the CLI commands.

The format is deliberately diff-friendly: one `key = value` pair per line,
'#' comments, no sections.  Feature lines are ordered and define the binning
scheme:

    feature.score = continuous:0:10:20
    feature.sex   = categorical:Female,Male

Flags given on the command line win over file values.
"""

from __future__ import annotations

from .errors import SchemaError
from .fileio import read_text
from .histogram import BinningScheme, FeatureSpec
from .sweep import SweepConfig, WassersteinBaseline

_FEATURE_PREFIX = "feature."


def parse_config(text: str) -> dict[str, str]:
    """Parse flat key=value text; duplicate keys are rejected."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SchemaError(f"config line {lineno} is not 'key = value': {raw!r}")
        key = key.strip()
        if key in out:
            raise SchemaError(f"duplicate config key: {key}")
        out[key] = value.strip()
    return out


def load_config(path: str) -> dict[str, str]:
    return parse_config(read_text(path))


def scheme_from_config(cfg: dict[str, str]) -> BinningScheme:
    """Build the binning scheme from the ordered feature.* keys."""
    features = []
    for key, value in cfg.items():
        if not key.startswith(_FEATURE_PREFIX):
            continue
        name = key[len(_FEATURE_PREFIX):]
        kind, _, rest = value.partition(":")
        kind = kind.strip()
        try:
            if kind == "continuous":
                lower, upper, bins = rest.split(":")
                features.append(FeatureSpec.continuous(name, float(lower), float(upper), int(bins)))
            elif kind == "categorical":
                features.append(FeatureSpec.categorical(
                    name, [c.strip() for c in rest.split(",")]))
            else:
                raise ValueError(f"unknown feature kind {kind!r}")
        except (ValueError, SchemaError) as exc:
            raise SchemaError(f"bad value for config key {key}: {exc}") from exc
    if not features:
        raise SchemaError("config declares no feature.* keys")
    return BinningScheme(features=tuple(features))


def sweep_config_from(cfg: dict[str, str], scheme: BinningScheme, *,
                      seed: int | None = None,
                      threads: int | None = None,
                      baseline: str | None = None) -> SweepConfig:
    """Assemble a SweepConfig from file values plus flag overrides.

    `seed`, `threads`, and `baseline` override the file when not None; a seed
    must come from one of the two sources.
    """
    def need(key: str) -> str:
        if key not in cfg:
            raise SchemaError(f"config is missing required key: {key}")
        return cfg[key]

    eps_grid = _floats(cfg, "eps")
    delta_grid = _floats(cfg, "delta")
    if seed is None:
        seed_text = cfg.get("seed")
        if seed_text is None:
            raise SchemaError("config is missing required key: seed (or pass --seed)")
        seed = _int(cfg, "seed")
    if threads is None:
        threads = _int(cfg, "threads") if "threads" in cfg else 1
    baseline_name = baseline if baseline is not None else cfg.get("baseline", "none")
    if baseline_name not in ("none", "wasserstein"):
        raise SchemaError(f"bad value for config key baseline: {baseline_name!r}")
    baseline_obj = None
    if baseline_name == "wasserstein":
        baseline_obj = WassersteinBaseline(
            p=_float(cfg, "p", 2.0),
            threshold_factor=_float(cfg, "threshold_factor", 1.0),
            method=cfg.get("method", "exact"),
            trials=_int(cfg, "baseline_trials") if "baseline_trials" in cfg else None,
        )
    return SweepConfig(
        scheme=scheme,
        protected_column=need("protected"),
        subgroup_value=need("subgroup"),
        sample_sizes=tuple(_ints(cfg, "samples")),
        trials=_int(cfg, "trials"),
        seed=seed,
        eps_grid=tuple(eps_grid),
        delta_grid=tuple(delta_grid),
        baseline=baseline_obj,
        threads=threads,
    )


def _floats(cfg: dict[str, str], key: str) -> list[float]:
    if key not in cfg:
        return []
    try:
        return [float(part) for part in cfg[key].split(",") if part.strip()]
    except ValueError as exc:
        raise SchemaError(f"bad value for config key {key}: {cfg[key]!r}") from exc


def _ints(cfg: dict[str, str], key: str) -> list[int]:
    if key not in cfg:
        raise SchemaError(f"config is missing required key: {key}")
    try:
        return [int(part) for part in cfg[key].split(",") if part.strip()]
    except ValueError as exc:
        raise SchemaError(f"bad value for config key {key}: {cfg[key]!r}") from exc


def _int(cfg: dict[str, str], key: str) -> int:
    try:
        return int(cfg[key])
    except KeyError as exc:
        raise SchemaError(f"config is missing required key: {key}") from exc
    except ValueError as exc:
        raise SchemaError(f"bad value for config key {key}: {cfg[key]!r}") from exc


def _float(cfg: dict[str, str], key: str, default: float) -> float:
    if key not in cfg:
        return default
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise SchemaError(f"bad value for config key {key}: {cfg[key]!r}") from exc
