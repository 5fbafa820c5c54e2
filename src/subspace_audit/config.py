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
# Every key `sweep_config_from` reads, whatever the baseline.
_SWEEP_KEYS = {"protected", "subgroup", "samples", "trials", "seed", "eps", "delta", "threads",
               "baseline", "p", "threshold_factor", "method", "baseline_trials"}


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
    must come from one of the two sources.  `baseline = wasserstein` needs
    `threshold_factor`.  Any other key but `feature.*` raises SchemaError.
    """
    unknown = [k for k in cfg if k not in _SWEEP_KEYS and not k.startswith(_FEATURE_PREFIX)]
    if unknown:
        raise SchemaError(f"unknown sweep config key(s): {', '.join(unknown)}")
    eps_grid = _get(cfg, "eps", _listed(float), [])
    delta_grid = _get(cfg, "delta", _listed(float), [])
    if seed is None:
        if "seed" not in cfg:
            raise SchemaError("config is missing required key: seed (or pass --seed)")
        seed = _get(cfg, "seed", int)
    if threads is None:
        threads = _get(cfg, "threads", int, 1)
    baseline_name = baseline if baseline is not None else cfg.get("baseline", "none")
    if baseline_name not in ("none", "wasserstein"):
        raise SchemaError(f"bad value for config key baseline: {baseline_name!r}")
    baseline_obj = None
    if baseline_name == "wasserstein":
        baseline_obj = WassersteinBaseline(
            p=_get(cfg, "p", float, 2.0),
            threshold_factor=_get(cfg, "threshold_factor", float),
            method=cfg.get("method", "exact"),
            trials=_get(cfg, "baseline_trials", int, None),
        )
    return SweepConfig(
        scheme=scheme,
        protected_column=_get(cfg, "protected", str),
        subgroup_value=_get(cfg, "subgroup", str),
        sample_sizes=tuple(_get(cfg, "samples", _listed(int))),
        trials=_get(cfg, "trials", int),
        seed=seed,
        eps_grid=tuple(eps_grid),
        delta_grid=tuple(delta_grid),
        baseline=baseline_obj,
        threads=threads,
    )


_REQUIRED = object()


def _get(cfg: dict[str, str], key: str, convert, default=_REQUIRED):
    """`convert(cfg[key])`, or `default` when the key is absent; a key
    without a default is required.  A ValueError from `convert` names the
    key and its value."""
    if key not in cfg:
        if default is _REQUIRED:
            raise SchemaError(f"config is missing required key: {key}")
        return default
    try:
        return convert(cfg[key])
    except ValueError as exc:
        raise SchemaError(f"bad value for config key {key}: {cfg[key]!r}") from exc


def _listed(convert):
    """Converter of comma-separated text; empty parts are skipped."""
    return lambda text: [convert(part) for part in text.split(",") if part.strip()]
