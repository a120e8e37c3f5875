"""Run configuration shared by all commands.

Values resolve in three layers: dataclass defaults, then a JSON config file,
then explicit flag overrides.  Every random choice in a pipeline flows from
the single seed here, and reports embed a hash of the resolved config so two
runs can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence, Tuple

from .approx import BUDGET_CAP
from .errors import LogifoldError
from .graph import read_json
from .networks import CHAMBER_CAP, REGION_CAP
from .voting import DEFAULT_ALPHA_GRID


class ConfigError(LogifoldError):
    """Raised when a run configuration violates its invariants."""


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    chamber_cap: int = CHAMBER_CAP  # sign-vector chambers during compilation
    region_cap: int = REGION_CAP    # linear regions during tree descent or conversion
    budget_cap: int = BUDGET_CAP    # rectangles per approximation
    alpha_grid: Tuple[float, ...] = DEFAULT_ALPHA_GRID
    tie_margin: float = 0.0       # logit margin treated as a tie in reports
    uncertain_weight: float = 0.0

    def validate(self) -> "RunConfig":
        for name in ("chamber_cap", "region_cap", "budget_cap"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for a in self.alpha_grid:
            if not 0.0 <= a <= 1.0:
                raise ConfigError(f"threshold {a} outside [0, 1]")
        for name in ("tie_margin", "uncertain_weight"):
            if not 0.0 <= getattr(self, name) < float("inf"):
                raise ConfigError(f"{name} must be a finite number of at least 0")
        return self


def config_to_dict(cfg: RunConfig) -> dict:
    doc = asdict(cfg)
    doc["alpha_grid"] = list(cfg.alpha_grid)
    return doc


def config_from_dict(doc: dict) -> RunConfig:
    known = {f for f in RunConfig.__dataclass_fields__}
    extra = set(doc) - known
    if extra:
        raise ConfigError(f"unknown config fields: {sorted(extra)}")
    if "alpha_grid" in doc:
        doc = dict(doc, alpha_grid=tuple(doc["alpha_grid"]))
    return RunConfig(**doc).validate()


def load_config(path) -> RunConfig:
    return config_from_dict(read_json(path))


def apply_overrides(cfg: RunConfig, *, seed: Optional[int] = None,
                    chamber_cap: Optional[int] = None,
                    region_cap: Optional[int] = None,
                    grid: Optional[Sequence[float]] = None,
                    tie_margin: Optional[float] = None) -> RunConfig:
    updates = dict(seed=seed, chamber_cap=chamber_cap, region_cap=region_cap,
                   alpha_grid=None if grid is None else tuple(grid), tie_margin=tie_margin)
    return replace(cfg, **{k: v for k, v in updates.items() if v is not None}).validate()


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
