"""Run-wide limits and defaults, overridable from a JSON config file."""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

ENUMERATION_BOUND = 10**6
INDEX_BOUND = 10**5

CONFIG_ENV_VAR = "FSCAT_CONFIG"


@dataclass
class RunConfig:
    enumeration_bound: int = ENUMERATION_BOUND
    index_bound: int = INDEX_BOUND
    # accepted for compatibility; character tables are deterministic
    seed: int = 1

    def validate(self) -> "RunConfig":
        for f in fields(self):
            v = getattr(self, f.name)
            # the bounds must be positive; the seed changes nothing, so any
            # integer from 0 up is accepted
            least, kind = ((0, "non-negative") if f.name == "seed"
                           else (1, "positive"))
            # bool is a subclass of int, but true is not a bound of 1
            if not isinstance(v, int) or isinstance(v, bool) or v < least:
                raise ValueError(f"config field {f.name} must be a {kind} integer, got {v!r}")
        return self


def load_config(path: str | None = None) -> RunConfig:
    """Build a RunConfig from defaults, a JSON file, or the environment.

    Precedence: explicit path argument, then the FSCAT_CONFIG environment
    variable, then built-in defaults.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    cfg = RunConfig()
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must contain a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for k, v in data.items():
            setattr(cfg, k, v)
    return cfg.validate()
