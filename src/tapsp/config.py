"""Run configuration: every setting the library reads.

The fields in ENV_FIELDS can be seeded from the environment as TAPSP_
plus the upper-case field name (TAPSP_OMEGA, TAPSP_SEED, TAPSP_KERNEL,
TAPSP_MODE, TAPSP_VERIFY); the CLI flags set fields of the same name and
win over the environment. The CLI's own flags, --json, --trace and
--threads, set no field: the first two choose what it prints, and
--threads is only checked. TAPSP_KERNEL takes one of KERNELS: "numpy"
(the default: Yuval's encoding in float64 exponents, one BLAS product,
where the operands' ranges fit, and fixed-width min-plus relaxation
beyond) or the paper's encoded ring products "schoolbook" and
"strassen"; all three give identical answers. The kernel is the only
product setting that reaches the pipeline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

ENV_PREFIX = "TAPSP_"

MODES = ("general", "positive", "auto")
KERNELS = ("numpy", "schoolbook", "strassen")
MAX_ATTEMPTS = 20  # general-threshold verify passes; sampled-diameter searches


@dataclass(frozen=True)
class RunConfig:
    omega: float = 2.376
    seed: int = 0
    kernel: str = "numpy"
    mode: str = "auto"
    verify: bool = False
    verify_bound: int = 128
    force_beta: float | None = None

    def __post_init__(self):
        if not 2.0 <= self.omega <= 3.0:  # NaN fails too
            raise ValueError("omega must lie in [2, 3]")
        if self.force_beta is not None and not 0.0 <= self.force_beta <= 1.0:
            raise ValueError("forced beta must lie in [0, 1]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}")

    def with_(self, **kw) -> "RunConfig":
        return replace(self, **kw)

    def verify_due(self, n: int) -> bool:
        """Whether a run on n vertices is checked against the oracle:
        verify is on and n is at most verify_bound."""
        return self.verify and n <= self.verify_bound


def pick_mode(g, config: RunConfig) -> str:
    """The path config.mode selects for graph g: "positive" or "general".

    "auto" takes the deterministic path when every weight is >= 1; an
    explicit "positive" on a graph with a smaller weight is a ValueError.
    """
    if config.mode == "auto":
        return "positive" if g.positive_weights() else "general"
    if config.mode == "positive" and not g.positive_weights():
        raise ValueError("positive mode needs all weights >= 1")
    return config.mode


def _parse_bool(raw: str) -> bool:
    word = raw.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"bad boolean {raw!r}: use 1/true/yes/on or 0/false/no/off")
    return word in ("1", "true", "yes", "on")


# field -> parser of its TAPSP_ variable, applied in this order
ENV_FIELDS = {
    "omega": float,
    "seed": int,
    "kernel": str,
    "mode": str,
    "verify": _parse_bool,
}


def config_from_env() -> RunConfig:
    """Defaults with environment overrides applied."""
    cfg = RunConfig()
    for name, parse in ENV_FIELDS.items():
        raw = os.environ.get(ENV_PREFIX + name.upper())
        if raw is not None:
            cfg = cfg.with_(**{name: parse(raw)})
    return cfg
