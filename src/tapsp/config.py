"""Run configuration shared by the library entry points and the CLI.

Every field can be seeded from the environment with the TAPSP_ prefix
(TAPSP_OMEGA, TAPSP_SEED, TAPSP_KERNEL, TAPSP_MODE, TAPSP_THREADS,
TAPSP_VERIFY); explicit CLI flags win over the environment. TAPSP_KERNEL
takes one of KERNELS: "numpy" (the default: Yuval's encoding in
float64 exponents, one BLAS product, where the operands' ranges fit, and
fixed-width min-plus relaxation beyond) or the paper's encoded ring
products "schoolbook" and "strassen"; all three give identical
answers. The kernel is the only product setting that reaches the
pipeline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

ENV_PREFIX = "TAPSP_"

MODES = ("general", "positive", "auto")
KERNELS = ("numpy", "schoolbook", "strassen")
OUTPUTS = ("text", "json")


@dataclass(frozen=True)
class RunConfig:
    omega: float = 2.376
    seed: int = 0
    kernel: str = "numpy"
    mode: str = "auto"
    output: str = "text"
    verify: bool = False
    verify_bound: int = 128
    max_attempts: int = 20
    threads: int = 1
    trace: bool = False
    force_beta: float | None = None
    force_levels: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}")
        if self.output not in OUTPUTS:
            raise ValueError(f"output must be one of {OUTPUTS}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def with_(self, **kw) -> "RunConfig":
        return replace(self, **kw)


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


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name)


def config_from_env() -> RunConfig:
    """Defaults with environment overrides applied."""
    cfg = RunConfig()
    raw = _env("OMEGA")
    if raw is not None:
        cfg = cfg.with_(omega=float(raw))
    raw = _env("SEED")
    if raw is not None:
        cfg = cfg.with_(seed=int(raw))
    raw = _env("KERNEL")
    if raw is not None:
        cfg = cfg.with_(kernel=raw)
    raw = _env("MODE")
    if raw is not None:
        cfg = cfg.with_(mode=raw)
    raw = _env("THREADS")
    if raw is not None:
        cfg = cfg.with_(threads=int(raw))
    raw = _env("VERIFY")
    if raw is not None:
        cfg = cfg.with_(verify=raw.strip().lower() in ("1", "true", "yes", "on"))
    return cfg
