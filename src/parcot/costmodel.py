"""Roofline-style latency model for batched parallel-path decoding.

A decode step is modeled as the slower of its memory and compute times:

    memory_time  = (bytes_per_weight_pass + P * kv_bytes_per_token_per_slot * L) / bandwidth
    compute_time = P * flops_per_token / throughput
    step_time    = max(memory_time, compute_time)

Weights are read once per step regardless of the path count P, so in the
weight-dominated regime decoding many paths costs little more than one.
``tokens_per_path`` (L) is the per-path context the step reads.
"""

import json
import math
from dataclasses import dataclass, fields
from importlib import resources

from .errors import ConfigError
from .tokenizer import is_real, is_token_int, read_text

PROFILE_FORMAT = "ptprofile-1"
DEFAULT_PROFILE_NAME = "decoder_1p5b_hbm.json"


@dataclass(frozen=True)
class CostModelParams:
    bytes_per_weight_pass: float
    kv_bytes_per_token_per_slot: float
    flops_per_token: float
    memory_bandwidth: float  # bytes/s
    compute_throughput: float  # flops/s
    paths: int
    tokens_per_path: int

    def __post_init__(self):
        """Figures must be finite positive reals, ``paths`` and
        ``tokens_per_path`` positive integers (``is_token_int``, so not a
        bool), stored as ``int``; a bool is no figure either."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int:
                if not is_token_int(value) or value < 1:
                    raise ConfigError(f"{f.name} must be a positive integer, got {value!r}")
                object.__setattr__(self, f.name, int(value))
            elif not (is_real(value) and math.isfinite(value) and value > 0):
                raise ConfigError(f"{f.name} must be finite and positive, got {value!r}")


# the profile keys params_from_profile reads: every figure of the model
PROFILE_FIGURES = tuple(f.name for f in fields(CostModelParams) if f.type is float)


def memory_time(params: CostModelParams) -> float:
    moved = (
        params.bytes_per_weight_pass
        + params.paths * params.kv_bytes_per_token_per_slot * params.tokens_per_path
    )
    return moved / params.memory_bandwidth


def compute_time(params: CostModelParams) -> float:
    return params.paths * params.flops_per_token / params.compute_throughput


def predict_step_time(params: CostModelParams) -> float:
    """Seconds for one decode step at a context of tokens_per_path slots."""
    return max(memory_time(params), compute_time(params))


def predict_decode_time(params: CostModelParams) -> float:
    """Seconds to decode tokens_per_path tokens on every path.

    Sums per-step roofline times while the context grows from 1 to L.
    """
    weight_t = params.bytes_per_weight_pass / params.memory_bandwidth
    kv_rate = params.paths * params.kv_bytes_per_token_per_slot / params.memory_bandwidth
    comp_t = compute_time(params)
    total = 0.0
    for context in range(1, params.tokens_per_path + 1):
        total += max(weight_t + kv_rate * context, comp_t)
    return total


def load_profile(path: str | None = None) -> dict:
    """Hardware/model byte and flop figures; default is the packaged profile.

    Every key of ``PROFILE_FIGURES`` must be there and be a JSON number (a
    bool or a string is none) that a float can hold; ``CostModelParams``
    then checks its value."""
    if path is None:
        text = (
            resources.files("parcot.profiles").joinpath(DEFAULT_PROFILE_NAME).read_text()
        )
    else:
        text = read_text(path)
    try:
        profile = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"profile {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(profile, dict) or profile.get("format") != PROFILE_FORMAT:
        raise ConfigError(f"profile {path!r} is not a {PROFILE_FORMAT} profile")
    for key in PROFILE_FIGURES:
        if key not in profile:
            raise ConfigError(f"profile {path!r} lacks {key!r}")
        if not is_real(profile[key]):
            raise ConfigError(f"profile {path!r}: {key} must be a number, got {profile[key]!r}")
        try:
            float(profile[key])
        except OverflowError:  # an integer past the float range
            raise ConfigError(f"profile {path!r}: {key} is too large for a float") from None
    return profile


def params_from_profile(profile: dict, paths: int, tokens_per_path: int) -> CostModelParams:
    figures = {key: float(profile[key]) for key in PROFILE_FIGURES}
    return CostModelParams(**figures, paths=paths, tokens_per_path=tokens_per_path)
