"""Parallel chain-of-thought decoding engine with KV-cache reuse.

A desk-scale implementation of native parallel thinking: P reasoning
paths decoded in lockstep behind path-isolating attention masks and
shared positions, distinguished by per-path thought embeddings folded
into every cached key/value, then a summarization stage that reuses the
reasoning-phase KV storage directly to produce one answer.
"""

from .engine import (
    EvalReport,
    GenerationBudget,
    GenerationSession,
    SamplerConfig,
    Termination,
    majority_vote,
    pass_at_1,
    run_reasoning,
    run_session,
    run_summarization,
    sample_token,
)
from .errors import EngineError
from .model import ModelConfig, ModelWeights, forward_step, init_weights, prefill
from .positional import ThoughtEmbeddingTable, init_thought_table
from .tokenizer import Vocab, decode, encode

__all__ = [
    "EngineError",
    "EvalReport",
    "GenerationBudget",
    "GenerationSession",
    "ModelConfig",
    "ModelWeights",
    "SamplerConfig",
    "Termination",
    "ThoughtEmbeddingTable",
    "Vocab",
    "decode",
    "encode",
    "forward_step",
    "init_thought_table",
    "init_weights",
    "majority_vote",
    "pass_at_1",
    "prefill",
    "run_reasoning",
    "run_session",
    "run_summarization",
    "sample_token",
]

__version__ = "0.1.0"
