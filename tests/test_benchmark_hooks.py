"""Names that perfbench/ wraps or calls by attribute must keep resolving.

perfbench/instrument.py times each layer by replacing these attributes
(module globals and class attributes) from outside the package, and the
stage clock of every benchmark run wraps the session entry points.  A
rename here breaks the benchmark without failing any engine test.
"""

import importlib

import pytest

HOOKS = [
    ("parcot.engine", "GenerationSession.__init__"),
    ("parcot.engine", "prefill"),
    ("parcot.engine", "forward_step"),
    ("parcot.model", "forward_step"),
    ("parcot.model", "attend"),
    ("parcot.positional", "Rope.rotate"),
    ("parcot.kvcache", "PagedKVCache.gather"),
    ("parcot.kvcache", "PagedKVCache.append"),
    ("parcot.engine", "assemble_summary_view"),
    ("parcot.engine", "sample_token"),
    ("parcot.engine", "run_reasoning"),
    ("parcot.engine", "run_summarization"),
    ("parcot.harness", "run_budget_sweep"),
    ("parcot.harness", "run_session"),
    ("parcot.datagen", "build_sample"),
    ("parcot.datagen", "training_layout"),
    ("parcot.datagen", "build_reasoning_mask"),
    ("parcot.datagen", "build_summary_mask"),
    ("parcot.datagen", "encode"),
    ("parcot.kvcache", "SummaryContextView.segments"),
    ("parcot.kvcache", "SummaryContextView.total_slots"),
]


@pytest.mark.parametrize("module, name", HOOKS)
def test_hook_resolves(module, name):
    obj = importlib.import_module(module)
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
