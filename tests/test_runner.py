"""The harness's session runner, as every experiment uses it.

One prompt is prefilled once per experiment, however many times the
experiment names it, and the outputs equal those of a run in which every
session prefills.  Each experiment checks its whole grid (budgets, path
counts, prompts and forced prefixes) before its first session, so a bad
value late in the grid is refused before any session is built.
"""

import pytest

from parcot import engine, harness
from parcot.errors import ConfigError, DataError, PositionOverflowError
from parcot.harness import run_experiment

from test_prompt_sharing import count_prefills, experiment_configs, unshared

GOOD = [104, 105, 33]


def count_sessions(monkeypatch):
    """Record each ``GenerationSession`` construction; returns the list."""
    built = []
    init = engine.GenerationSession.__init__

    def counted(session, *args, **kwargs):
        built.append(args)
        init(session, *args, **kwargs)

    monkeypatch.setattr(engine.GenerationSession, "__init__", counted)
    return built


def with_prompts(name, prompts):
    """The experiment's config from ``experiment_configs`` on ``prompts``."""
    config, _ = experiment_configs()[name]
    if name == "prefix":
        return dict(config, traces=[{"prompt": p, "body": [65, 66, 67, 68]} for p in prompts])
    return dict(config, prompts=prompts)


@pytest.mark.parametrize("name", ["sweep", "prefix", "terminate"])
def test_a_repeated_prompt_is_prefilled_once(monkeypatch, name):
    config = with_prompts(name, [GOOD, list(GOOD)])
    with monkeypatch.context() as patch:
        calls = count_prefills(patch)
        records, transcripts = run_experiment(name, config)
    assert len(calls) == 1

    with monkeypatch.context() as patch:
        unshared(patch)
        calls = count_prefills(patch)
        again = run_experiment(name, config)
    assert len(calls) == len(transcripts)
    assert harness.records_csv_text(name, config, records) == harness.records_csv_text(
        name, config, again[0]
    )
    assert harness.transcripts_text(transcripts) == harness.transcripts_text(again[1])


@pytest.mark.parametrize("grid, message", [
    (dict(budgets=[2, 0], allocation="per-path-budget"),
     "path budget must be an integer of at least 1, got 0"),
    (dict(paths=[1, 0]), "need at least one path"),
    (dict(paths=[1, 17], allocation="per-path-budget"), "P=17 exceeds P_max=16"),
], ids=["zero-budget", "zero-paths", "paths-past-p-max"])
def test_a_sweep_grid_is_refused_before_its_first_session(monkeypatch, grid, message):
    config = dict(with_prompts("sweep", [GOOD]), **grid)
    built = count_sessions(monkeypatch)
    with pytest.raises(ConfigError, match=message):
        run_experiment("sweep", config)
    assert built == []


BAD_PROMPTS = [
    ([104, 999], DataError, "token id 999 at offset 1 outside vocab of size 292"),
    ([], DataError, "prompt must contain at least one token"),
    ([104] * 4097, PositionOverflowError, "prompt would reach position 4097"),
]


@pytest.mark.parametrize("name", ["sweep", "prefix", "terminate"])
@pytest.mark.parametrize("bad, error, message", BAD_PROMPTS,
                         ids=["id-outside-vocab", "empty", "past-max-position"])
def test_a_bad_second_prompt_is_refused_before_the_first_session(
    monkeypatch, name, bad, error, message
):
    config = with_prompts(name, [GOOD, bad])
    built = count_sessions(monkeypatch)
    with pytest.raises(error, match=message):
        run_experiment(name, config)
    assert built == []


def test_a_bad_forced_prefix_is_refused_before_the_first_session(monkeypatch):
    config = with_prompts("prefix", [GOOD, GOOD])
    config["traces"][1]["body"] = [65, 999, 67, 68]  # inside prefix 2 of trace 1
    built = count_sessions(monkeypatch)
    with pytest.raises(DataError, match="token id 999 at offset 1 outside vocab of size 292"):
        run_experiment("prefix", config)
    assert built == []
