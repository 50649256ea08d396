"""The benchmark's four workloads: inputs from a seed, the timed work, and
the checks on its outputs.

Every workload uses the CLI's toy model (model seed 1, table seed 2,
P_max 16).  A workload runs in *units*: the inputs of unit ``i`` come
from ``(seed, i)`` alone.  ``cycle`` units make one balanced mix, and a
run always holds whole cycles.
"""

from dataclasses import dataclass, field

import numpy as np

from calibrate import now
from instrument import SessionTiming
from parcot import datagen, engine, harness
from parcot.cli import TOY_MODEL
from parcot.datagen import RawProblem, parse_sample, training_record
from parcot.engine import (
    GenerationBudget,
    SamplerConfig,
    Termination,
    canonical_json,
    session_record,
)
from parcot.errors import EngineError
from parcot.positional import ANSWER, PROMPT, path_key
from parcot.tokenizer import Vocab, encode

MODEL_CONFIG = {
    "model": TOY_MODEL,
    "model_seed": 1,
    "table_seed": 2,
    "vocab": {"base_size": 256, "p_max": 16},
}

GREEDY = SamplerConfig(greedy=True)

TIMES = ("wall_s", "prefill_s", "reasoning_s", "summary_s")


@dataclass
class Op:
    """One measured operation: a session, or one datagen record.

    The times are seconds, raw for one execution and, after ``settle``,
    medians over the executions at reference speed (see calibrate.py);
    ``raw_wall_s`` is then the median as measured.
    """

    wall_s: float
    slots: int  # KV slots written, or serialized training slots
    failed: bool = False
    paths: int = 0
    budget: int = 0
    prefill_s: float = 0.0
    reasoning_s: float = 0.0
    steps: int = 0
    summary_s: float = 0.0
    answer_slots: int = 0
    raw_wall_s: float = 0.0
    # the session, or (sample, layout); dropped after the checks
    result: object = field(default=None, repr=False)
    samples: list = field(default_factory=list, repr=False)
    raw_samples: list = field(default_factory=list, repr=False)

    def add_sample(self, execution: "Op", scale: float) -> None:
        """Keeps one execution's times, taken to reference speed by ``scale``."""
        self.samples.append([getattr(execution, t) * scale for t in TIMES])
        self.raw_samples.append(execution.wall_s)

    def settle(self) -> None:
        """Every time becomes its median over the executions."""
        medians = np.median(np.array(self.samples), axis=0).tolist()
        for name, value in zip(TIMES, medians):
            setattr(self, name, value)
        self.raw_wall_s = float(np.median(self.raw_samples))


def session_op(timing: SessionTiming) -> Op:
    s = timing.session
    return Op(
        wall_s=timing.wall_s,
        slots=s.l_x + sum(len(p.tokens) for p in s.paths) + len(s.answer_tokens),
        paths=s.num_paths,
        budget=s.budget.max_path_tokens,
        prefill_s=timing.prefill_s,
        reasoning_s=timing.reasoning_s,
        steps=s.reasoning_len - 2,  # opener and closer are not decode steps
        summary_s=timing.summary_s,
        answer_slots=len(s.answer_tokens),
        result=s,
    )


def unit_rng(seed: int, unit: int) -> np.random.Generator:
    return np.random.default_rng((seed, unit))


def random_prompt(rng: np.random.Generator, length: int) -> list[int]:
    return rng.integers(0, 256, size=length).tolist()


def session_problems(session) -> list[str]:
    """Invariants every finished session must satisfy."""
    problems = []
    cache = session.cache
    if cache.length(PROMPT) != session.l_x:
        problems.append(f"prompt cache holds {cache.length(PROMPT)} slots, prompt has {session.l_x}")
    for p in session.paths:
        if cache.length(path_key(p.index)) != len(p.tokens):
            problems.append(f"path {p.index} cache length != its {len(p.tokens)} tokens")
    if cache.length(ANSWER) != len(session.answer_tokens):
        problems.append("answer cache length != answer tokens")
    if session.strategy is Termination.FIRST_FINISH:
        if len({len(p.tokens) for p in session.paths}) != 1:
            problems.append("first-finish paths have unequal lengths")
    view = session.summary_view
    segments = [PROMPT] + [path_key(i) for i in range(session.num_paths)] + [ANSWER]
    written = session.l_x + sum(len(p.tokens) for p in session.paths)
    written += len(session.answer_tokens)
    if view.segments() != segments or view.total_slots() != written:
        problems.append("summary view does not cover exactly the written slots")
    return problems


def replay_problem(bundle, session, index: int) -> str | None:
    """Path-isolation oracle: path ``index`` decoded alone gives the same tokens.

    The single-path replay runs exactly as many steps as the session did,
    so its closer lands where the session's did.
    """
    path = session.paths[index]
    alone = engine.GenerationSession(
        bundle.weights, bundle.table, bundle.vocab, session.prompt_tokens, 1,
        think_labels=[path.think_label], seed=session.seed,
    )
    engine.run_reasoning(alone, GREEDY, GenerationBudget(session.reasoning_len - 2, 1))
    if alone.paths[0].tokens != path.tokens:
        return f"path {index} differs from its single-path replay"
    return None


class SessionWorkload:
    """Workloads whose operations are engine sessions, seen by the stage clock.

    Every workload's ``unit_seconds`` is a unit's cost on the reference
    host in a slow phase; it only sizes a run and never changes what a
    unit computes.  Its ``slowdown_share`` is the share of the
    calibration kernel's slowdown its code suffers on that host (see
    calibrate.py), fitted over 15-17 runs that ran between 1.1x and 2.3x
    slower than full speed.
    """

    cycle = 1

    def setup(self):
        bundle = harness.bundle_from_config(MODEL_CONFIG)
        engine.run_session(  # fills lazy caches before anything is timed
            bundle.weights, bundle.table, bundle.vocab, [1, 2, 3, 4], 2,
            GREEDY, GenerationBudget(4, 2),
        )
        return bundle

    def collect(self, output, clock):
        return [session_op(t) for t in clock.take()]

    def transcript(self, op) -> str:
        return canonical_json(session_record(op.result))


class EngineWorkload(SessionWorkload):
    """Greedy first-finish sessions over a fixed list of (P, B) cells."""

    def __init__(self, name, why, cells, prompt_len, max_answer, unit_seconds, slowdown_share):
        self.name = name
        self.why = why
        self.cells = tuple(cells)
        self.prompt_len = prompt_len
        self.max_answer = max_answer
        self.unit_seconds = unit_seconds
        self.slowdown_share = slowdown_share

    def inputs(self, seed, unit):
        rng = unit_rng(seed, unit)
        return [
            {"prompt": random_prompt(rng, self.prompt_len), "paths": p, "budget": b,
             "seed": int(rng.integers(2**31)), "replay": int(rng.integers(p))}
            for p, b in self.cells
        ]

    def run(self, bundle, inputs):
        for item in inputs:
            engine.run_session(
                bundle.weights, bundle.table, bundle.vocab, item["prompt"], item["paths"],
                GREEDY, GenerationBudget(item["budget"], self.max_answer), seed=item["seed"],
            )

    def check(self, bundle, inputs, ops, unit, output):
        for item, op in zip(inputs, ops):
            problems = session_problems(op.result)
            problem = replay_problem(bundle, op.result, item["replay"])
            if problem:
                problems.append(problem)
            op.failed = bool(problems)
            report(self.name, unit, problems)


class Sweep(SessionWorkload):
    """``harness.run_budget_sweep`` rounds cycling first, half and last finish."""

    name = "sweep"
    why = (
        "many short sampled sessions: P=1 majority baselines re-prefilling one prompt, "
        "EOS stops and frozen paths; per-session setup, writes and sampling dominate"
    )
    strategies = (Termination.FIRST_FINISH, Termination.HALF_FINISH, Termination.LAST_FINISH)
    cycle = len(strategies)
    unit_seconds = 3.5
    slowdown_share = 1.5  # thousands of tiny numpy calls slow more than the kernel

    def __init__(self, budgets=(16, 32, 64), paths=(1, 2, 4, 8), prompt_len=32, max_answer=8):
        self.budgets = list(budgets)
        self.paths = list(paths)
        self.prompt_len = prompt_len
        self.max_answer = max_answer
        self.sampler = SamplerConfig(temperature=0.7)

    def inputs(self, seed, unit):
        rng = unit_rng(seed, unit)
        return {
            "prompt": random_prompt(rng, self.prompt_len),
            "strategy": self.strategies[unit % self.cycle],
            "seed": int(rng.integers(2**31)),
            "recheck": (int(rng.choice(self.budgets)), int(rng.choice(self.paths))),
        }

    def _sweep(self, bundle, inputs, budgets, paths):
        return harness.run_budget_sweep(
            bundle, [inputs["prompt"]], budgets, paths, self.sampler,
            strategy=inputs["strategy"], allocation="total-budget-split",
            max_answer_tokens=self.max_answer, seed=inputs["seed"], workers=1,
        )

    def run(self, bundle, inputs):
        return self._sweep(bundle, inputs, self.budgets, self.paths)

    def check(self, bundle, inputs, ops, unit, output):
        for op in ops:
            problems = session_problems(op.result)
            op.failed = bool(problems)
            report(self.name, unit, problems)
        if unit == 0:
            budget, paths = inputs["recheck"]
            if not self._cell_reproduces(bundle, inputs, output, budget, paths):
                report(self.name, unit, [f"cell B={budget} P={paths} does not reproduce"])
                for op in self._cell_ops(ops, budget, paths):
                    op.failed = True

    def _cell_ops(self, ops, budget, paths):
        """The cell's sessions: cells run in order, each one parallel session
        followed by its P majority sessions."""
        start = 0
        for b in self.budgets:
            for p in self.paths:
                if (b, p) == (budget, paths):
                    return ops[start : start + 1 + p]
                start += 1 + p
        return []

    def _cell_reproduces(self, bundle, inputs, output, budget, paths) -> bool:
        records, transcripts = output
        mine = [r for r in records if (r["budget"], r["paths"]) == (budget, paths)]
        mine_tr = [t for t in transcripts if tuple(t["key"][2:4]) == (budget, paths)]
        again, again_tr = self._sweep(bundle, inputs, [budget], [paths])
        config = {"budget": budget, "paths": paths, "seed": inputs["seed"]}
        return (
            harness.records_csv_text("sweep", config, mine)
            == harness.records_csv_text("sweep", config, again)
            and harness.transcripts_text(mine_tr) == harness.transcripts_text(again_tr)
        )


LETTERS = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz      ", dtype=np.uint8)


class Datagen:
    """``build_sample`` plus ``training_layout`` over seed-generated problems."""

    name = "datagen"
    why = (
        "SFT records of up to ~3,500 slots; the only workload that runs masking and "
        "datagen, so the O(N) visibility change shows here and nowhere else"
    )
    cycle = 1
    unit_seconds = 0.16
    slowdown_share = 0.6  # the N x N masks are memory-bound
    candidates = 6  # teacher paths per problem

    def __init__(self, shapes=((2, 400), (4, 420), (6, 560)), query_len=32, answer_len=16):
        self.shapes = tuple(shapes)  # (P-hat, mean path length in bytes)
        self.query_len = query_len
        self.answer_len = answer_len

    def setup(self):
        vocab = Vocab(**MODEL_CONFIG["vocab"])
        problem = RawProblem("warm", "up", ("ab", "cd"))
        datagen.training_layout(datagen.build_sample(problem, vocab, p_hat=2), vocab)
        return vocab

    @staticmethod
    def _text(rng, length):
        return bytes(rng.choice(LETTERS, size=length)).decode("ascii")

    def inputs(self, seed, unit):
        rng = unit_rng(seed, unit)
        items = []
        for p_hat, mean_len in self.shapes:
            spread = mean_len // 20
            problem = RawProblem(
                query=self._text(rng, self.query_len),
                answer=self._text(rng, self.answer_len),
                paths=tuple(
                    self._text(rng, mean_len + int(rng.integers(-spread, spread + 1)))
                    for _ in range(self.candidates)
                ),
            )
            items.append({"problem": problem, "p_hat": p_hat, "seed": int(rng.integers(2**31))})
        return items

    def run(self, vocab, inputs):
        clock = now
        ops = []
        for item in inputs:
            start = clock()
            sample = datagen.build_sample(item["problem"], vocab, p_hat=item["p_hat"],
                                          seed=item["seed"])
            layout = datagen.training_layout(sample, vocab)
            ops.append(Op(wall_s=clock() - start, slots=len(layout.tokens),
                          result=(sample, layout)))
        return ops

    def collect(self, output, clock):
        return output

    def transcript(self, op) -> str:
        sample, layout = op.result
        record = training_record(sample, layout)
        record["positions"] = layout.positions.tolist()
        return canonical_json(record)

    def check(self, vocab, inputs, ops, unit, output):
        for op in ops:
            sample, layout = op.result
            problems = []
            parsed = parse_sample(sample.tokens, vocab)
            bodies = [tuple(encode(t, vocab, markup=False)) for t in sample.chosen_paths]
            if [label for label, _ in parsed.paths] != list(sample.think_labels):
                problems.append("think labels do not round-trip")
            if [body for _, body in parsed.paths] != bodies:
                problems.append("path bodies do not round-trip")
            if parsed.answer != tuple(encode(sample.answer_text, vocab, markup=False)):
                problems.append("answer does not round-trip")
            n = len(layout.tokens)
            lengths = {len(layout.positions), len(layout.thought_indices), len(layout.loss_mask)}
            if lengths != {n} or layout.mask.size != n:
                problems.append("token, position, loss and mask lengths differ")
            op.failed = bool(problems)
            report(self.name, unit, problems)


def report(workload, unit, problems):
    for problem in problems:
        print(f"check failed: {workload} unit {unit}: {problem}")


WORKLOADS = {
    "lockstep": EngineWorkload(
        "lockstep",
        "greedy first-finish sessions over P in {1,4,16} x B in {32,128}; reasoning "
        "dominates, so per-path dispatch, attend and path gathers show here",
        cells=[(p, b) for p in (1, 4, 16) for b in (32, 128)],
        prompt_len=32,
        max_answer=16,
        unit_seconds=2.5,
        slowdown_share=1.2,
    ),
    "long_context": EngineWorkload(
        "long_context",
        "768-token prompts with P=8, B=16 and a 64-token answer over ~1,100 slots; "
        "prefill and summarization dominate, reasoning is small",
        cells=[(8, 16)],
        prompt_len=768,
        max_answer=64,
        unit_seconds=1.7,
        slowdown_share=1.1,
    ),
    "sweep": Sweep(),
    "datagen": Datagen(),
}


def run_unit(workload, state, inputs, clock):
    """Runs one unit; returns (wall time, operations, raw output, completed)."""
    start = now()
    try:
        output = workload.run(state, inputs)
    except EngineError as exc:
        print(f"check failed: {workload.name}: unit raised {exc!r}")
        clock.take()
        return now() - start, [Op(wall_s=0.0, slots=0, failed=True)], None, False
    wall = now() - start
    return wall, workload.collect(output, clock), output, True
