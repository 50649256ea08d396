"""Instrumentation installed from the benchmark's own files.

Every wrapper replaces a function at the name its caller looks it up by
(a module global such as ``parcot.engine.forward_step``, or a class
attribute such as ``PagedKVCache.gather``) and the originals are put
back on close.  Nothing under ``src/parcot`` is edited.

Two instruments exist:

* ``StageClock`` times each session's three stages.  It is installed in
  every run, traced or not; it costs two clock reads per stage.
* ``Tracer`` records a span around every call into each layer and a few
  counts at the same boundaries.  It is installed only in traced runs.
"""

import time
from array import array
from dataclasses import dataclass

import numpy as np

from calibrate import now
from parcot import datagen, engine, harness, kvcache, model, positional
from parcot.positional import ANSWER


class Patcher:
    """Replaces attributes and restores the originals on ``close``."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def close(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass
class SessionTiming:
    session: object
    start: float
    prefill_s: float
    reasoning_s: float = 0.0
    summary_s: float = 0.0
    end: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class StageClock:
    """Per-session wall time split into prefill, reasoning and summarization.

    Prefill is the construction of ``GenerationSession`` (the prompt is
    prefilled there); the session's wall time runs from the start of its
    construction to the end of its summarization.
    """

    def __init__(self):
        self.sessions: list[SessionTiming] = []
        self._open: dict[int, SessionTiming] = {}

    def install(self, patcher: Patcher) -> None:
        patcher.wrap(engine.GenerationSession, "__init__", self._wrap_init)
        patcher.wrap(engine, "run_reasoning", self._wrap_stage("reasoning_s"))
        patcher.wrap(engine, "run_summarization", self._wrap_stage("summary_s"))

    def take(self) -> list[SessionTiming]:
        """Completed sessions since the last call, in construction order."""
        done = [t for t in self.sessions if t.end]
        self.sessions = []
        self._open = {}
        return done

    def _wrap_init(self, original):
        clock = now

        def timed_init(session, *args, **kwargs):
            start = clock()
            original(session, *args, **kwargs)
            timing = SessionTiming(session, start, clock() - start)
            self.sessions.append(timing)
            self._open[id(session)] = timing

        return timed_init

    def _wrap_stage(self, field_name):
        clock = now
        ends_session = field_name == "summary_s"

        def make(original):
            def timed_stage(session, *args, **kwargs):
                start = clock()
                result = original(session, *args, **kwargs)
                stop = clock()
                timing = self._open[id(session)]
                setattr(timing, field_name, stop - start)
                if ends_session:
                    timing.end = stop
                return result

            return timed_stage

        return make


def _arrays_reachable(obj, depth=6, seen=None):
    """Every ndarray held by ``obj`` through attributes, lists and dicts."""
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if depth == 0:
        return
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif hasattr(obj, "__dict__"):
        children = vars(obj).values()
    else:
        return
    for child in children:
        yield from _arrays_reachable(child, depth - 1, seen)


def cache_storage_bytes(cache) -> int:
    return sum(a.nbytes for a in _arrays_reachable(cache))


def _is_copy(result: np.ndarray, cache) -> bool:
    """True when ``result`` shares no memory with the cache's storage."""
    if result.base is None and result.size:
        return True  # owns its buffer, so it cannot alias cache storage
    return not any(np.shares_memory(result, a) for a in _arrays_reachable(cache))


def weight_bytes_per_pass(weights) -> int:
    """Weight bytes one forward invocation reads, from the tensor sizes.

    Every layer matrix and norm, the final norm and the head are read in
    full; the embedding contributes one row.
    """
    total = weights.final_norm.nbytes + weights.head.nbytes
    total += weights.embedding.nbytes // weights.embedding.shape[0]
    for layer in weights.layers:
        total += sum(t.nbytes for t in vars(layer).values())
    return total


# (owner, attribute, span name).  Two entries share a span name where one
# function is looked up under two names.
TRACED = (
    (engine.GenerationSession, "__init__", "engine.session_init"),
    (engine, "prefill", "model.prefill"),
    (engine, "forward_step", "model.forward_step"),
    (model, "forward_step", "model.forward_step"),
    (model, "attend", "model.attend"),
    (positional.Rope, "rotate", "positional.rotate"),
    (kvcache.PagedKVCache, "gather", "kvcache.gather"),
    (kvcache.PagedKVCache, "append", "kvcache.append"),
    (engine, "assemble_summary_view", "kvcache.summary_view"),
    (engine, "sample_token", "engine.sample_token"),
    (engine, "run_reasoning", "engine.reasoning"),
    (engine, "run_summarization", "engine.summarization"),
    (harness, "run_budget_sweep", "harness.run_budget_sweep"),
    (harness, "run_session", "harness.run_session"),
    (datagen, "build_sample", "datagen.build_sample"),
    (datagen, "training_layout", "datagen.training_layout"),
    (datagen, "build_reasoning_mask", "masking.build_reasoning_mask"),
    (datagen, "build_summary_mask", "masking.build_summary_mask"),
    (datagen, "encode", "tokenizer.encode"),
)

# Spans that open a new operation: a session, or a datagen record.
NEW_OPERATION = ("engine.session_init", "datagen.build_sample")


class Tracer:
    """Spans kept in memory: name, start, end, parent span and operation id.

    Spans live in flat typed arrays so a traced run of a few hundred
    thousand spans stays small.  Counts that need arguments or results
    (bytes gathered, slots re-prefilled, mask bytes) are taken in the
    same wrappers.
    """

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._op_id = -1
        self._session_op: dict[int, int] = {}
        self.counts = dict.fromkeys(
            (
                "gather_bytes",
                "gather_copied_bytes",
                "reprefill_slots",
                "summary_view_slots",
                "mask_bytes",
                "datagen_tokens",
                "prompt_slots",
                "redundant_prompt_slots",
            ),
            0,
        )
        self.session_stats: list[dict] = []

    def install(self, patcher: Patcher) -> None:
        after = {
            "kvcache.gather": self._after_gather,
            "kvcache.append": self._after_append,
            "kvcache.summary_view": self._after_summary_view,
            "masking.build_reasoning_mask": self._after_mask,
            "masking.build_summary_mask": self._after_mask,
            "datagen.training_layout": self._after_layout,
            "harness.run_budget_sweep": self._after_sweep,
        }
        for owner, attr, name in TRACED:
            patcher.wrap(
                owner,
                attr,
                lambda fn, name=name: self._span(fn, name, after.get(name)),
            )

    def _span(self, fn, name, after):
        code = self._codes.setdefault(name, len(self._codes))
        if code == len(self.names):
            self.names.append(name)
        new_op = name in NEW_OPERATION
        is_init = name == "engine.session_init"
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            if new_op:
                self._op_id += 1
                if is_init:
                    self._session_op[id(args[0])] = self._op_id
            idx = len(self.code)
            self.code.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op_id)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counts taken at the layer boundaries --------------------------------

    def _after_gather(self, args, result):
        cache = args[0]
        for part in result[:2]:
            self.counts["gather_bytes"] += part.nbytes
            if _is_copy(part, cache):
                self.counts["gather_copied_bytes"] += part.nbytes

    def _after_append(self, args, result):
        segment = args[1]
        if segment != ANSWER and self._inside("engine.summarization"):
            self.counts["reprefill_slots"] += 1

    def _after_summary_view(self, args, result):
        self.counts["summary_view_slots"] += result.total_slots()

    def _after_mask(self, args, result):
        self.counts["mask_bytes"] += result.visible.nbytes

    def _after_layout(self, args, result):
        self.counts["mask_bytes"] += result.mask.visible.nbytes
        self.counts["datagen_tokens"] += len(result.tokens)

    def _after_sweep(self, args, result):
        _, transcripts = result
        cells: dict[tuple, list[list[int]]] = {}
        for entry in transcripts:
            key = entry["key"]
            cells.setdefault((key[2], key[3], key[4]), []).append(entry["record"]["prompt"])
        for prompts in cells.values():
            total = sum(len(p) for p in prompts)
            unique = sum(len(p) for p in {tuple(p) for p in prompts})
            self.counts["prompt_slots"] += total
            self.counts["redundant_prompt_slots"] += total - unique

    def _inside(self, name) -> bool:
        code = self._codes[name]
        return any(self.code[i] == code for i in self._stack)

    def observe_session(self, session) -> None:
        """Record a finished session's shape and its cache's size."""
        cfg = session.weights.config
        slot_bytes = 2 * cfg.n_layers * cfg.n_heads * cfg.d_k * 4  # K and V, float32
        written = session.l_x + sum(len(p.tokens) for p in session.paths)
        written += len(session.answer_tokens)
        self.session_stats.append(
            {
                "op": self._session_op.pop(id(session)),
                "paths": session.num_paths,
                "reasoning_len": session.reasoning_len,
                "body_fed": sum(len(p.tokens) - 2 for p in session.paths),
                "body": sum(p.body_length() for p in session.paths),
                "path_slots": sum(len(p.tokens) for p in session.paths),
                "reserved_bytes": cache_storage_bytes(session.cache),
                "used_bytes": written * slot_bytes,
            }
        )

    # -- results -------------------------------------------------------------

    def span_table(self) -> dict[str, np.ndarray]:
        code = np.frombuffer(self.code, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        duration = end - start
        child = np.zeros(len(code), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "code": code,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start_ns": start,
            "end_ns": end,
            "self_ns": duration - child,
        }

    def write(self, path: str) -> None:
        table = self.span_table()
        np.savez(path, names=np.array(self.names), **table)

    def metrics(self, num_ops: int, weight_bytes: int) -> dict[str, float]:
        """Per-layer figures, normalised per operation where they are totals.

        ``weight_bytes`` is what one forward invocation reads.
        """
        table = self.span_table()
        code, parent = table["code"], table["parent"]
        duration = table["end_ns"] - table["start_ns"]
        per_op = 1.0 / max(num_ops, 1)

        def mask(name):
            c = self._codes.get(name)
            return code == c if c is not None else np.zeros(len(code), dtype=bool)

        def calls(name):
            return float(mask(name).sum()) * per_op

        def total_ms(name):
            return float(duration[mask(name)].sum()) / 1e6 * per_op

        def self_ms(name):
            return float(table["self_ns"][mask(name)].sum()) / 1e6 * per_op

        # forward invocations during each session's reasoning stage
        forward = mask("model.forward_step")
        in_reasoning = np.zeros(len(code), dtype=bool)
        has_parent = parent >= 0
        in_reasoning[has_parent] = mask("engine.reasoning")[parent[has_parent]]
        ops, counts = np.unique(table["op"][forward & in_reasoning], return_counts=True)
        reasoning_calls = dict(zip(ops.tolist(), counts.tolist()))

        stats = self.session_stats
        widest = max((s["paths"] for s in stats), default=0)
        wide = [s for s in stats if s["paths"] == widest]
        steps = sum(s["reasoning_len"] - 2 for s in stats)
        sweeps = float(mask("harness.run_budget_sweep").sum())
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "model.weight_passes_per_step": ratio(
                sum(reasoning_calls.get(s["op"], 0) for s in wide),
                sum(s["reasoning_len"] for s in wide),
            ),
            "model.weight_passes_per_path_step": ratio(
                sum(reasoning_calls.get(s["op"], 0) for s in stats),
                sum(s["reasoning_len"] * s["paths"] for s in stats),
            ),
            "model.forward_step.calls": calls("model.forward_step"),
            "model.forward_step.self_ms": self_ms("model.forward_step"),
            "model.attend.calls": calls("model.attend"),
            "model.attend.ms": total_ms("model.attend"),
            "model.prefill.ms": total_ms("model.prefill"),
            "model.weight_bytes_read": calls("model.forward_step") * weight_bytes,
            "positional.rotate.calls": calls("positional.rotate"),
            "positional.rotate.ms": total_ms("positional.rotate"),
            "kvcache.gather.calls": calls("kvcache.gather"),
            "kvcache.gather.ms": total_ms("kvcache.gather"),
            "kvcache.gather_bytes": c["gather_bytes"] * per_op,
            "kvcache.gather_copied_bytes": c["gather_copied_bytes"] * per_op,
            "kvcache.append.calls": calls("kvcache.append"),
            "kvcache.append.ms": total_ms("kvcache.append"),
            "kvcache.reserved_bytes": ratio(
                sum(s["reserved_bytes"] for s in stats), len(stats)
            ),
            "kvcache.used_bytes": ratio(sum(s["used_bytes"] for s in stats), len(stats)),
            "kvcache.summary_view.ms": total_ms("kvcache.summary_view"),
            "kvcache.summary_view_slots": c["summary_view_slots"] * per_op,
            "kvcache.reprefill_slots": c["reprefill_slots"] * per_op,
            "engine.session_setup.ms": self_ms("engine.session_init"),
            "engine.sample_token.calls": calls("engine.sample_token"),
            "engine.sample_token.ms": total_ms("engine.sample_token"),
            "engine.reasoning.self_ms": self_ms("engine.reasoning"),
            "engine.summarization.self_ms": self_ms("engine.summarization"),
            "engine.reasoning_steps": ratio(steps, len(stats)),
            "engine.active_paths_mean": ratio(sum(s["body_fed"] for s in stats), steps),
            "engine.useful_slot_ratio": ratio(
                sum(s["body"] for s in stats), sum(s["path_slots"] for s in stats)
            ),
            "harness.run_budget_sweep.self_ms": self_ms("harness.run_budget_sweep"),
            "harness.sessions": ratio(float(mask("harness.run_session").sum()), sweeps),
            "harness.redundant_prefill_ratio": ratio(
                c["redundant_prompt_slots"], c["prompt_slots"]
            ),
            "masking.build_reasoning_mask.ms": total_ms("masking.build_reasoning_mask"),
            "masking.build_summary_mask.ms": total_ms("masking.build_summary_mask"),
            "masking.mask_bytes": c["mask_bytes"] * per_op,
            "datagen.build_sample.ms": total_ms("datagen.build_sample"),
            "datagen.training_layout.self_ms": self_ms("datagen.training_layout"),
            "datagen.tokens": c["datagen_tokens"] * per_op,
            "tokenizer.encode.ms": total_ms("tokenizer.encode"),
        }
