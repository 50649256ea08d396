"""The closed measurement loop and the metrics computed from it.

One caller, one thread: a unit starts only after the previous one and
its checks have finished.  A run draws a fixed number of units from the
seed (it follows from ``--seconds`` and never from a clock) and executes
all of them in two or more passes, as many as fit in ``--seconds``.
Each untraced execution of a unit is taken to the reference speed with
the calibration samples taken while it ran (see calibrate.py), and an
operation's time is the median over its executions.  Set-up is sampled
five times per pass, each taken to the reference speed with kernel
samples taken around it, and ``setup_s`` is the median of all samples.
Later passes must reproduce the first byte for byte.  Checks and set-ups
run with every wrapper removed, so neither their time nor their sessions
enter any figure.
"""

import hashlib
import resource
import time

import numpy as np

from calibrate import Calibrator, now
from instrument import Patcher, StageClock, Tracer, weight_bytes_per_pass
from workloads import SessionWorkload, run_unit

# Sizes a run's units: two passes and the first pass's checks fill
# ``--seconds`` at the slow-phase unit cost.  The clock sets the passes.
PLANNED_PASSES = 2.4
MIN_PASSES = 2  # pass 1 re-checks pass 0; a traced run traces pass 0 only
MAX_PASSES = 40
SETUPS_PER_PASS = 5  # set-up samples spread over each pass
# Set-up is interpreter-bound on every workload and slows as the
# calibration kernel does (fitted share 0.9-1.25), so it takes the
# kernel's slowdown in full rather than the workload's share.  A set-up
# lasts ~10 ms, less than the timer's interval, so it is scaled with
# kernel samples taken just before and after it.
SETUP_SHARE = 1.0
SETUP_SAMPLES = 2  # on each side of a set-up

# The tail is the highest of these percentiles with at least ten samples
# beyond it.  Below 20 samples the median stands in and says so.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values) -> tuple[float, float]:
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, float(np.percentile(values, pct))
    return 50.0, float(np.median(values))


def plan(workload, seconds: float) -> int:
    """Units per pass: whole cycles filling ``seconds / PLANNED_PASSES`` at the
    unit's slow-phase cost."""
    cycle_s = workload.unit_seconds * workload.cycle
    return max(1, round(seconds / (PLANNED_PASSES * cycle_s))) * workload.cycle


def digest(workload, op) -> str:
    return hashlib.sha256(workload.transcript(op).encode()).hexdigest()


def measure(workload, seed: int, seconds: float, trace: bool, spans_path: str | None = None):
    """Runs one workload; returns (end-to-end figures, per-layer figures, counts).

    Passes continue while the last pass would still fit in ``seconds``,
    with at least ``MIN_PASSES``.  A traced run traces its even passes;
    the tracing overhead compares each unit's fastest traced and fastest
    untraced execution, both raw.
    """
    units = plan(workload, seconds)
    inputs = [workload.inputs(seed, u) for u in range(units)]
    setup_unit = {k * units // SETUPS_PER_PASS for k in range(SETUPS_PER_PASS)}
    setups: list[float] = []  # at reference speed
    raw_setups: list[float] = []

    began = time.perf_counter()
    calibrator = Calibrator()
    clock = StageClock()
    tracer = Tracer() if trace else None
    best: list[list] = [None] * units
    fastest = {True: [float("inf")] * units, False: [float("inf")] * units}  # by traced
    unit_walls: list[list[float]] = [[] for _ in range(units)]  # untraced
    measured = 0.0
    digests: list[list[str]] = [None] * units
    state = None
    passes = 0
    if not trace:  # a traced run reports raw per-layer times and samples nothing
        calibrator.start()
    try:
        while True:
            pass_start = time.perf_counter()
            traced = trace and passes % 2 == 0
            for u in range(units):
                if u in setup_unit:
                    first_sample = len(calibrator.cost)
                    calibrator.sample(SETUP_SAMPLES)
                    start = now()
                    fresh = workload.setup()
                    took = now() - start
                    calibrator.sample(SETUP_SAMPLES)
                    setups.append(took * calibrator.scale(SETUP_SHARE, first_sample))
                    raw_setups.append(took)
                    state = state or fresh

                patcher = Patcher()
                clock.install(patcher)
                if traced:
                    tracer.install(patcher)
                first_sample = len(calibrator.cost)
                try:
                    wall, done, output, completed = run_unit(workload, state, inputs[u], clock)
                finally:
                    patcher.close()
                scale = calibrator.scale(workload.slowdown_share, first_sample)

                measured += wall
                fastest[traced][u] = min(fastest[traced][u], wall)
                if not traced:
                    unit_walls[u].append(wall * scale)
                if passes == 0:
                    best[u] = done
                    if completed:
                        if tracer is not None and isinstance(workload, SessionWorkload):
                            for op in done:
                                tracer.observe_session(op.result)
                        workload.check(state, inputs[u], done, u, output)
                        digests[u] = [digest(workload, op) for op in done]
                elif completed and digests[u] is not None:
                    if [digest(workload, op) for op in done] != digests[u]:
                        print(f"check failed: {workload.name} unit {u}: pass {passes} "
                              "does not reproduce pass 0")
                        for op in best[u]:
                            op.failed = True
                else:
                    for op in best[u]:
                        op.failed = True
                if completed and not traced and len(done) == len(best[u]):
                    for kept, op in zip(best[u], done):
                        kept.add_sample(op, scale)
                for op in done:
                    op.result = None
            passes += 1
            end = time.perf_counter()
            if passes >= MAX_PASSES:
                break
            if passes >= MIN_PASSES and end + (end - pass_start) > began + seconds:
                break
    finally:
        calibrator.stop()

    ops = [op for unit_ops in best for op in unit_ops]
    for op in ops:
        if op.samples:
            op.settle()
    end_to_end = end_to_end_metrics(workload, ops, unit_walls, setups, raw_setups)
    end_to_end["host_speed"] = calibrator.host()
    per_layer = None
    if tracer is not None:
        sessions = isinstance(workload, SessionWorkload)
        weight_bytes = weight_bytes_per_pass(state.weights) if sessions else 0
        per_layer = tracer.metrics((passes + 1) // 2 * len(ops), weight_bytes)
        traced, untraced = sum(fastest[True]), sum(fastest[False])
        per_layer["trace.overhead_ms"] = (traced - untraced) / len(ops) * 1e3
        per_layer["trace.overhead_ratio"] = traced / untraced - 1.0
        if spans_path:
            tracer.write(spans_path)
    counts = {
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "units": units,
        "passes": passes,
        "measured_s": measured,
        "calibration_samples": len(calibrator.cost),
        "calibration_s": calibrator.spent_s,
    }
    return end_to_end, per_layer, counts


def end_to_end_metrics(workload, ops, unit_walls, setups, raw_setups) -> dict:
    """Every end-to-end figure; BENCHMARK.json names the ones its bounds apply to.

    Operation and set-up times are at reference speed already; the
    ``raw_`` figures are as measured.
    """
    walls = np.array([op.wall_s for op in ops]) * 1e3
    slots = np.array([max(op.slots, 1) for op in ops])
    slot_ms = walls / slots
    raw_walls = np.array([op.raw_wall_s for op in ops]) * 1e3
    tail_pct, tail_ms = tail(walls)
    slot_tail_pct, slot_tail = tail(slot_ms)
    out = {
        "setup_s": float(np.median(setups)),
        "slots_per_s": sum(op.slots for op in ops) / float(walls.sum() / 1e3),
        "slot_ms_p50": float(np.median(slot_ms)),
        "raw_setup_s": float(np.median(raw_setups)),
        "raw_slots_per_s": sum(op.slots for op in ops) / float(raw_walls.sum() / 1e3),
        "raw_slot_ms_p50": float(np.median(raw_walls / slots)),
        "slot_ms_tail": slot_tail,
        "slot_tail_percentile": slot_tail_pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": len(ops) / sum(float(np.median(w)) for w in unit_walls),
        "op_ms_p50": float(np.median(walls)),
        "op_ms_tail": tail_ms,
        "op_tail_percentile": tail_pct,
        "samples": len(ops),
        "failed_ratio": sum(op.failed for op in ops) / len(ops),
    }
    if not isinstance(workload, SessionWorkload):
        out["records_per_s"] = out["ops_per_s"]
        return out
    sessions = [op for op in ops if op.paths]
    step_ms = np.array([op.reasoning_s / op.steps for op in sessions]) * 1e3
    step_pct, step_tail = tail(step_ms)
    out.update(
        {
            "sessions_per_s": out["ops_per_s"],
            "session_ms_p50": out["op_ms_p50"],
            "session_ms_tail": out["op_ms_tail"],
            "prefill_ms_p50": float(np.median([op.prefill_s for op in sessions])) * 1e3,
            "step_ms_p50": float(np.median(step_ms)),
            "step_ms_tail": step_tail,
            "step_tail_percentile": step_pct,
            "answer_tok_ms_p50": float(
                np.median([op.summary_s / op.answer_slots for op in sessions])
            ) * 1e3,
        }
    )
    cells: dict[tuple[int, int], list[float]] = {}
    session_ms: dict[str, list[float]] = {}
    slots: dict[str, int] = {}
    for op, ms in zip(sessions, step_ms):
        cells.setdefault((op.paths, op.budget), []).append(ms)
        key = f"P{op.paths}_B{op.budget}"
        session_ms.setdefault(key, []).append(op.wall_s * 1e3)
        slots[key] = slots.get(key, 0) + op.slots
    out["step_ms_by_cell"] = {
        f"P{p}_B{b}": float(np.median(v)) for (p, b), v in sorted(cells.items())
    }
    out["session_ms_by_cell"] = {k: float(np.median(v)) for k, v in sorted(session_ms.items())}
    out["slots_by_cell"] = slots
    ratios = [
        float(np.median(cells[(16, b)]) / np.median(cells[(1, b)]))
        for (p, b) in cells
        if p == 16 and (1, b) in cells
    ]
    if ratios:
        out["p16_step_ratio"] = float(np.mean(ratios))
    return out
