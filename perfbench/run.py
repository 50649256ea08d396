"""parcot's benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload lockstep --seed 1 --seconds 10 --trace 0

Runs the workload in a closed loop with a single caller (the engine is
offline and has no arrival schedule) for ``--seconds`` of timed work,
checks every output, prints each metric by name and unit, and ends with
one JSON line {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are BENCHMARK.json's end-to-end metrics; with
``--trace 1`` they are its per-layer metrics, taken from spans recorded
around the calls into each module.  A run also writes its full result
and, when traced, its spans under perfbench/out/.

Workloads: lockstep, long_context, sweep, datagen (see NOTES.md).
"""

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Which end-to-end metric, on which workload, each per-layer metric should
# move.  sessions_per_s / records_per_s are ops_per_s on the engine
# workloads / on datagen; the stage metrics (prefill_ms_p50, step_ms_p50,
# answer_tok_ms_p50, p16_step_ratio) are printed by every untraced run.
MOVES = {
    "model.weight_passes_per_step": "step_ms_p50 and p16_step_ratio on lockstep (P today, 1 batched)",
    "model.weight_passes_per_path_step": "step_ms_p50 and p16_step_ratio on lockstep",
    "model.forward_step.calls": "step_ms_p50 on lockstep",
    "model.forward_step.self_ms": "step_ms_p50 on lockstep (projections, FFN, head)",
    "model.attend.calls": "step_ms_p50 on lockstep, answer_tok_ms_p50 on long_context",
    "model.attend.ms": "step_ms_p50 on lockstep, answer_tok_ms_p50 on long_context",
    "model.prefill.ms": "prefill_ms_p50 on long_context",
    "model.weight_bytes_read": "step_ms_p50 on lockstep (computed from tensor sizes)",
    "positional.rotate.calls": "step_ms_p50 on lockstep",
    "positional.rotate.ms": "step_ms_p50 on lockstep",
    "kvcache.gather.calls": "prefill_ms_p50, answer_tok_ms_p50 on long_context; step_ms_p50 on lockstep",
    "kvcache.gather.ms": "prefill_ms_p50, answer_tok_ms_p50 on long_context; step_ms_p50 on lockstep",
    "kvcache.gather_bytes": "prefill_ms_p50, answer_tok_ms_p50 on long_context; step_ms_p50 on lockstep",
    "kvcache.gather_copied_bytes": "prefill_ms_p50, answer_tok_ms_p50 on long_context (0 with views)",
    "kvcache.append.calls": "sessions_per_s on sweep",
    "kvcache.append.ms": "sessions_per_s on sweep",
    "kvcache.reserved_bytes": "peak_rss_mb on long_context",
    "kvcache.used_bytes": "peak_rss_mb on long_context",
    "kvcache.summary_view.ms": "answer_tok_ms_p50 on long_context",
    "kvcache.summary_view_slots": "answer_tok_ms_p50 on long_context (slots reused)",
    "kvcache.reprefill_slots": "must read 0 on every workload",
    "engine.session_setup.ms": "sessions_per_s on sweep",
    "engine.sample_token.calls": "slots_per_s on sweep",
    "engine.sample_token.ms": "slots_per_s on sweep",
    "engine.reasoning.self_ms": "step_ms_p50 on lockstep",
    "engine.summarization.self_ms": "answer_tok_ms_p50 on long_context",
    "engine.reasoning_steps": "count: explains session_ms on every engine workload",
    "engine.active_paths_mean": "count: explains step_ms_p50 on sweep",
    "engine.useful_slot_ratio": "slots_per_s on sweep (body tokens / path slots)",
    "harness.run_budget_sweep.self_ms": "sessions_per_s on sweep",
    "harness.sessions": "count: sessions per run_budget_sweep call on sweep",
    "harness.redundant_prefill_ratio": "sessions_per_s on sweep",
    "masking.build_reasoning_mask.ms": "records_per_s and peak_rss_mb on datagen",
    "masking.build_summary_mask.ms": "records_per_s and peak_rss_mb on datagen",
    "masking.mask_bytes": "records_per_s and peak_rss_mb on datagen",
    "datagen.build_sample.ms": "records_per_s on datagen",
    "datagen.training_layout.self_ms": "records_per_s on datagen",
    "datagen.tokens": "records_per_s on datagen",
    "tokenizer.encode.ms": "records_per_s on datagen",
    "trace.overhead_ms": "tracing cost: traced minus untraced wall per operation",
    "trace.overhead_ratio": "tracing cost: traced / untraced wall - 1",
}

# Printed after the gated metrics, with their units; none of these has a
# bound (see NOTES.md for why they are not in BENCHMARK.json).  host_speed
# is the calibration kernel's mean cost over its cost at full speed, and
# the raw_ figures are the gated ones before they are taken to reference
# speed.
REPORTED = {
    "host_speed": "ratio",
    "raw_setup_s": "s",
    "raw_slots_per_s": "1/s",
    "raw_slot_ms_p50": "ms",
    "slot_ms_tail": "ms",
    "slot_tail_percentile": "%",
    "sessions_per_s": "1/s",
    "records_per_s": "1/s",
    "session_ms_p50": "ms",
    "session_ms_tail": "ms",
    "prefill_ms_p50": "ms",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "step_tail_percentile": "%",
    "answer_tok_ms_p50": "ms",
    "p16_step_ratio": "ratio",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "op_tail_percentile": "%",
    "failed_ratio": "ratio",
    "samples": "count",
}


def pin_blas_threads() -> dict:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lockstep", "long_context", "sweep", "datagen"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    blas = pin_blas_threads()  # before numpy is first imported
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "parcot")):
        print(f"error: no parcot sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import numpy as np
    from measure import measure
    from workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{args.workload}.spans.npz") if args.trace else None
    end_to_end, per_layer, counts = measure(
        workload, args.seed, args.seconds, bool(args.trace), spans_path
    )

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "blas_threads": blas,
        "loadavg_at_start": list(load_at_start),
    }
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{counts['attempted']} operations, {counts['failed']} failed, "
        f"{counts['units']} units x {counts['passes']} passes, {counts['measured_s']:.2f} s timed, "
        f"{counts['calibration_samples']} calibration samples"
    )
    print(f"  why: {workload.why}")
    for m in listed:
        moves = f"  -> {MOVES[m['name']]}" if args.trace else ""
        print(f"  {m['name']:<36} {values[m['name']]:>16.6g} {m['unit']}{moves}")
    if not args.trace:
        for name, unit in REPORTED.items():
            if name in end_to_end:
                print(f"  {name:<36} {end_to_end[name]:>16.6g} {unit}")
        for key in ("session_ms_by_cell", "step_ms_by_cell", "slots_by_cell"):
            if key in end_to_end:
                print(f"  {key}: {json.dumps(end_to_end[key], sort_keys=True)}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env, counts=counts, all=values)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, sort_keys=True, indent=1)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
