"""Command-line experiment runner.

Subcommands mirror the harness experiments (generate, sweep, prefix,
terminate, reprefill, costmodel, datagen, verify).  Each run writes
config.json, records.csv, and transcripts.jsonl under --out; verify
re-runs a directory from its stored config and exits nonzero on any
mismatch or invariant violation.

An option's dest is its config key.  A run's config holds each option its
subcommand declares, as parsed, except that a prompt becomes its raw-byte
ids, a strategy alias its full name and the traces file its traces; a
session subcommand's ``--p-max`` and sampler options are laid out as its
``vocab`` and ``sampler`` objects, beside the ``model`` that runs (the
``--weights`` file's, else the fixed toy model), by ``_base_config``.
``harness.run_experiment`` reads such a config whole, so argparse is the
one place a default is written.
"""

import argparse
import json
import sys
from dataclasses import asdict
from functools import partial

from .costmodel import load_profile
from .datagen import (
    build_sample,
    read_problems,
    training_layout,
    training_record,
    write_training_records,
)
from .engine import canonical_json
from .errors import DataError, EngineError
from .harness import (
    DEFAULT_PREFIX_GRID,
    run_experiment,
    verify_experiment_dir,
    write_experiment,
)
from .model import weights_config
from .tokenizer import Vocab, decode, encode, read_text

TOY_MODEL = {
    "n_layers": 2,
    "d_model": 64,
    "n_heads": 4,
    "d_k": 16,
    "d_ff": 256,
    "vocab_size": 292,
    "rope_base": 10000.0,
    "max_position": 4096,
}


TERMINATION_ALIASES = {
    "first": "first_finish",
    "half": "half_finish",
    "last": "last_finish",
    "first_finish": "first_finish",
    "half_finish": "half_finish",
    "last_finish": "last_finish",
}


# options read by only some session subcommands; each names those it reads
_SESSION_OPTIONS = {
    "--paths": dict(type=int, default=4, help="parallel path count P"),
    "--budget": dict(type=int, default=32, help="body tokens per path B"),
    "--termination": dict(choices=sorted(TERMINATION_ALIASES), default="first",
                          dest="strategy", help="first|half|last"),
}


def _add_common(parser: argparse.ArgumentParser, *options: str) -> None:
    """The model, sampler and output options, plus the named _SESSION_OPTIONS."""
    for option in options:
        parser.add_argument(option, **_SESSION_OPTIONS[option])
    parser.add_argument("--max-answer", type=int, default=16, dest="max_answer_tokens",
                        metavar="MAX_ANSWER", help="answer token cap")
    parser.add_argument("--temperature", type=float, default=0.7)
    parser.add_argument("--top-p", type=float, default=1.0)
    parser.add_argument("--greedy", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--model-seed", type=int, default=1)
    parser.add_argument("--table-seed", type=int, default=2)
    parser.add_argument("--weights", metavar="FILE", default=None, dest="weights_file")
    parser.add_argument("--thought-emb", metavar="FILE", default=None, dest="thought_table_file")
    parser.add_argument("--p-max", type=int, default=16)
    parser.add_argument("--out", metavar="DIR", default="out")


def _base_config(options: dict) -> dict:
    """The model, vocab and sampler objects of a session subcommand's
    config, their options popped off its parsed ``options``.  The model is
    the one that runs: the weights file's, read from its header, or else
    TOY_MODEL, drawn with ``model_seed``."""
    weights_file = options["weights_file"]
    return {
        "model": asdict(weights_config(weights_file)) if weights_file else TOY_MODEL,
        "vocab": {"base_size": 256, "p_max": options.pop("p_max")},
        "sampler": {
            "temperature": options.pop("temperature"),
            "top_p": options.pop("top_p"),
            "seed": options["seed"],
            "greedy": options.pop("greedy"),
        },
    }


def _encode(text: str) -> list[int]:
    try:
        return encode(text, Vocab(), markup=False)  # raw bytes: no control id is read
    except UnicodeEncodeError as exc:  # argv bytes that are not UTF-8
        raise DataError(f"--prompt is not UTF-8 text (character {exc.start})") from exc


def _read_traces(path: str) -> list:
    traces = []
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        if line.strip():
            try:
                traces.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise DataError(f"line {line_no}: invalid JSON: {exc}") from exc
    return traces


# the options not stored as parsed, each with its conversion
_CONVERT = {
    "prompt": _encode,
    "prompts": lambda texts: [_encode(text) for text in texts],
    "strategy": lambda name: TERMINATION_ALIASES[name],
    "strategies": lambda names: [TERMINATION_ALIASES[name] for name in names],
    "traces": _read_traces,
}


def _run_config(args) -> dict:
    """The config of a run-directory subcommand: each option under its
    dest, which is its config key."""
    options = {key: value for key, value in vars(args).items() if key not in ("command", "out")}
    config = {} if args.command == "costmodel" else _base_config(options)
    for key, value in options.items():
        config[key] = _CONVERT[key](value) if key in _CONVERT else value
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="parcot")
    # no abbreviated flags, so that ``sweep --paths`` is an error and not
    # ``--paths-list``
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    p_gen = sub.add_parser("generate", help="run one parallel-reasoning session")
    _add_common(p_gen, "--paths", "--budget", "--termination")
    p_gen.add_argument("--prompt", required=True)

    p_sweep = sub.add_parser("sweep", help="budget sweep with majority baselines")
    _add_common(p_sweep, "--termination")
    p_sweep.add_argument("--budgets", type=int, nargs="+", default=[8, 16, 32])
    p_sweep.add_argument("--paths-list", type=int, nargs="+", default=[1, 2, 4], dest="paths",
                         metavar="PATHS_LIST")
    p_sweep.add_argument(
        "--allocation",
        choices=["total-budget-split", "per-path-budget"],
        default="total-budget-split",
    )
    p_sweep.add_argument("--prompt", action="append", dest="prompts", required=True)

    p_prefix = sub.add_parser("prefix", help="continue decoding from trace prefixes")
    _add_common(p_prefix, "--budget")
    p_prefix.add_argument("--traces", required=True, help="JSONL of {prompt, body} id lists")
    p_prefix.add_argument("--prefix-lengths", type=int, nargs="+", default=None,
                          help="default: the lengths of %s below --budget"
                          % " ".join(map(str, DEFAULT_PREFIX_GRID)))
    p_prefix.add_argument("--samples", type=int, default=16)
    p_prefix.add_argument("--target-token", type=int, required=True)

    p_term = sub.add_parser("terminate", help="compare termination strategies")
    _add_common(p_term, "--paths", "--budget")
    p_term.add_argument("--strategies", nargs="+", choices=sorted(TERMINATION_ALIASES),
                        default=["first", "half", "last"])
    p_term.add_argument("--prompt", action="append", dest="prompts", required=True)

    p_re = sub.add_parser("reprefill", help="flattened re-prefill baseline")
    _add_common(p_re, "--paths", "--budget")
    p_re.add_argument("--prompt", required=True)

    p_cost = sub.add_parser("costmodel", help="roofline latency table")
    p_cost.add_argument("--profile", default=None, dest="profile_file", metavar="PROFILE",
                        help="profile JSON (default packaged)")
    p_cost.add_argument("--paths-list", type=int, nargs="+", default=[1, 2, 4, 8, 16],
                        dest="paths", metavar="PATHS_LIST")
    p_cost.add_argument("--lengths", type=int, nargs="+", default=[1024, 4096, 16384])
    p_cost.add_argument("--out", metavar="DIR", default="out")

    p_data = sub.add_parser("datagen", help="build SFT training records")
    p_data.add_argument("--input", required=True, help="problems JSONL")
    p_data.add_argument("--output", required=True, help="training records JSONL")
    p_data.add_argument("--p-hat", type=int, default=None)
    p_data.add_argument("--p-max", type=int, default=16)
    p_data.add_argument("--seed", type=int, default=0)
    p_data.add_argument("--verbatim-answer", action="store_true",
                        help="use the groundtruth answer without the summary template")

    p_verify = sub.add_parser("verify", help="re-run an experiment dir and compare")
    p_verify.add_argument("--dir", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    # OSError: a file it cannot read or write; JSONDecodeError: malformed JSON
    except (EngineError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "datagen":
        from .datagen import DEFAULT_ANSWER_TEMPLATE, dataset_manifest

        vocab = Vocab(p_max=args.p_max)
        problems = read_problems(args.input)
        template = None if args.verbatim_answer else DEFAULT_ANSWER_TEMPLATE
        records = []
        for idx, problem in enumerate(problems):
            sample = build_sample(
                problem, vocab, p_hat=args.p_hat, seed=args.seed + idx, template=template
            )
            records.append(training_record(sample, training_layout(sample, vocab)))
        write_training_records(records, args.output)
        manifest_path = args.output + ".manifest.json"
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(dataset_manifest(len(records), args.seed, vocab), fh,
                      sort_keys=True, indent=2)
        print(f"datagen: wrote {len(records)} samples to {args.output}")
        return 0

    if args.command == "verify":
        problems = verify_experiment_dir(args.dir)
        if problems:
            for problem in problems:
                print(f"verify: {problem}", file=sys.stderr)
            return 1
        print(f"verify: {args.dir} reproduces exactly")
        return 0

    config = _run_config(args)
    records, transcripts = run_experiment(args.command, config)
    write_experiment(args.out, args.command, config, records, transcripts)
    if args.command == "generate":
        answer = transcripts[0]["record"]["answer"]
        print(canonical_json(records[0]))
        print("answer:", decode(answer, Vocab(**config["vocab"]), errors="replace"))
    elif args.command == "costmodel":
        print(f"profile: {load_profile(args.profile_file).get('name')}")
        for rec in records:
            print(
                f"P={rec['paths']:>3} L={rec['tokens_per_path']:>6} "
                f"step={rec['step_time_s'] * 1e3:8.3f} ms "
                f"ratio_vs_P1={rec['step_ratio_vs_p1']:5.2f}"
            )
    else:
        print(f"{args.command}: wrote {len(records)} records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
