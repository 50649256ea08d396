import csv
import hashlib
import json
import os
import re
import resource
import shlex
import struct
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

from parcot import harness
from parcot.cli import TOY_MODEL, build_parser, main
from parcot.costmodel import load_profile
from parcot.errors import ConfigError, PositionOverflowError
from parcot.model import MAX_MODEL_BYTES, ModelConfig, load_weights

README = Path(__file__).resolve().parent.parent / "README.md"


TRACE = {"prompt": [104, 105], "body": [70, 71, 72, 73]}

# whole configs of each kind, in which a case breaks one key
SESSION = {
    "model": TOY_MODEL, "model_seed": 0, "table_seed": 0,
    "weights_file": None, "thought_table_file": None,
    "vocab": {"base_size": 256, "p_max": 16},
    "sampler": {"temperature": 1.0, "top_p": 1.0, "greedy": False, "seed": 0},
    "seed": 0,
}
GENERATE = {**SESSION, "prompt": [1], "paths": 1, "budget": 2, "strategy": "first_finish",
            "max_answer_tokens": 32}
SWEEP = {**SESSION, "prompts": [[1]], "budgets": [2], "paths": [1], "strategy": "first_finish",
         "allocation": "total-budget-split", "max_answer_tokens": 8}
TERMINATE = {**SESSION, "prompts": [[1]], "budget": 2, "paths": 4, "max_answer_tokens": 8,
             "strategies": ["first_finish", "half_finish", "last_finish"]}
PREFIX = {**SESSION, "traces": [TRACE], "budget": 2, "target_token": 70, "prefix_lengths": None,
          "samples": 16, "max_answer_tokens": 8}
COSTMODEL = {"paths": [1], "lengths": [8], "profile_file": None}


def run_cli(args):
    return main(args)


class TestGenerateAndVerify:
    def test_generate_then_verify(self, tmp_path, capsys):
        out = str(tmp_path / "gen")
        code = run_cli(
            [
                "generate", "--prompt", "add two and two", "--paths", "2",
                "--budget", "4", "--max-answer", "3", "--greedy", "--out", out,
            ]
        )
        assert code == 0
        assert {"config.json", "records.csv", "transcripts.jsonl"} <= set(os.listdir(out))
        printed = capsys.readouterr().out
        assert "answer:" in printed

        assert run_cli(["verify", "--dir", out]) == 0

    def test_verify_fails_on_tampering(self, tmp_path, capsys):
        out = tmp_path / "gen"
        run_cli(
            [
                "generate", "--prompt", "x", "--paths", "1", "--budget", "3",
                "--max-answer", "2", "--greedy", "--out", str(out),
            ]
        )
        path = out / "transcripts.jsonl"
        path.write_text(path.read_text().replace('"seed":', '"sead":', 1))
        assert run_cli(["verify", "--dir", str(out)]) == 1

    @pytest.mark.parametrize("file, edit", [
        ("records.csv", lambda data: data.replace(b"\n", b"\r\n")),
        ("transcripts.jsonl", lambda data: data.replace(b"\n", b"\r")),
        ("records.csv", lambda data: data + b"\xff"),
    ], ids=["crlf", "cr", "not-utf8"])
    def test_verify_compares_bytes(self, tmp_path, capsys, file, edit):
        """Line endings and undecodable bytes are a difference, not a crash."""
        out = tmp_path / "gen"
        run_cli(["generate", "--prompt", "x", "--paths", "2", "--budget", "3",
                 "--max-answer", "2", "--greedy", "--out", str(out)])
        path = out / file
        path.write_bytes(edit(path.read_bytes()))
        capsys.readouterr()
        assert run_cli(["verify", "--dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"verify: {file} does not match a fresh re-run\n"), err

    @pytest.mark.parametrize("edit, message", [
        (('"n_layers": 2', '"n_layers": 2.5'), "n_layers must be an integer, got 2.5"),
        (('"rope_base": 10000.0', '"rope_base": NaN'), "rope_base must be a finite positive"),
        (('"p_max": 16', '"p_max": true'), "p_max must be an integer, got True"),
    ], ids=["float-layers", "nan-rope-base", "bool-p-max"])
    def test_verify_refuses_non_integer_sizes(self, tmp_path, capsys, edit, message):
        out = tmp_path / "gen"
        run_cli(["generate", "--prompt", "x", "--paths", "1", "--budget", "3",
                 "--max-answer", "2", "--greedy", "--out", str(out)])
        path = out / "config.json"
        assert edit[0] in path.read_text()
        path.write_text(path.read_text().replace(*edit))
        capsys.readouterr()
        assert run_cli(["verify", "--dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_non_finite_temperature_fails_before_any_output(self, tmp_path, capsys):
        for temperature in ("nan", "inf"):
            out = tmp_path / temperature
            code = run_cli(
                ["generate", "--prompt", "hello", "--temperature", temperature, "--out", str(out)]
            )
            assert code == 1
            captured = capsys.readouterr()
            assert "temperature must be finite and positive" in captured.err
            assert captured.out == ""
            assert not out.exists()


    def test_negative_seed_fails_before_any_output(self, tmp_path, capsys):
        traces = tmp_path / "traces.jsonl"
        traces.write_text(json.dumps(TRACE) + "\n")
        for argv in (
            ["generate", "--prompt", "hello"],
            ["sweep", "--prompt", "hello", "--budgets", "4", "--paths-list", "1"],
            ["terminate", "--prompt", "hello", "--budget", "4"],
            ["prefix", "--traces", str(traces), "--target-token", "70",
             "--prefix-lengths", "0", "2", "--budget", "6"],
        ):
            out = tmp_path / argv[0]
            code = run_cli([*argv, "--seed", "-1", "--out", str(out)])
            assert code == 1
            captured = capsys.readouterr()
            assert "error: seed must be a non-negative integer" in captured.err
            assert captured.out == ""
            assert not out.exists()

    def test_vocab_past_the_model_fails_before_the_thought_table(self, tmp_path, capsys):
        # a table of 10**8 path rows would need ~48 GiB; the vocab check
        # must refuse the run before anything draws it
        out = tmp_path / "gen"
        code = run_cli(["generate", "--prompt", "x", "--p-max", "100000000", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: model vocab 292 cannot hold tokenizer vocab")
        assert captured.out == ""
        assert not out.exists()


class TestSweep:
    def test_sweep_writes_records(self, tmp_path):
        out = str(tmp_path / "sweep")
        code = run_cli(
            [
                "sweep", "--prompt", "p one", "--budgets", "4", "6",
                "--paths-list", "1", "2", "--max-answer", "2", "--out", out,
                "--seed", "3",
            ]
        )
        assert code == 0
        lines = Path(out, "records.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2  # header + (budgets x paths x modes)
        assert lines[0].startswith("experiment,")


class TestTerminate:
    def test_strategy_comparison(self, tmp_path):
        out = str(tmp_path / "term")
        code = run_cli(
            [
                "terminate", "--prompt", "p", "--paths", "3", "--budget", "6",
                "--max-answer", "2", "--out", out, "--seed", "2",
            ]
        )
        assert code == 0
        text = Path(out, "records.csv").read_text()
        for name in ("first_finish", "half_finish", "last_finish"):
            assert name in text


class TestPrefix:
    def test_prefix_experiment(self, tmp_path):
        traces = tmp_path / "traces.jsonl"
        with open(traces, "w") as fh:
            fh.write(json.dumps({"prompt": [104, 105], "body": [70, 71, 72, 73]}) + "\n")
        out = str(tmp_path / "prefix")
        code = run_cli(
            [
                "prefix", "--traces", str(traces), "--prefix-lengths", "0", "2",
                "--samples", "2", "--target-token", "70", "--budget", "5",
                "--max-answer", "2", "--out", out,
            ]
        )
        assert code == 0
        text = Path(out, "records.csv").read_text()
        assert "success_rate" in text

    def test_runs_at_its_defaults(self, tmp_path, capsys):
        """The default grid keeps the lengths that leave the default budget
        some room, so only the required options are needed."""
        traces = tmp_path / "traces.jsonl"
        traces.write_text(json.dumps(TRACE) + "\n")
        out = tmp_path / "prefix"
        assert run_cli(["prefix", "--traces", str(traces), "--target-token", "70",
                        "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["config"]["prefix_lengths"] is None
        with open(out / "records.csv", newline="") as fh:
            assert [row["prefix_length"] for row in csv.DictReader(fh)] == ["0"]
        assert run_cli(["verify", "--dir", str(out)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("trace_text, flags, message", [
        (None, ["--samples", "0"], "samples must be an integer of at least 1, got 0"),
        (None, ["--prefix-lengths", "-2"],
         "prefix length must be a non-negative integer, got -2"),
        ('{"prompt": [104, 105]}\n', [], "trace 0 must be an object with prompt and body"),
        ('\n{"prompt": [104, 105], "body": [70]\n', [], "line 2: invalid JSON"),
        (None, ["--target-token", "5000"], "target token 5000 outside vocab of size 292"),
    ], ids=["zero-samples", "negative-prefix", "no-body", "not-json", "target-outside-vocab"])
    def test_bad_input_fails_before_any_output(self, tmp_path, capsys, trace_text, flags,
                                               message):
        traces = tmp_path / "traces.jsonl"
        traces.write_text(trace_text or json.dumps(TRACE) + "\n")
        out = tmp_path / "prefix"
        args = ["prefix", "--traces", str(traces), "--target-token", "70",
                "--prefix-lengths", "0", "2", "--budget", "5", "--out", str(out)]
        assert run_cli(args + flags) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""
        assert not out.exists()


class TestReprefill:
    def test_reprefill_records_positions(self, tmp_path):
        out = str(tmp_path / "re")
        code = run_cli(
            [
                "reprefill", "--prompt", "q", "--paths", "2", "--budget", "4",
                "--max-answer", "2", "--out", out,
            ]
        )
        assert code == 0
        text = Path(out, "records.csv").read_text()
        assert "max_path_position" in text


class TestVerifyRoundTrips:
    """``verify`` reproduces every session experiment's directory, sampled
    answers past a uniform chunk included."""

    @pytest.mark.parametrize("name, args", [
        ("reprefill", ["--prompt", "q and r", "--paths", "3", "--budget", "20",
                       "--max-answer", "18", "--seed", "6"]),
        ("reprefill", ["--prompt", "q", "--paths", "2", "--budget", "6", "--greedy"]),
        ("terminate", ["--prompt", "alpha", "--prompt", "beta", "--paths", "3",
                       "--budget", "18", "--max-answer", "17", "--seed", "4"]),
        ("prefix", ["--prefix-lengths", "0", "3", "--samples", "2", "--target-token", "70",
                    "--budget", "20", "--max-answer", "2", "--seed", "2"]),
    ])
    def test_verify_reproduces(self, tmp_path, capsys, name, args):
        if name == "prefix":
            traces = tmp_path / "traces.jsonl"
            traces.write_text(json.dumps({"prompt": [104, 105], "body": [70, 71, 72, 73]}) + "\n")
            args = ["--traces", str(traces), *args]
        out = str(tmp_path / name)
        assert run_cli([name, *args, "--out", out]) == 0
        capsys.readouterr()
        assert run_cli(["verify", "--dir", out]) == 0
        assert "reproduces exactly" in capsys.readouterr().out
        path = Path(out, "transcripts.jsonl")
        path.write_text(path.read_text().replace('"answer":[', '"answer":[1,', 1))
        assert run_cli(["verify", "--dir", out]) == 1


# each session command at a tiny size: (command, arguments, the sha256 of
# each output file and of stdout, with its --out directory read as
# "<out>").  A re-prefill record's logit_divergence keeps the 4
# significant digits that every BLAS kernel agrees on.
PINNED_OUTPUTS = {
    "costmodel": ("costmodel", [
        "--paths-list", "1", "4", "16", "--lengths", "1024", "4096",
    ], {
        "config.json": "a78aa6d8922aca5ee371c503df4a289321b8be138f0a8243947d64a9b55c0e52",
        "records.csv": "42ce4edb07f9b50b026d80acc472ba45e9de0b76ba4644b1edfb5f157779bfd1",
        "transcripts.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "cfe5b0e5ab94ad5ee7b11f236a2786e1391bdb7a282adbeaeb86af0e48cafa21",
    }),
    "generate-greedy": ("generate", [
        "--prompt", "add two and two", "--paths", "3", "--budget", "6", "--max-answer", "4",
        "--greedy", "--seed", "1",
    ], {
        "config.json": "4b1f589ee3d19a57f72ded4042d7696a5de00972a297dd198a6382c0dd1c7059",
        "records.csv": "aeb5c2b816cb56f7abfe96ff991521f703bcbaa94bcafdd4009ed4fd0278b795",
        "transcripts.jsonl": "406722a2fd98511255580879ff14bee46382085e6a25c1a4ef518256c6a39bf9",
        "stdout": "5e5d5ab74f56642e7e86bff9d36ab657e6dc5af902c19ef481235a5d5a2b31fd",
    }),
    "generate-top-p": ("generate", [
        "--prompt", "add two and two", "--paths", "3", "--budget", "6", "--max-answer", "4",
        "--top-p", "0.8", "--seed", "2",
    ], {
        "config.json": "4a9e5c8a63595f4570ac60e28a875873b4567bd0bb6b8798ee379b846f682d83",
        "records.csv": "9351403636c42f6b8ccd58cc6c9fcc96e00994f756d946e112a2491d8a31e9ed",
        "transcripts.jsonl": "e07620279fd811fdb135ed88f05003dfcaedebadaaacc356e277811d5f37c4c3",
        "stdout": "697a95c1f88a3224eb52f41126d4c7a2a141c76f2fde9f50400dfbbc1854c1ce",
    }),
    "prefix": ("prefix", [
        "--prefix-lengths", "0", "2", "--samples", "2", "--target-token", "70", "--budget", "6",
        "--max-answer", "2", "--seed", "2",
    ], {
        "config.json": "b03d759684dafc619940b5480342ccff5c1be84d2c991236402587f0cad9b43d",
        "records.csv": "551ad2ae1d9549c06eb94bda37bc2270f5f11caf5ac5fba1e3b28f2ef341ee3e",
        "transcripts.jsonl": "e487e87f044596863cbed6597ba379e6726dd71e51d8aef1a64d7584e60deeee",
        "stdout": "71fec077c6033e4baf515f9252f4fc74da754477ea1e4c110a3ff89d57d751b0",
    }),
    "reprefill-greedy": ("reprefill", [
        "--prompt", "q", "--paths", "2", "--budget", "6", "--greedy",
    ], {
        "config.json": "16710de512b4e4f364caa1dfc75453f71130d46144003d06cac92aaa84d2effb",
        "records.csv": "6bcfe2da4f8459309ca3764bdfeced1970530d00c25b688e110d3d4071609b7b",
        "transcripts.jsonl": "e1dc0da618e7afdc3fd1bb4904688b96bacdf64bb7ff774801214b0f6cb389c8",
        "stdout": "907b40190bb6b65383ee30f1b5c2be075bc50db046bd1efdadcc1dc4cfe515cb",
    }),
    "reprefill-sampled": ("reprefill", [
        "--prompt", "q and r", "--paths", "3", "--budget", "8", "--max-answer", "6", "--seed", "6",
    ], {
        "config.json": "3a580b1b0aafb73514749c2e8f13a7572478be563ff7ac69a880401bf5001b8e",
        "records.csv": "d22778fa080c62aa21d5dc83de56555206752a04dcf59f9e3b3c4dfcd3113fc0",
        "transcripts.jsonl": "2a9ac2bdfbd123cbef7b494d17ad8ecaef6fd3b5899786c91c473eee99215004",
        "stdout": "907b40190bb6b65383ee30f1b5c2be075bc50db046bd1efdadcc1dc4cfe515cb",
    }),
    "sweep-first": ("sweep", [
        "--prompt", "p one", "--prompt", "q", "--budgets", "12", "--paths-list", "1", "2",
        "--max-answer", "3", "--seed", "16", "--termination", "first", "--temperature", "1.5",
    ], {
        "config.json": "e1c367c3dfa27d1181d372bbfed16ea3f402fdf2fb2c2aa243534c7826359019",
        "records.csv": "a553faf6b5e7b75e6185acb9f11f34be289b498e09e7f26626bc2b8ba22a1a2e",
        "transcripts.jsonl": "663bb431bda2466809272ec0516a9ce8ce64ed8db1dbd494ebfd1e3a89380ea9",
        "stdout": "6b85013ff6f3a8a396321580be2b424f60c50a4aa585b69b2f59f588ec7fb8d8",
    }),
    "sweep-half": ("sweep", [
        "--prompt", "p one", "--budgets", "12", "--paths-list", "3", "--max-answer", "3",
        "--seed", "6", "--termination", "half", "--temperature", "1.5",
        "--allocation", "per-path-budget",
    ], {
        "config.json": "7766a7b9e38f1cbd103ef399ff0bb3a2c2e97885e8f5879dda88766070a35e06",
        "records.csv": "dd9c20bd11a6d5a47f8b2f99ec63ed4be61edeb82d1827743dba3ca3e2bf1074",
        "transcripts.jsonl": "6fee220f866f1af3dbe733c01a38e5a3c89026d244a6a38ff965b8f0ecf9fc03",
        "stdout": "3d388911d7ecdcd736d6cdf4d9348b3e4461b0b12a02c4f6a1e4937c0cfd3d6e",
    }),
    "sweep-last": ("sweep", [
        "--prompt", "p one", "--budgets", "12", "--paths-list", "3", "--max-answer", "3",
        "--seed", "18", "--termination", "last", "--temperature", "1.5",
    ], {
        "config.json": "764b54e08d5902e0b1a9efa2d3a23a3d2d60cf363c013cafe344c2fd2f967815",
        "records.csv": "610b87b53d035f5d6bd2a64cb52ffd2d682a5aa109fdcb5be4136db1720f035b",
        "transcripts.jsonl": "726511db7e18b0f549cc5ecd4f4293bb15cf39869b4f224b067147af44dd8fee",
        "stdout": "3d388911d7ecdcd736d6cdf4d9348b3e4461b0b12a02c4f6a1e4937c0cfd3d6e",
    }),
    "terminate": ("terminate", [
        "--prompt", "alpha", "--prompt", "beta", "--paths", "3", "--budget", "8", "--max-answer",
        "3", "--seed", "4",
    ], {
        "config.json": "8fc2e5e9782d99a14f197731d9a371cd55f525c9b0bbf4af2b1a9405e5ac9240",
        "records.csv": "e8c5d7c5522b461168aad1733bc5cd0802243af911b0d253d4c1171c059b9b91",
        "transcripts.jsonl": "cb4bfde54562869181c884cbad219d3705f761dc838cb2af59845872bee284d5",
        "stdout": "46f5573b0448595e51120bcd04abde43438169858527e423b868910f7a2338fe",
    }),
}


class TestSessionOutputs:
    @pytest.mark.parametrize("run", sorted(PINNED_OUTPUTS))
    def test_output_bytes_are_pinned(self, tmp_path, capsys, run):
        name, args, digests = PINNED_OUTPUTS[run]
        if name == "prefix":
            traces = tmp_path / "traces.jsonl"
            traces.write_text(json.dumps(TRACE) + "\n")
            args = ["--traces", str(traces), *args]
        out = tmp_path / name
        assert run_cli([name, *args, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.replace(str(out), "<out>").encode()
        outputs = {f: printed if f == "stdout" else (out / f).read_bytes() for f in digests}
        assert {f: hashlib.sha256(data).hexdigest() for f, data in outputs.items()} == digests


# a small run of each run-directory subcommand
RUNS = [
    ("generate", ["--prompt", "x", "--budget", "2"]),
    ("sweep", ["--prompt", "x", "--budgets", "4", "--paths-list", "1"]),
    ("prefix", ["--target-token", "70", "--prefix-lengths", "0", "--samples", "1",
                "--budget", "4"]),
    ("terminate", ["--prompt", "x", "--budget", "2"]),
    ("reprefill", ["--prompt", "x", "--budget", "2"]),
    ("costmodel", []),
]

# the keys a run's config may lack: absent, each names no file
FILE_KEYS = ("weights_file", "thought_table_file")


class TestRunConfig:
    def run(self, tmp_path, name, args) -> Path:
        if name == "prefix":
            traces = tmp_path / "traces.jsonl"
            traces.write_text(json.dumps(TRACE) + "\n")
            args = ["--traces", str(traces), *args]
        out = tmp_path / name
        assert run_cli([name, *args, "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("name, args", RUNS)
    def test_every_written_key_is_read(self, tmp_path, monkeypatch, name, args):
        """``run_experiment`` reads every top-level key the subcommand
        writes, and no other: a key written under the wrong name would
        otherwise be refused as missing, or run unread and still verify."""
        reads = []  # (the object read, the key)

        class Logged(harness._Keys):
            def __getitem__(self, key):
                reads.append((self, key))
                return super().__getitem__(key)

            def get(self, key, default=None):
                reads.append((self, key))
                return super().get(key, default)

        monkeypatch.setattr(harness, "_Keys", Logged)
        out = self.run(tmp_path, name, args)
        written = json.loads((out / "config.json").read_text())["config"]
        assert {key for read, key in reads if read == written} == set(written)

    @pytest.mark.parametrize("name, args", RUNS)
    def test_verify_names_each_missing_key(self, tmp_path, capsys, name, args):
        """A stored config lacking any key its subcommand writes, or any
        field of its model, vocab or sampler object, is refused naming the
        key: no key takes a default that could re-run another experiment."""
        out = self.run(tmp_path, name, args)
        stored = json.loads((out / "config.json").read_text())
        config = stored["config"]
        cases = [(config, key, "the config") for key in config if key not in FILE_KEYS]
        cases += [
            (config[obj], key, repr(obj))
            for obj in ("model", "vocab", "sampler") if obj in config for key in config[obj]
        ]
        capsys.readouterr()
        for where, key, named in cases:
            value = where.pop(key)
            (out / "config.json").write_text(json.dumps(stored))
            assert run_cli(["verify", "--dir", str(out)]) == 1, key
            assert capsys.readouterr().err == f"error: {key!r} is missing from {named}\n"
            where[key] = value
        (out / "config.json").write_text(json.dumps(stored))
        assert run_cli(["verify", "--dir", str(out)]) == 0


# the keys ``bundle_from_config`` reads; run_experiment reads every other
BUNDLE_KEYS = ("model", "vocab", "model_seed", "table_seed", *FILE_KEYS)
REPREFILL = {key: value for key, value in GENERATE.items() if key != "strategy"}
EXPERIMENTS = {"generate": GENERATE, "reprefill": REPREFILL, "sweep": SWEEP,
               "terminate": TERMINATE, "prefix": PREFIX}

# one value per case that the key's own check refuses, and its message
BROKEN = [
    ("generate", "budget", 0, "path budget must be an integer of at least 1, got 0"),
    ("generate", "max_answer_tokens", -1, "answer budget must be an integer of at least 0"),
    ("generate", "prompt", 5, "'prompt' must be a list, got 5"),
    ("generate", "strategy", "bogus", "unknown termination strategy 'bogus'"),
    ("reprefill", "budget", "2", "path budget must be an integer of at least 1, got '2'"),
    ("sweep", "prompts", [5], r"'prompts' must be a list of lists, got \[5\]"),
    ("sweep", "budgets", 5, "'budgets' must be a list, got 5"),
    ("sweep", "paths", ["2"], "'paths' must be a list of integers"),
    ("sweep", "strategy", "bogus", "unknown termination strategy 'bogus'"),
    ("sweep", "max_answer_tokens", 2.5, "answer budget must be an integer of at least 0"),
    ("terminate", "strategies", ["bogus"], "unknown termination strategy 'bogus'"),
    ("terminate", "prompts", 5, "'prompts' must be a list, got 5"),
    ("terminate", "max_answer_tokens", None, "answer budget must be an integer"),
    ("prefix", "traces", 5, "'traces' must be a list, got 5"),
    ("prefix", "prefix_lengths", 3, "'prefix_lengths' must be a list, got 3"),
    ("prefix", "budget", True, "path budget must be an integer of at least 1"),
]


class TestKeysReadBeforeTheModel:
    """``run_experiment`` reads and checks every key of its experiment
    before ``bundle_from_config`` draws or loads any weights."""

    @pytest.fixture(autouse=True)
    def no_model(self, monkeypatch):
        def refuse(config):
            raise AssertionError("the model was built before every key was read")

        monkeypatch.setattr(harness, "bundle_from_config", refuse)

    @pytest.mark.parametrize("name, key", [
        (name, key) for name, config in EXPERIMENTS.items()
        for key in config if key not in BUNDLE_KEYS
    ])
    def test_a_missing_key(self, name, key):
        config = {k: v for k, v in EXPERIMENTS[name].items() if k != key}
        with pytest.raises(ConfigError, match=f"^{key!r} is missing from the config$"):
            harness.run_experiment(name, config)

    @pytest.mark.parametrize("name, key, value, message", BROKEN,
                             ids=[f"{name}-{key}" for name, key, *_ in BROKEN])
    def test_a_broken_key(self, name, key, value, message):
        with pytest.raises(ConfigError, match=message):
            harness.run_experiment(name, {**EXPERIMENTS[name], key: value})


def limit_address_space():
    """512 MiB of address space, for the child process it runs in: about
    four times what the interpreter and parcot take, and too little for a
    positions array of 10**8 int64 (763 MiB) beside them."""
    resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))


def run_bounded(args):
    """``parcot args`` in a child process whose address space is limited
    (in the child only), with a timeout; returns the finished process."""
    src = Path(harness.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", "import sys; from parcot.cli import main; sys.exit(main())",
         *args],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=limit_address_space, capture_output=True, text=True, timeout=60,
    )


class TestSizesRefusedBeforeBuilding:
    """A size past what the model admits is refused before anything of that
    size is built."""

    @pytest.mark.parametrize("flag", ["--budget", "--max-answer"])
    def test_cli_refuses_a_position_past_the_model(self, tmp_path, flag):
        out = tmp_path / "gen"
        done = run_bounded(["generate", "--prompt", "hello", flag, "100000000",
                            "--out", str(out)])
        assert done.returncode == 1, done.stderr
        assert re.fullmatch(
            r"error: (reasoning|answer) would reach position \d+, beyond max_position 4096\n",
            done.stderr,
        ), done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("key", ["budget", "max_answer_tokens"])
    def test_run_experiment_refuses_a_position_past_the_model(self, key):
        with pytest.raises(PositionOverflowError, match="beyond max_position 4096"):
            harness.run_experiment("generate", {**GENERATE, key: 10**12})

    @pytest.mark.parametrize("field", ["d_ff", "n_layers"])
    def test_model_size_is_bounded_before_building(self, field):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=rf"above the cap of {MAX_MODEL_BYTES}$"):
            ModelConfig(**{**TOY_MODEL, field: 10**12})
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("field", ["d_ff", "n_layers"])
    def test_verify_refuses_an_oversized_model(self, tmp_path, field):
        stored = {"experiment": "generate",
                  "config": {**GENERATE, "model": {**TOY_MODEL, field: 10**12}}}
        (tmp_path / "config.json").write_text(json.dumps(stored))
        done = run_bounded(["verify", "--dir", str(tmp_path)])
        assert done.returncode == 1, done.stderr
        assert re.fullmatch(
            rf"error: model has \d+ parameter bytes, above the cap of {MAX_MODEL_BYTES}\n",
            done.stderr,
        ), done.stderr

    @pytest.mark.parametrize("flag", ["--weights", "--thought-emb"])
    def test_an_oversized_file_is_refused_before_reading(
        self, tmp_path, small_weights, small_table, flag
    ):
        from parcot.model import save_weights
        from parcot.positional import save_thought_table

        path = tmp_path / "file"
        if flag == "--weights":
            save_weights(small_weights, str(path))
        else:
            save_thought_table(small_table, str(path))
        expected = path.stat().st_size
        # a valid file extended to 2 GiB: truncate leaves it sparse, so no
        # byte is written, and reading it whole would pass the child's limit
        os.truncate(path, 2**31)
        out = tmp_path / "gen"
        done = run_bounded(["generate", "--prompt", "y", "--paths", "2", "--budget", "3",
                            "--max-answer", "2", flag, str(path), "--out", str(out)])
        kind = "weight file" if flag == "--weights" else "thought-table file"
        assert done.returncode == 1, done.stderr
        assert done.stderr == f"error: {kind} length {2**31} != expected {expected}\n"
        assert not out.exists()

    def test_weight_file_header_is_bounded_before_reading(self, tmp_path):
        header = {**TOY_MODEL, "d_ff": 2**32 - 1}
        path = tmp_path / "huge.ptw"
        values = [int(header[field.name]) for field in fields(ModelConfig)]
        path.write_bytes(b"PTW1" + struct.pack(f"<{len(values)}I", *values))
        with pytest.raises(ConfigError, match="parameter bytes, above the cap"):
            load_weights(str(path))


class TestCostModel:
    def test_table_printed_and_written(self, tmp_path, capsys):
        out = str(tmp_path / "cost")
        code = run_cli(
            ["costmodel", "--paths-list", "1", "16", "--lengths", "1024", "--out", out]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "ratio_vs_P1" in printed
        assert os.path.exists(os.path.join(out, "records.csv"))

    def test_nan_profile_is_an_error(self, tmp_path, capsys):
        profile = dict(load_profile(), memory_bandwidth=float("nan"))
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(profile))  # written as NaN, which json reads back
        out = str(tmp_path / "cost")
        assert run_cli(["costmodel", "--profile", str(path), "--out", out]) == 1
        assert "error: memory_bandwidth must be finite and positive" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "records.csv"))


    @pytest.mark.parametrize("key, value, named", [
        ("bytes_per_weight_pass", None, " lacks 'bytes_per_weight_pass'"),
        ("memory_bandwidth", None, " lacks 'memory_bandwidth'"),
        ("flops_per_token", "abc", ": flops_per_token must be a number, got 'abc'"),
        ("flops_per_token", "1e12", ": flops_per_token must be a number, got '1e12'"),
        ("memory_bandwidth", True, ": memory_bandwidth must be a number, got True"),
        ("compute_throughput", [1], ": compute_throughput must be a number, got [1]"),
        ("kv_bytes_per_token_per_slot", {},
         ": kv_bytes_per_token_per_slot must be a number, got {}"),
        pytest.param("memory_bandwidth", 10**400, ": memory_bandwidth is too large for a float",
                     id="memory_bandwidth-400-digits"),
    ])
    def test_malformed_profile_is_an_error(self, tmp_path, capsys, key, value, named):
        # None drops the key; a JSON null is checked like any other non-number
        profile = {k: v for k, v in load_profile().items() if not (k == key and value is None)}
        if value is not None:
            profile[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(profile))
        out = tmp_path / "cost"
        assert run_cli(["costmodel", "--profile", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: profile {str(path)!r}{named}\n"
        assert not out.exists()


class TestTerminationAliases:
    def test_short_forms_accepted(self, tmp_path):
        out = str(tmp_path / "gen")
        code = run_cli(
            [
                "generate", "--prompt", "x", "--paths", "2", "--budget", "3",
                "--max-answer", "2", "--greedy", "--termination", "half",
                "--out", out,
            ]
        )
        assert code == 0
        config = json.loads(Path(out, "config.json").read_text())
        assert config["config"]["strategy"] == "half_finish"


class TestWeightFiles:
    @staticmethod
    def generate_from_files(tmp_path, weights, table) -> Path:
        """A generate run on ``weights`` and ``table`` saved to files;
        returns its run directory."""
        from parcot.model import save_weights
        from parcot.positional import save_thought_table

        wpath = str(tmp_path / "model.ptw")
        tpath = str(tmp_path / "table.ptt")
        save_weights(weights, wpath)
        save_thought_table(table, tpath)
        out = tmp_path / "gen"
        code = run_cli(
            [
                "generate", "--prompt", "y", "--paths", "2", "--budget", "3",
                "--max-answer", "2", "--greedy", "--weights", wpath,
                "--thought-emb", tpath, "--out", str(out),
            ]
        )
        assert code == 0
        return out

    def test_generate_from_saved_weights(self, tmp_path, small_weights, small_table):
        out = self.generate_from_files(tmp_path, small_weights, small_table)
        # the stored model is the file's (d_model 32), not the toy model
        model = json.loads((out / "config.json").read_text())["config"]["model"]
        assert model["d_model"] == 32
        assert model == {f.name: getattr(small_weights.config, f.name)
                         for f in fields(ModelConfig)}
        assert run_cli(["verify", "--dir", str(out)]) == 0

    @pytest.mark.parametrize("edit, field", [
        ({"d_model": 64, "n_heads": 4}, "d_model"),
        ({"d_ff": 128}, "d_ff"),
        ({"rope_base": 500.0}, "rope_base"),
    ], ids=["d_model", "d_ff", "rope_base"])
    def test_verify_refuses_a_model_the_file_does_not_hold(
        self, tmp_path, small_weights, small_table, capsys, edit, field
    ):
        out = self.generate_from_files(tmp_path, small_weights, small_table)
        stored = json.loads((out / "config.json").read_text())
        stored["config"]["model"].update(edit)
        (out / "config.json").write_text(json.dumps(stored))
        capsys.readouterr()
        assert run_cli(["verify", "--dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: 'model' has {field} ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("dims", [(2, 4, 8), (1, 4, 16)], ids=["d_k-8", "one-layer"])
    def test_thought_table_that_does_not_fit_the_model(self, tmp_path, capsys, dims):
        from parcot.positional import init_thought_table, save_thought_table

        # the default model has 2 layers, 4 heads and d_k 16
        tpath = str(tmp_path / "table.ptt")
        save_thought_table(init_thought_table(16, *dims, seed=1), tpath)
        out = str(tmp_path / "gen")
        code = run_cli(
            [
                "generate", "--prompt", "y", "--paths", "2", "--budget", "3",
                "--max-answer", "2", "--greedy", "--thought-emb", tpath, "--out", out,
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: thought table rows have shape {dims}, the model needs"
        )
        assert not os.path.exists(out)


class TestDatagen:
    def test_end_to_end(self, tmp_path):
        problems = tmp_path / "problems.jsonl"
        with open(problems, "w") as fh:
            for i in range(2):
                fh.write(
                    json.dumps(
                        {
                            "format": "ptsft-1",
                            "query": f"q{i}",
                            "answer": str(i),
                            "paths": [f"r{i}a", f"r{i}b", f"r{i}c"],
                        }
                    )
                    + "\n"
                )
        out = tmp_path / "train.jsonl"
        code = run_cli(
            [
                "datagen", "--input", str(problems), "--output", str(out),
                "--p-hat", "2", "--seed", "4",
            ]
        )
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines() if l.strip()]
        assert len(lines) == 2 and all(r["format"] == "ptsft-2" for r in lines)
        manifest = json.loads((tmp_path / "train.jsonl.manifest.json").read_text())
        assert manifest["teacher"] == {"temperature": 0.8, "paths_per_problem": 6}
        assert manifest["samples"] == 2

    def test_output_bytes_are_pinned(self, tmp_path):
        # ASCII and multi-byte UTF-8 bodies, an empty body, P-hat drawn per
        # record, with and without the summary template
        words = ["cats", "é", "→ step", "猫", "🙂 ok", "", "x" * 37]
        problems = tmp_path / "problems.jsonl"
        with open(problems, "w", encoding="utf-8") as fh:
            for i in range(5):
                paths = [f"{words[(i + k) % 7]} {k}" * (k % 3) for k in range(6)]
                record = {"format": "ptsft-1", "query": f"q{i} {words[i]}",
                          "answer": words[(i + 3) % 7] or "0", "paths": paths}
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        digests = []
        for extra in ([], ["--verbatim-answer", "--p-hat", "3"]):
            out = tmp_path / f"train{len(extra)}.jsonl"
            args = ["datagen", "--input", str(problems), "--output", str(out), "--seed", "7"]
            assert run_cli(args + extra) == 0
            for path in (out, Path(f"{out}.manifest.json")):
                digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        # records then manifest, per run; the manifest does not read --p-hat
        manifest = "2ab6f90e4929adf77cb306adfc04be35a56a7b8b75cf80e655152d4a86118f3c"
        assert digests == [
            "a40e4141a1cc8c5769611b80b93a7ac6a50d311b7604533228bb274b295f7c1f", manifest,
            "5fe65f7f6ce831d977f40b0070ed2320c1cc8b9b938582e24c6b90189de95a56", manifest,
        ]

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "problem record must be a JSON object, got list"),
        ('{"format": "ptsft-1", "query": "q", "answer": "a", "paths": "abc"}',
         "problem paths must be a list of strings, got str"),
        ('{"format": "ptsft-1", "query": "q", "answer": "a", "paths": ["x", 7]}',
         "problem path 1 must be a string, got int"),
        ('{"format": "ptsft-1", "query": 5, "answer": "a", "paths": ["x"]}',
         "problem query must be a string, got int"),
        ('{"format": "ptsft-1", "query": "q", "answer": ["a"], "paths": ["x"]}',
         "problem answer must be a string, got list"),
    ])
    def test_malformed_record_fails_naming_its_line(self, tmp_path, capsys, line, message):
        good = {"format": "ptsft-1", "query": "q", "answer": "a", "paths": ["x", "y"]}
        problems = tmp_path / "problems.jsonl"
        problems.write_text(json.dumps(good) + "\n\n" + line + "\n")
        out = tmp_path / "o.jsonl"
        code = run_cli(["datagen", "--input", str(problems), "--output", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: line 3: {message}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [problems]

    def test_bad_input_exits_nonzero(self, tmp_path, capsys):
        problems = tmp_path / "problems.jsonl"
        problems.write_text(json.dumps({"query": "q", "answer": "a", "paths": ["x"]}) + "\n")
        code = run_cli(
            ["datagen", "--input", str(problems), "--output", str(tmp_path / "o.jsonl")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestUnreadableFiles:
    """A file the CLI cannot read, or a profile that is not JSON, ends in
    ``error: ...`` and exit 1, not a traceback; ``verify`` lists a missing
    output file as a problem."""

    @pytest.mark.parametrize("case", [
        "weights-missing", "weights-directory", "thought-emb-missing",
        "thought-emb-directory", "profile-missing", "profile-malformed",
        "traces-missing", "datagen-input-missing", "verify-dir-missing",
    ])
    def test_error_not_traceback(self, tmp_path, capsys, case):
        missing, directory = str(tmp_path / "absent"), str(tmp_path)
        out = ["--out", str(tmp_path / "out")]
        generate = ["generate", "--prompt", "x", "--paths", "1", "--budget", "2", *out]
        malformed = tmp_path / "profile.json"
        malformed.write_text('{"format": ')
        argv = {
            "weights-missing": [*generate, "--weights", missing],
            "weights-directory": [*generate, "--weights", directory],
            "thought-emb-missing": [*generate, "--thought-emb", missing],
            "thought-emb-directory": [*generate, "--thought-emb", directory],
            "profile-missing": ["costmodel", "--profile", missing, *out],
            "profile-malformed": ["costmodel", "--profile", str(malformed), *out],
            "traces-missing": ["prefix", "--traces", missing, "--target-token", "70", *out],
            "datagen-input-missing": ["datagen", "--input", missing,
                                      "--output", str(tmp_path / "o.jsonl")],
            "verify-dir-missing": ["verify", "--dir", missing],
        }[case]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if case == "profile-malformed":
            assert "is not valid JSON" in err
        else:
            assert "absent" in err or directory in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stored, named", [
        ({"config": {}}, "'experiment' is missing"),
        ([1], "config.json must be an object, got a list"),
        # the name is checked before the config builds any model
        ({"experiment": "nope", "config": {}}, "unknown experiment 'nope'"),
        ({"experiment": "generate", "config": []}, "config must be an object, got a list"),
        ({"experiment": "generate",
          "config": {key: value for key, value in GENERATE.items() if key != "model"}},
         "'model' is missing from the config"),
        ({"experiment": "generate", "config": {**GENERATE, "model": 3}},
         "'model' must be an object, got a int"),
        ({"experiment": "generate", "config": {**GENERATE, "vocab": 5}},
         "'vocab' must be an object, got a int"),
        ({"experiment": "generate", "config": {**GENERATE, "sampler": []}},
         "'sampler' must be an object, got a list"),
        ({"experiment": "generate", "config": {**GENERATE, "model": {**TOY_MODEL, "depth": 2}}},
         "'model': got an unexpected keyword argument 'depth'"),
        ({"experiment": "generate", "config": {**GENERATE, "model": {"d_model": 64}}},
         "'n_layers' is missing from 'model'"),
        ({"experiment": "generate", "config": {**GENERATE, "vocab": {"size": 300}}},
         "'vocab': got an unexpected keyword argument 'size'"),
        ({"experiment": "generate", "config": {**GENERATE, "sampler": {"temp": 1.0}}},
         "'sampler': got an unexpected keyword argument 'temp'"),
        ({"experiment": "generate", "config": {**GENERATE, "strategy": "bogus"}},
         "unknown termination strategy 'bogus'"),
        ({"experiment": "sweep", "config": {**SWEEP, "budgets": 5}},
         "'budgets' must be a list, got 5"),
        ({"experiment": "sweep", "config": {**SWEEP, "prompts": 5}},
         "'prompts' must be a list, got 5"),
        ({"experiment": "costmodel", "config": {**COSTMODEL, "lengths": 5}},
         "'lengths' must be a list, got 5"),
        ({"experiment": "sweep", "config": {**SWEEP, "paths": "2"}},
         "'paths' must be a list, got '2'"),
        ({"experiment": "generate", "config": {**GENERATE, "prompt": 5}},
         "'prompt' must be a list, got 5"),
        ({"experiment": "generate", "config": {**GENERATE, "model_seed": "x"}},
         "model_seed must be a non-negative integer, got 'x'"),
        ({"experiment": "generate", "config": {**GENERATE, "table_seed": -1}},
         "table_seed must be a non-negative integer, got -1"),
        ({"experiment": "generate",
          "config": {**GENERATE, "sampler": {**SESSION["sampler"], "greedy": "no"}}},
         "greedy must be true or false, got 'no'"),
        # each list is checked before the total-budget split compares its elements
        ({"experiment": "sweep", "config": {**SWEEP, "paths": ["2"]}},
         "'paths' must be a list of integers, got ['2']"),
        ({"experiment": "sweep", "config": {**SWEEP, "budgets": ["x"]}},
         "'budgets' must be a list of integers, got ['x']"),
        ({"experiment": "sweep", "config": {**SWEEP, "prompts": [5]}},
         "'prompts' must be a list of lists, got [5]"),
        ({"experiment": "terminate", "config": {**TERMINATE, "strategies": 5}},
         "'strategies' must be a list, got 5"),
        ({"experiment": "prefix", "config": {**PREFIX, "prefix_lengths": 3}},
         "'prefix_lengths' must be a list, got 3"),
        ({"experiment": "sweep", "config": {**SWEEP, "seed": "1"}},
         "seed must be a non-negative integer, got '1'"),
    ], ids=[
        "no-experiment", "array", "unknown-experiment", "config-array", "no-model",
        "model-int", "vocab-int", "sampler-array", "model-unknown-key", "model-missing-key",
        "vocab-unknown-key", "sampler-unknown-key", "strategy-bogus", "budgets-int",
        "prompts-int", "lengths-int", "paths-str", "prompt-int", "model-seed-str",
        "table-seed-negative", "greedy-str", "paths-str-element", "budgets-str-element",
        "prompts-int-element", "strategies-int", "prefix-lengths-int", "seed-str",
    ])
    def test_verify_names_a_malformed_config(self, tmp_path, capsys, stored, named):
        (tmp_path / "config.json").write_text(json.dumps(stored))
        assert run_cli(["verify", "--dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err

    @pytest.mark.parametrize("experiment, key", [
        ("generate", "weights_file"), ("generate", "thought_table_file"),
        ("costmodel", "profile_file"),
    ])
    def test_verify_refuses_a_path_that_is_not_a_string(self, tmp_path, capsys, experiment, key):
        """``open`` takes an integer as a file descriptor: the descriptor
        is neither read nor closed."""
        base = GENERATE if experiment == "generate" else COSTMODEL
        held = tmp_path / "held"
        held.write_bytes(b"PTW1" + bytes(64))
        fd = os.open(held, os.O_RDONLY)
        try:
            stored = {"experiment": experiment, "config": {**base, key: fd}}
            (tmp_path / "config.json").write_text(json.dumps(stored))
            assert run_cli(["verify", "--dir", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {key!r} must be a file path or null, got {fd}\n"
            assert os.lseek(fd, 0, os.SEEK_CUR) == 0  # still open, nothing read
        finally:
            os.close(fd)

    @pytest.mark.parametrize("file", ["records.csv", "transcripts.jsonl"])
    def test_verify_lists_a_missing_output_file(self, tmp_path, capsys, file):
        out = tmp_path / "gen"
        run_cli(["generate", "--prompt", "x", "--paths", "1", "--budget", "2", "--greedy",
                 "--out", str(out)])
        (out / file).unlink()
        capsys.readouterr()
        assert run_cli(["verify", "--dir", str(out)]) == 1
        assert capsys.readouterr().err == f"verify: {file} is missing\n"


class TestNotUtf8:
    """Text that is not UTF-8 (a prompt, a text file, or a datagen string
    holding a lone surrogate) ends in one ``error:`` line naming the option
    or the file, and the line of a file read line by line; nothing is
    written."""

    BAD_ARG = os.fsdecode(b"a\xff")  # how the interpreter reads that argv byte

    @pytest.mark.parametrize("case", [
        "generate-prompt", "sweep-prompt", "terminate-prompt", "reprefill-prompt",
        "prefix-traces", "datagen-input", "costmodel-profile", "verify-config",
        "datagen-query", "datagen-answer", "datagen-path",
    ])
    def test_error_not_traceback(self, tmp_path, capsys, case):
        out = ["--out", str(tmp_path / "out")]
        session = ["--budget", "2", "--max-answer", "2", *out]
        bad = tmp_path / "bad"
        good_problem = {"format": "ptsft-1", "query": "q", "answer": "a", "paths": ["x"]}
        good_line = json.dumps(good_problem).encode() + b"\n"
        datagen = ["datagen", "--input", str(bad), "--output", str(tmp_path / "o.jsonl"),
                   "--p-hat", "1"]
        argv, named = {
            "generate-prompt": (["generate", "--prompt", self.BAD_ARG, *session], "--prompt"),
            "sweep-prompt": (["sweep", "--prompt", "x", "--prompt", self.BAD_ARG,
                              "--budgets", "2", *out], "--prompt"),
            "terminate-prompt": (["terminate", "--prompt", self.BAD_ARG, *session], "--prompt"),
            "reprefill-prompt": (["reprefill", "--prompt", self.BAD_ARG, *session], "--prompt"),
            "prefix-traces": (["prefix", "--traces", str(bad), "--target-token", "70",
                               "--prefix-lengths", "0", *session], f"{bad}: line 2"),
            "datagen-input": (datagen, f"{bad}: line 3"),  # after a blank CRLF line
            "costmodel-profile": (["costmodel", "--profile", str(bad), *out], f"{bad}: line 1"),
            "verify-config": (["verify", "--dir", str(tmp_path)], "config.json: line 1"),
            "datagen-query": (datagen, "line 2: problem query is not UTF-8"),
            "datagen-answer": (datagen, "line 2: problem answer is not UTF-8"),
            "datagen-path": (datagen, "line 2: problem path 1 is not UTF-8"),
        }[case]
        if case == "prefix-traces":
            bad.write_bytes(json.dumps(TRACE).encode() + b"\n" + b'{"prompt": [1], "\xff"}\n')
        elif case == "datagen-input":
            bad.write_bytes(good_line + b"\r\n" + good_line.replace(b'"q"', b'"\xff"'))
        elif case == "costmodel-profile":
            bad.write_bytes(b'{"format": "\xff"}')
        elif case == "verify-config":
            (tmp_path / "config.json").write_bytes(b'{"experiment": "\xff"}')
        elif case.startswith("datagen-"):
            field = case.removeprefix("datagen-")
            problem = dict(good_problem, paths=["x", "y"])
            if field == "path":
                problem["paths"] = ["y", "\udcff"]
            else:
                problem[field] = "\udcff"
            bad.write_bytes(good_line + json.dumps(problem).encode() + b"\n")
        before = sorted(tmp_path.rglob("*"))
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert named in captured.err
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before


class TestParser:
    @pytest.mark.parametrize("command, flag", [
        (["sweep", "--prompt", "p"], ["--paths", "2"]),
        (["sweep", "--prompt", "p"], ["--budget", "8"]),
        (["prefix", "--traces", "t.jsonl", "--target-token", "70"], ["--paths", "2"]),
        (["prefix", "--traces", "t.jsonl", "--target-token", "70"], ["--termination", "half"]),
        (["terminate", "--prompt", "p"], ["--termination", "half"]),
        (["reprefill", "--prompt", "p"], ["--termination", "half"]),
    ])
    def test_flags_a_subcommand_never_reads_are_rejected(self, command, flag, capsys):
        build_parser().parse_args(command)  # the command parses without the flag
        with pytest.raises(SystemExit) as exc:
            run_cli(command + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err

    def test_readme_cli_examples_parse(self):
        block = re.search(r"## CLI\n\n```bash\n(.*?)```", README.read_text(), re.S).group(1)
        commands = [
            shlex.split(line)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("parcot ")
        ]
        for argv in commands:
            build_parser().parse_args(argv[1:])
        assert sorted(argv[1] for argv in commands) == sorted([
            "generate", "sweep", "prefix", "terminate", "reprefill",
            "costmodel", "datagen", "verify",
        ])
