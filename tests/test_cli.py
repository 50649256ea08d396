import json
import os
from pathlib import Path

from parcot.cli import main


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
    def test_generate_from_saved_weights(self, tmp_path, small_weights, small_table):
        from parcot.model import save_weights
        from parcot.positional import save_thought_table

        wpath = str(tmp_path / "model.ptw")
        tpath = str(tmp_path / "table.ptt")
        save_weights(small_weights, wpath)
        save_thought_table(small_table, tpath)
        out = str(tmp_path / "gen")
        code = run_cli(
            [
                "generate", "--prompt", "y", "--paths", "2", "--budget", "3",
                "--max-answer", "2", "--greedy", "--weights", wpath,
                "--thought-emb", tpath, "--out", out,
            ]
        )
        assert code == 0
        assert run_cli(["verify", "--dir", out]) == 0


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
        assert len(lines) == 2 and all(r["format"] == "ptsft-1" for r in lines)
        manifest = json.loads((tmp_path / "train.jsonl.manifest.json").read_text())
        assert manifest["teacher"] == {"temperature": 0.8, "paths_per_problem": 6}
        assert manifest["samples"] == 2

    def test_bad_input_exits_nonzero(self, tmp_path, capsys):
        problems = tmp_path / "problems.jsonl"
        problems.write_text(json.dumps({"query": "q", "answer": "a", "paths": ["x"]}) + "\n")
        code = run_cli(
            ["datagen", "--input", str(problems), "--output", str(tmp_path / "o.jsonl")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
