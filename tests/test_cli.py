import json
from datetime import date

import pytest

from fincon.cli import main

from fixtures import (
    build_single_stock_fixture,
    trading_days,
    write_documents,
    write_price_csv,
)


def build_fixture(tmp_path, **kwargs):
    kwargs.setdefault("n_train", 8)
    kwargs.setdefault("episodes", 2)
    kwargs.setdefault("analyst_roles", ("data_analyst",))
    return build_single_stock_fixture(tmp_path / "fix", **kwargs)


def edit_first_record(**fields):
    """A snapshot edit: set each field of the first record, or delete it for None."""
    def edit(lines):
        record = json.loads(lines[0])
        for key, value in fields.items():
            if value is None:
                del record[key]
            else:
                record[key] = value
        return [json.dumps(record)] + lines[1:]
    return edit


def edit_lines(corrupt):
    """A run-file edit that applies a line edit such as ``edit_first_record``."""
    def edit(path):
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
    return edit


def edit_json(**fields):
    """A run-file edit: set each field of the file's JSON object, or delete it
    for None."""
    def edit(path):
        payload = json.loads(path.read_text())
        for key, value in fields.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        path.write_text(json.dumps(payload))
    return edit


class TestValidateData:
    def test_clean_fixtures_exit_zero(self, tmp_path, capsys):
        fix = build_fixture(tmp_path)
        code = main(["validate-data", "--config", str(fix.config_path)])
        assert code == 0
        err = capsys.readouterr().err
        assert "bars" in err

    def test_missing_price_file_exit_one_with_path(self, tmp_path, capsys):
        fix = build_fixture(tmp_path)
        price_path = fix.root / "prices_SYN.csv"
        price_path.unlink()
        code = main(["validate-data", "--config", str(fix.config_path)])
        assert code == 1
        assert "prices_SYN.csv" in capsys.readouterr().err


class TestTrain:
    def test_full_train_exit_zero(self, tmp_path):
        fix = build_fixture(tmp_path)
        run_dir = tmp_path / "run"
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(run_dir)])
        assert code == 0
        assert (run_dir / "report.json").exists()
        assert (run_dir / "trajectory_2.jsonl").exists()

    def test_missing_price_file_exit_one(self, tmp_path, capsys):
        fix = build_fixture(tmp_path)
        (fix.root / "prices_SYN.csv").unlink()
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "run")])
        assert code == 1
        assert "prices_SYN.csv" in capsys.readouterr().err

    def test_unscripted_call_is_runtime_failure_exit_two(self, tmp_path, capsys):
        fix = build_fixture(tmp_path)
        lines = [l for l in fix.script_path.read_text().splitlines()
                 if f"2:{fix.train_days[3].isoformat()}:decide" not in l]
        broken = fix.root / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(broken),
                     "--run-dir", str(tmp_path / "run")])
        assert code == 2
        assert (tmp_path / "run" / "trajectory_2.FAILED.jsonl").exists()

    def test_resume_from_corrupt_checkpoint_exit_one(self, tmp_path, capsys):
        fix = build_fixture(tmp_path)
        run_dir = tmp_path / "run"
        args = ["train", "--config", str(fix.config_path),
                "--mock-script", str(fix.script_path), "--run-dir", str(run_dir)]
        assert main(args) == 0
        checkpoint = run_dir / "state" / "checkpoint_2.json"
        checkpoint.write_bytes(checkpoint.read_bytes()[:-40])
        assert main(args + ["--override", "backtest.resume=true"]) == 1
        assert "checkpoint_2.json: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, message", [
        ("beliefs/episode_2.json", edit_json(learning_rate=None),
         "episode_2.json: not a belief update (KeyError: 'learning_rate')"),
        ("beliefs/episode_2.json", edit_json(insights_cur=0.5),
         "episode_2.json: not a belief update (TypeError"),
        ("beliefs/episode_2.json", edit_json(learning_rate="high"),
         "episode_2.json: not a belief update (TypeError"),
        ("beliefs/episode_2.json", edit_json(insights_prev=[None]),
         "episode_2.json: not a belief update (TypeError"),
        ("state/checkpoint_2.json", edit_json(message_counts={"insight": "7"}),
         "checkpoint_2.json: 'message_counts' is not a map of counts"),
        ("beliefs/episode_2.json", edit_json(beliefs={"astrology": "read the stars"}),
         "episode_2.json: not a belief update (ValueError: belief_block key 'astrology'"),
        ("beliefs/episode_2.json",
         edit_json(insights_cur=[{"aspect": "astrology", "text": "read the stars"}]),
         "episode_2.json: not a belief update (ValueError: unknown aspect 'astrology'"),
        ("beliefs/episode_2.json", lambda path: path.write_bytes(path.read_bytes()[:-40]),
         "episode_2.json: invalid JSON"),
        ("beliefs/episode_2.json", lambda path: path.unlink(), "episode_2.json"),
        ("state/checkpoint_2.json", edit_json(message_counts=None),
         "checkpoint_2.json: 'message_counts' is not a map of counts"),
        ("trajectory_1.jsonl", edit_lines(edit_first_record(pnl=None)),
         "trajectory_1.jsonl: row 1 is not a day record"),
    ], ids=["missing", "not_a_list", "not_numeric", "null_entry", "text_count",
            "unknown_belief_aspect", "unknown_insight_aspect", "truncated_belief_file",
            "missing_belief_file", "missing_counts", "trajectory_record"])
    def test_resume_from_checkpoint_bad_field_exit_one(self, tmp_path, capsys, name, edit,
                                                       message):
        """Resume rebuilds the training state from the checkpoint and the
        belief files; a file that does not fit exits 1 naming it."""
        fix = build_fixture(tmp_path)
        run_dir = tmp_path / "run"
        args = ["train", "--config", str(fix.config_path),
                "--mock-script", str(fix.script_path), "--run-dir", str(run_dir)]
        assert main(args) == 0
        edit(run_dir / name)
        assert main(args + ["--override", "backtest.resume=true"]) == 1
        assert message in capsys.readouterr().err

    def test_mock_and_endpoint_simultaneously_rejected(self, tmp_path, monkeypatch, capsys):
        fix = build_fixture(tmp_path)
        monkeypatch.setenv("FINCON_LLM_ENDPOINT", "http://example.invalid")
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "run")])
        assert code == 1
        assert "simultaneously" in capsys.readouterr().err

    def test_missing_run_dir_flag(self, tmp_path):
        fix = build_fixture(tmp_path)
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path)])
        assert code == 1

    def test_override_changes_config(self, tmp_path):
        fix = build_fixture(tmp_path)
        run_dir = tmp_path / "run"
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(run_dir),
                     "--override", "backtest.max_episodes=1"])
        assert code == 0
        assert (run_dir / "trajectory_1.jsonl").exists()
        assert not (run_dir / "trajectory_2.jsonl").exists()
        used = json.loads((run_dir / "config.used.json").read_text())
        assert used["backtest"]["max_episodes"] == 1

    @pytest.mark.parametrize("override", [
        "agents=5",
        "memory.decay_ratios=3",
        "backtest.max_episodes=0",
        "agents.workers=0",
        "agents.workers=1.5",
        "backtest.position_size=2",
        "backtest.position_size=-1",
    ])
    def test_invalid_override_exit_one(self, tmp_path, capsys, override):
        fix = build_fixture(tmp_path)
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "run"),
                     "--override", override])
        assert code == 1
        assert override.split("=")[0] in capsys.readouterr().err


class TestProfiles:
    def test_profile_file_and_text_reach_the_assembled_system_prompts(self, tmp_path):
        fix = build_fixture(tmp_path, extra_config={"agents": {
            "profile_files": {"data_analyst": "profiles/data.txt"},
            "profile_texts": {"manager": "Custom manager of {tickers}."}}})
        (fix.root / "profiles").mkdir()
        (fix.root / "profiles" / "data.txt").write_text("Custom data analyst for {tickers}.")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(run_dir)]) == 0
        entries = [json.loads(line) for line in
                   (run_dir / "prompts" / "assembled_1.jsonl").read_text().splitlines()]
        custom = {"data_analyst:SYN": "Custom data analyst for SYN.\n\n",
                  "manager": "Custom manager of SYN.\n\n"}
        assert {e["agent_id"] for e in entries} == set(custom)
        for entry in entries:
            assert entry["system"].startswith(custom[entry["agent_id"]]), entry["phase"]

    def test_missing_profile_file_exit_one(self, tmp_path, capsys):
        fix = build_fixture(tmp_path, extra_config={"agents": {
            "profile_files": {"data_analyst": "profiles/missing.txt"}}})
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "run")])
        assert code == 1
        assert "agents.profile_files[data_analyst]" in capsys.readouterr().err


class TestTestCommand:
    def test_without_training_artifacts_exit_one(self, tmp_path, capsys):
        fix = build_fixture(tmp_path, n_test=4)
        code = main(["test", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "test_run"),
                     "--override", "mode=test",
                     "--override", f"backtest.train_run_dir={tmp_path / 'nowhere'}"])
        assert code == 1
        assert "training artifacts" in capsys.readouterr().err.lower()

    def test_train_then_test_exit_zero(self, tmp_path):
        fix = build_fixture(tmp_path, n_test=4)
        train_dir = tmp_path / "train_run"
        assert main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(train_dir)]) == 0
        code = main(["test", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "test_run"),
                     "--override", "mode=test",
                     "--override", f"backtest.train_run_dir={train_dir}"])
        assert code == 0
        summary = json.loads((tmp_path / "test_run" / "test_summary.json").read_text())
        assert summary["belief_update_calls"] == 0


    def test_corrupt_inherited_snapshot_exit_one(self, tmp_path, capsys):
        fix = build_fixture(tmp_path, n_test=4)
        train_dir = tmp_path / "train_run"
        assert main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(train_dir)]) == 0
        snapshot = train_dir / "memory" / "snapshot.jsonl"
        snapshot.write_bytes(snapshot.read_bytes()[:-40])
        code = main(["test", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "test_run"),
                     "--override", "mode=test",
                     "--override", f"backtest.train_run_dir={train_dir}"])
        assert code == 1
        assert "snapshot.jsonl: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, row", [
        (edit_first_record(content=None), 1),
        (lambda lines: lines[:2] + lines[:1] + lines[2:], 3),
        (edit_first_record(layer="semantic"), 1),
        (lambda lines: ["[1, 2]"] + lines[1:], 1),
        (edit_first_record(event_id=7), 1),
        (edit_first_record(embedding=[[0.5]]), 1),
    ], ids=["missing_field", "duplicate_id", "unknown_layer", "json_array",
            "numeric_id", "nested_embedding"])
    def test_inherited_snapshot_record_not_an_event_exit_one(self, tmp_path, capsys,
                                                             corrupt, row):
        fix = build_fixture(tmp_path, n_test=4)
        train_dir = tmp_path / "train_run"
        assert main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(train_dir)]) == 0
        snapshot = train_dir / "memory" / "snapshot.jsonl"
        lines = snapshot.read_text().splitlines()
        assert len(lines) >= 3
        snapshot.write_text("\n".join(corrupt(lines)) + "\n")
        code = main(["test", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "test_run"),
                     "--override", "mode=test",
                     "--override", f"backtest.train_run_dir={train_dir}"])
        assert code == 1
        assert f"snapshot.jsonl: row {row} is not a memory event" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, message", [
        (lambda data: data[:-40], "prompt_set.json: invalid JSON"),
        (lambda data: data.replace(b'"manager_prompt"', b'"manager_text"'),
         "prompt_set.json: not a prompt set"),
    ], ids=["truncated", "renamed_field"])
    def test_corrupt_inherited_prompt_set_exit_one(self, tmp_path, capsys, corrupt,
                                                   message):
        fix = build_fixture(tmp_path, n_test=4)
        train_dir = tmp_path / "train_run"
        assert main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(train_dir)]) == 0
        prompt_set = train_dir / "prompts" / "final" / "prompt_set.json"
        prompt_set.write_bytes(corrupt(prompt_set.read_bytes()))
        code = main(["test", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "test_run"),
                     "--override", "mode=test",
                     "--override", f"backtest.train_run_dir={train_dir}"])
        assert code == 1
        assert message in capsys.readouterr().err


class TestReport:
    def test_missing_trajectory_exit_one(self, tmp_path):
        fix = build_fixture(tmp_path)
        (tmp_path / "empty").mkdir()
        code = main(["report", "--config", str(fix.config_path),
                     "--run-dir", str(tmp_path / "empty")])
        assert code == 1

    @pytest.mark.parametrize("corrupt, message", [
        (lambda lines: lines + ['{"date": "2022-'], "invalid JSON"),
        (edit_first_record(pnl=None), "row 1 is not a day record (TypeError"),
        (edit_first_record(leverage=2.0), "row 1 is not a day record (TypeError"),
        (edit_first_record(date="2022-13-01"), "row 1 is not a day record (ValueError"),
        (edit_first_record(date=None), "row 1 is not a day record (KeyError"),
        (lambda lines: ["[1, 2]"] + lines[1:], "row 1 is not a day record (TypeError"),
    ], ids=["invalid_json", "missing_field", "extra_field", "bad_date", "no_date",
            "json_array"])
    def test_corrupt_trajectory_exit_one(self, tmp_path, capsys, corrupt, message):
        fix = build_fixture(tmp_path)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(run_dir)]) == 0
        edit_lines(corrupt)(run_dir / "trajectory_2.jsonl")
        code = main(["report", "--config", str(fix.config_path),
                     "--run-dir", str(run_dir)])
        assert code == 1
        assert f"trajectory_2.jsonl: {message}" in capsys.readouterr().err

    def test_recompute_matches_and_is_idempotent(self, tmp_path):
        fix = build_fixture(tmp_path)
        run_dir = tmp_path / "run"
        main(["train", "--config", str(fix.config_path),
              "--mock-script", str(fix.script_path), "--run-dir", str(run_dir)])
        before_report = (run_dir / "report.json").read_bytes()
        before_csv = (run_dir / "metrics.csv").read_bytes()
        assert main(["report", "--config", str(fix.config_path),
                     "--run-dir", str(run_dir)]) == 0
        assert (run_dir / "report.json").read_bytes() == before_report
        assert (run_dir / "metrics.csv").read_bytes() == before_csv


class TestSelectStocks:
    def _build(self, tmp_path):
        root = tmp_path / "sel"
        root.mkdir()
        days = trading_days(date(2022, 1, 3), 40)
        import math
        tickers = ["AAA", "BBB", "CCC", "DDD"]
        for j, t in enumerate(tickers):
            closes = [100.0 * math.exp(sum(0.01 * math.sin(0.9 * i + 2.1 * j)
                                           for i in range(k))) for k in range(40)]
            write_price_csv(root / f"{t}.csv", days, closes)
        docs = []
        counts = {"AAA": 5, "BBB": 5, "CCC": 5, "DDD": 1}
        for t, count in counts.items():
            for i in range(count):
                docs.append({"doc_id": f"{t}-n{i}", "ticker": t, "kind": "news",
                             "published": days[2 + i].isoformat(), "body": "x"})
        write_documents(root / "docs.jsonl", docs)
        payload = {
            "mode": "train",
            "tickers": tickers,
            "data": {"prices": {t: f"{t}.csv" for t in tickers},
                     "documents": ["docs.jsonl"]},
            "dates": {"train_start": days[0].isoformat(),
                      "train_end": days[20].isoformat(),
                      "test_start": days[21].isoformat(),
                      "test_end": days[-1].isoformat()},
            "portfolio": {"pool_size": 2, "min_news": 3},
        }
        config = root / "config.json"
        config.write_text(json.dumps(payload, indent=2))
        return config

    def test_selection_written_and_filtered(self, tmp_path):
        config = self._build(tmp_path)
        run_dir = tmp_path / "sel_run"
        code = main(["select-stocks", "--config", str(config),
                     "--run-dir", str(run_dir)])
        assert code == 0
        out = json.loads((run_dir / "selected_stocks.json").read_text())
        assert len(out["selected"]) == 2
        assert "DDD" not in out["selected"]  # fails the news filter
        assert out["news_counts"]["AAA"] == 5

    def test_idempotent(self, tmp_path):
        config = self._build(tmp_path)
        run_dir = tmp_path / "sel_run"
        main(["select-stocks", "--config", str(config), "--run-dir", str(run_dir)])
        first = (run_dir / "selected_stocks.json").read_bytes()
        main(["select-stocks", "--config", str(config), "--run-dir", str(run_dir)])
        assert (run_dir / "selected_stocks.json").read_bytes() == first


class TestArgumentHandling:
    def test_bad_override_exit_one(self, tmp_path, capsys):
        fix = build_fixture(tmp_path)
        code = main(["validate-data", "--config", str(fix.config_path),
                     "--override", "not-an-assignment"])
        assert code == 1

    def test_config_not_found(self, tmp_path, capsys):
        code = main(["validate-data", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert "absent.json" in capsys.readouterr().err

    def test_invalid_json_config_exit_one(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        code = main(["validate-data", "--config", str(config)])
        assert code == 1
        assert "broken.json: invalid JSON" in capsys.readouterr().err
