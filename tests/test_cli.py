import base64
import json
import math
import struct
import urllib.request
from datetime import date

import pytest

from fincon.cli import main

from fixtures import (
    build_single_stock_fixture,
    trading_days,
    write_documents,
    write_price_csv,
)
from test_llm_gateway import FakeResponse


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


def base64_embedding(values) -> str:
    """``values`` as a snapshot's base64 embedding (big-endian float64)."""
    return base64.b64encode(struct.pack(f">{len(values)}d", *values)).decode("ascii")


# a JSON integer literal longer than the interpreter converts (4,300 digits)
HUGE_INTEGER = "9" * 5000


def edit_lines(corrupt):
    """A run-file edit that applies a line edit such as ``edit_first_record``."""
    def edit(path):
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
    return edit


class TestValidateData:
    def test_clean_fixtures_exit_zero(self, tmp_path, capsys):
        fix = build_fixture(tmp_path)
        code = main(["validate-data", "--config", str(fix.config_path)])
        assert code == 0
        err = capsys.readouterr().err
        assert "bars" in err

    def test_price_file_ending_in_a_blank_line_exit_zero(self, tmp_path, capsys):
        fix = build_fixture(tmp_path)
        price_path = fix.root / "prices_SYN.csv"
        rows = price_path.read_text().count("\n") - 1
        price_path.write_text(price_path.read_text() + "\n")
        assert main(["validate-data", "--config", str(fix.config_path)]) == 0
        assert f"SYN: {rows} bars" in capsys.readouterr().err

    def test_price_field_over_the_csv_size_limit_exit_one(self, tmp_path, capsys):
        fix = build_fixture(tmp_path)
        price_path = fix.root / "prices_SYN.csv"
        lines = price_path.read_text().splitlines()
        lines[4] += "0" * 200_000
        price_path.write_text("\n".join(lines) + "\n")
        code = main(["validate-data", "--config", str(fix.config_path)])
        assert code == 1
        assert "prices_SYN.csv: row 4 is not a CSV row" in capsys.readouterr().err

    def test_missing_price_file_exit_one_with_path(self, tmp_path, capsys):
        fix = build_fixture(tmp_path)
        price_path = fix.root / "prices_SYN.csv"
        price_path.unlink()
        code = main(["validate-data", "--config", str(fix.config_path)])
        assert code == 1
        assert "prices_SYN.csv" in capsys.readouterr().err


    @pytest.mark.parametrize("line, message", [
        ('"doc_id ticker kind published body"', "docs.jsonl: row 2 is not a JSON object"),
        ("[1, 2]", "docs.jsonl: row 2 is not a JSON object"),
        ('{"ticker": "SYN"}', "docs.jsonl: missing doc_id"),
    ], ids=["string", "array", "missing_key"])
    def test_document_row_not_an_object_exit_one(self, tmp_path, capsys, line, message):
        fix = build_fixture(tmp_path, news_every=3)
        lines = (fix.root / "docs.jsonl").read_text().splitlines()
        (fix.root / "docs.jsonl").write_text("\n".join(lines[:1] + [line] + lines[1:]) + "\n")
        code = main(["validate-data", "--config", str(fix.config_path)])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_document_ids_compare_as_stored_text(self, tmp_path, capsys):
        """A doc_id is a JSON string, compared as stored: "01" and "1" are two
        ids, a second "1" is a duplicate, and a number is no id at all."""
        fix = build_fixture(tmp_path, news_every=3)
        path = fix.root / "docs.jsonl"
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        docs[0]["doc_id"], docs[1]["doc_id"] = "01", "1"
        write_documents(path, docs)
        assert main(["validate-data", "--config", str(fix.config_path)]) == 0
        docs[0]["doc_id"] = "1"
        write_documents(path, docs)
        assert main(["validate-data", "--config", str(fix.config_path)]) == 1
        assert "docs.jsonl: duplicate doc_id '1'" in capsys.readouterr().err
        docs[0]["doc_id"] = 1
        write_documents(path, docs)
        assert main(["validate-data", "--config", str(fix.config_path)]) == 1
        assert "docs.jsonl: row 1: doc_id must be a JSON string, got int" \
            in capsys.readouterr().err


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

    def test_endpoint_reply_content_not_a_string_exit_two(self, tmp_path, monkeypatch, capsys):
        fix = build_fixture(tmp_path)
        body = json.dumps({"choices": [{"message": {"content": None}}]}).encode()
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda request, timeout=None: FakeResponse(body))
        monkeypatch.setenv("FINCON_LLM_ENDPOINT", "http://llm.invalid/v1")
        code = main(["train", "--config", str(fix.config_path),
                     "--run-dir", str(tmp_path / "run")])
        assert code == 2
        assert "malformed backend response" in capsys.readouterr().err
        assert (tmp_path / "run" / "trajectory_1.FAILED.jsonl").exists()

    @pytest.mark.parametrize("edit, message", [
        # a record as logged before records held the reply
        (edit_first_record(response=None), "assembled_1.jsonl: missing response in row 1"),
        (edit_first_record(response={"insight": "up"}),
         "assembled_1.jsonl: row 1: response must be a JSON string, got dict"),
        (edit_first_record(user=None), "assembled_1.jsonl: missing user in row 1"),
        (lambda lines: lines[:1] + ["[1, 2]"] + lines[1:],
         "assembled_1.jsonl: row 2 is not a JSON object"),
        (lambda lines: lines[:2] + ['{"agent_id": "manager", "step'] + lines[2:],
         "assembled_1.jsonl: invalid JSON"),
    ], ids=["no_response", "response_not_a_string", "no_user", "not_an_object",
            "not_json"])
    def test_resume_from_a_bad_prompt_log_exit_one(self, tmp_path, capsys, edit, message):
        """Resume reads only the prompt logs; a record that does not fit
        exits 1 naming the log and row."""
        fix = build_fixture(tmp_path)
        run_dir = tmp_path / "run"
        args = ["train", "--config", str(fix.config_path),
                "--mock-script", str(fix.script_path), "--run-dir", str(run_dir)]
        assert main(args) == 0
        edit_lines(edit)(run_dir / "prompts" / "assembled_1.jsonl")
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

    @pytest.mark.parametrize("command", ["train", "test"])
    def test_no_backend_configured_exit_one(self, tmp_path, monkeypatch, capsys, command):
        fix = build_fixture(tmp_path)
        monkeypatch.delenv("FINCON_LLM_ENDPOINT", raising=False)
        code = main([command, "--config", str(fix.config_path),
                     "--run-dir", str(tmp_path / "run")])
        assert code == 1
        assert "no backend: pass --mock-script or set FINCON_LLM_ENDPOINT" \
            in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_mock_script_response_not_a_string_exit_one(self, tmp_path, capsys):
        """A response must be the reply text itself; a JSON object there is
        rejected at load, before any episode runs."""
        fix = build_fixture(tmp_path)
        lines = fix.script_path.read_text().splitlines()
        entry = json.loads(lines[2])
        entry["response"] = json.loads(entry["response"])
        lines[2] = json.dumps(entry)
        fix.script_path.write_text("\n".join(lines) + "\n")
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "run")])
        assert code == 1
        assert "script.jsonl: row 3: response must be a JSON string, got dict" \
            in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line", ["5", '"role_tag step_key response"', "[1, 2]",
                                      "null"])
    def test_mock_script_row_not_an_object_exit_one(self, tmp_path, capsys, line):
        fix = build_fixture(tmp_path)
        lines = fix.script_path.read_text().splitlines()
        fix.script_path.write_text("\n".join(lines[:2] + [line] + lines[2:]) + "\n")
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "run")])
        assert code == 1
        assert "script.jsonl: row 3 is not a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_run_dir_naming_a_file_exit_one(self, tmp_path, capsys):
        fix = build_fixture(tmp_path, episodes=1)
        run_file = tmp_path / "run"
        run_file.write_text("a plain file\n")
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(run_file)])
        assert code == 1
        assert f"cannot create directory {run_file}" in capsys.readouterr().err
        assert run_file.read_text() == "a plain file\n"

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

    def test_override_workers_null_runs(self, tmp_path):
        """null is the default pool: one thread per analyst instance."""
        fix = build_fixture(tmp_path, episodes=1)
        run_dir = tmp_path / "run"
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(run_dir),
                     "--override", "agents.workers=null"])
        assert code == 0
        assert (run_dir / "trajectory_1.jsonl").exists()

    @pytest.mark.parametrize("override", [
        "agents=5",
        "memory.decay_ratios=3",
        "backtest.max_episodes=0",
        "agents.workers=0",
        "agents.workers=1.5",
        "backtest.position_size=2",
        "backtest.position_size=-1",
        "risk.cvar_alpha=x",
        "memory.top_k=0",
        'memory.decay_ratios={"news": 1.5}',
        'memory.decay_ratios={"newz": 0.5}',
        "memory.default_importance=2",
        "backtest.capital=0",
        "backtest.capital=NaN",
        "data_ingest.momentum_window=0",
        'agents.profile_texts={"manager": 5}',
        'agents.profile_texts={"astrologer": "Read {tickers}."}',
        "agents.analyst_roles=5",
        "llm.max_retries=-1",
        "backtest.feedback_window=0",
        "backtest.resume=no",
        "backtest.annualize_sharpe=no",
        "data=[]",
        "data.prices=[]",
        "dates=5",
        "tickers=SYN",
        'tickers=["SYN", "SYN"]',
        "data.documents=docs.jsonl",
        "agents.general_config=5",
        "seed=abc",
        "notes=x",
        "data.dividends=[]",
        'agents.profile_texts={"manager": "Trade {ticker} well."}',
        'agents.profile_texts={"data_analyst": "Read {0}."}',
        'agents.profile_texts={"manager": "Trade {tickers well."}',
        # a role the fixture runs no instance of
        'agents.profile_texts={"news_analyst": "Read {0}."}',
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
            assert entry["system"].startswith(custom[entry["agent_id"]]), entry["step_key"]

    def test_profile_file_with_a_bad_placeholder_exit_one(self, tmp_path, capsys):
        fix = build_fixture(tmp_path, extra_config={"agents": {
            "profile_files": {"data_analyst": "profiles/data.txt"}}})
        (fix.root / "profiles").mkdir()
        (fix.root / "profiles" / "data.txt").write_text("Custom data analyst for {ticker}.")
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "run")])
        assert code == 1
        assert "agents.profile_files[data_analyst]: 'Custom data analyst for {ticker}.' " \
            "must have {tickers} as its only placeholder (KeyError" in capsys.readouterr().err

    def test_missing_profile_file_exit_one(self, tmp_path, capsys):
        fix = build_fixture(tmp_path, extra_config={"agents": {
            "profile_files": {"data_analyst": "profiles/missing.txt"}}})
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "run")])
        assert code == 1
        assert "agents.profile_files[data_analyst]" in capsys.readouterr().err


    @pytest.mark.parametrize("override, named", [
        ('agents.profile_files={"manager": "pdir"}', "agents.profile_files[manager]"),
        ('data.prices={"SYN": "pdir"}', "pdir"),
        ('data.documents=["pdir"]', "pdir"),
    ])
    def test_config_path_naming_a_directory_exit_one(self, tmp_path, capsys, override,
                                                     named):
        fix = build_fixture(tmp_path, episodes=1)
        (fix.root / "pdir").mkdir()
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "run"), "--override", override])
        assert code == 1
        assert named in capsys.readouterr().err

    def test_profile_file_not_utf8_exit_one(self, tmp_path, capsys):
        fix = build_fixture(tmp_path, episodes=1, extra_config={"agents": {
            "profile_files": {"manager": "profiles/manager.txt"}}})
        (fix.root / "profiles").mkdir()
        (fix.root / "profiles" / "manager.txt").write_bytes(b"\xffTrade {tickers}.")
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "run")])
        assert code == 1
        assert "agents.profile_files[manager]" in capsys.readouterr().err


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

    def test_non_path_train_run_dir_exit_one(self, tmp_path, capsys):
        fix = build_fixture(tmp_path, n_test=4)
        code = main(["test", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "test_run"),
                     "--override", "mode=test",
                     "--override", "backtest.train_run_dir=5"])
        assert code == 1
        assert "backtest.train_run_dir must be a path string or null, got 5" \
            in capsys.readouterr().err

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


    @pytest.mark.parametrize("spelling", ["train_run", "elsewhere/../train_run"])
    def test_run_dir_naming_the_training_directory_exit_one(self, tmp_path, capsys,
                                                            spelling):
        """A test stage that wrote into its training directory would replace
        its report and grow its memory snapshot with test-stage events."""
        fix = build_fixture(tmp_path, n_test=4, episodes=1)
        train_dir = tmp_path / "train_run"
        assert main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(train_dir)]) == 0
        before = {p: p.read_bytes() for p in train_dir.rglob("*") if p.is_file()}
        code = main(["test", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / spelling),
                     "--override", "mode=test",
                     "--override", f"backtest.train_run_dir={train_dir}"])
        assert code == 1
        assert f"training directory {train_dir}" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in train_dir.rglob("*") if p.is_file()} == before

    def test_test_stage_adds_an_analyst_role_training_lacked(self, tmp_path):
        """The test stage reads its agents' texts from its own config, so a
        role that training did not run still gets the inherited belief for
        its aspect."""
        fix = build_fixture(tmp_path, n_test=4, news_every=2,
                            analyst_roles=("news_analyst", "data_analyst"))
        train_dir = tmp_path / "train_run"
        assert main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(train_dir),
                     "--override", 'agents.analyst_roles=["data_analyst"]']) == 0
        assert main(["test", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "test_run"),
                     "--override", "mode=test",
                     "--override", f"backtest.train_run_dir={train_dir}"]) == 0
        entries = [json.loads(line) for line in (
            tmp_path / "test_run" / "prompts" / "assembled_test.jsonl").read_text().splitlines()]
        news = [e for e in entries if e["agent_id"] == "news_analyst:SYN"]
        assert news
        for entry in news:
            assert entry["system"].endswith(
                "Current investment belief for your aspect:\n"
                "v2: trust sentiment only with volume."), entry["step_key"]

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

    def test_inherited_snapshot_integer_over_the_digit_limit_exit_one(self, tmp_path,
                                                                      capsys):
        """``json.loads`` rejects such a literal with a plain ValueError, not
        a JSONDecodeError; it is reported as invalid JSON all the same."""
        fix = build_fixture(tmp_path, n_test=4)
        train_dir = tmp_path / "train_run"
        assert main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(train_dir)]) == 0
        snapshot = train_dir / "memory" / "snapshot.jsonl"
        lines = snapshot.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"access_bonus":', f'"access_bonus":{HUGE_INTEGER},"x":', 1)
        snapshot.write_text("".join(lines))
        code = main(["test", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "test_run"),
                     "--override", "mode=test",
                     "--override", f"backtest.train_run_dir={train_dir}"])
        assert code == 1
        err = capsys.readouterr().err
        assert "snapshot.jsonl: invalid JSON" in err and "4300 digits" in err

    @pytest.mark.parametrize("corrupt, row", [
        (edit_first_record(content=None), 1),
        (lambda lines: lines[:2] + lines[:1] + lines[2:], 3),
        (edit_first_record(layer="semantic"), 1),
        (lambda lines: ["[1, 2]"] + lines[1:], 1),
        (edit_first_record(event_id=7), 1),
        (edit_first_record(embedding=[[0.5]]), 1),
        (edit_first_record(embedding="not base64!"), 1),
        (edit_first_record(embedding=base64.b64encode(bytes(7)).decode()), 1),
        (edit_first_record(initial_importance="0.5"), 1),
        (edit_first_record(decay_ratio=" 0.9 "), 1),
        (edit_first_record(access_bonus=True), 1),
        (edit_first_record(access_bonus=math.nan), 1),
        (edit_first_record(access_bonus=math.inf), 1),
        (edit_first_record(embedding=["0.5"] * 64), 1),
        (edit_first_record(embedding=[math.nan] * 64), 1),
        (edit_first_record(embedding=base64_embedding([0.5] * 63 + [math.nan])), 1),
        (edit_first_record(embedding=base64_embedding([-math.inf] + [0.5] * 63)), 1),
    ], ids=["missing_field", "duplicate_id", "unknown_layer", "json_array",
            "numeric_id", "nested_embedding", "non_base64_embedding",
            "seven_byte_embedding", "string_importance", "padded_string_decay",
            "bool_bonus", "nan_bonus", "infinite_bonus", "string_list_embedding",
            "nan_list_embedding", "nan_base64_embedding", "infinite_base64_embedding"])
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

    @pytest.mark.parametrize("embedding", [
        base64_embedding([0.5] * 63 + [math.nan]),
        base64.b64encode(bytes(500)).decode(),
        "not base64!",
        base64_embedding([0.5] * 8),
    ], ids=["non_finite", "wrong_byte_count", "not_base64", "other_dim_than_its_owner"])
    def test_faulty_embedding_on_row_three_of_five_exit_one(self, tmp_path, capsys,
                                                           embedding):
        """The snapshot's embeddings are decoded in one pass before any event
        is added; a fault past the first row is still reported at its row."""
        fix = build_fixture(tmp_path, n_test=4)
        train_dir = tmp_path / "train_run"
        assert main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(train_dir)]) == 0
        snapshot = train_dir / "memory" / "snapshot.jsonl"
        records = [json.loads(line) for line in snapshot.read_text().splitlines()[:5]]
        assert len(records) == 5 and records[2]["owner"] in (records[0]["owner"],
                                                             records[1]["owner"])
        records[2]["embedding"] = embedding
        snapshot.write_text("".join(json.dumps(r) + "\n" for r in records))
        code = main(["test", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(tmp_path / "test_run"),
                     "--override", "mode=test",
                     "--override", f"backtest.train_run_dir={train_dir}"])
        assert code == 1
        assert "snapshot.jsonl: row 3 is not a memory event" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, message", [
        (lambda data: data[:-40], "prompt_set.json: invalid JSON"),
        (lambda data: data.replace(b'"belief_block"', b'"beliefs"'),
         "prompt_set.json: not a prompt set (KeyError"),
        (lambda data: b'{"belief_block": {"astrology": "read the stars"}}',
         "prompt_set.json: not a prompt set (ValueError: belief_block key 'astrology'"),
        (lambda data: b'{"belief_block": {"ECC": 5}}',
         "prompt_set.json: not a prompt set (TypeError"),
        (lambda data: b'[]', "prompt_set.json: not a prompt set (TypeError"),
        (lambda data: b'{"belief_block": {"ECC": %s}}' % HUGE_INTEGER.encode(),
         "prompt_set.json: invalid JSON (Exceeds the limit (4300 digits)"),
    ], ids=["truncated", "renamed_field", "unknown_aspect", "numeric_belief",
            "json_array", "integer_over_the_digit_limit"])
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
        (edit_first_record(pnl="x"), "row 1 is not a day record (TypeError: pnl"),
        (edit_first_record(cvar=True), "row 1 is not a day record (TypeError: cvar"),
        (edit_first_record(alert=1), "row 1 is not a day record (TypeError: alert"),
        (edit_first_record(pnl=math.nan), "row 1 is not a day record (ValueError: pnl"),
        (edit_first_record(cvar=-math.inf), "row 1 is not a day record (ValueError: cvar"),
        (lambda lines: lines[:1] + [f'{{"pnl": {HUGE_INTEGER}}}'] + lines[2:],
         "invalid JSON (Exceeds the limit (4300 digits)"),
    ], ids=["invalid_json", "missing_field", "extra_field", "bad_date", "no_date",
            "json_array", "text_pnl", "bool_cvar", "numeric_alert", "nan_pnl",
            "infinite_cvar", "integer_over_the_digit_limit"])
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

    def test_report_reads_episode_ten_of_ten(self, tmp_path):
        """The newest episode is found by number, not by name: a string
        sort would put trajectory_9 after trajectory_10."""
        fix = build_fixture(
            tmp_path, n_train=6, episodes=10,
            directions_fn=lambda episode, t: "long" if (t * episode) % 3 else "short",
            extra_config={"risk": {"convergence_epsilon": -1e9}})
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path), "--run-dir", str(run_dir)]) == 0
        summary = json.loads((run_dir / "train_summary.json").read_text())
        assert summary["episodes_run"] == 10
        before_report = (run_dir / "report.json").read_bytes()
        before_csv = (run_dir / "metrics.csv").read_bytes()
        assert main(["report", "--config", str(fix.config_path),
                     "--run-dir", str(run_dir)]) == 0
        assert (run_dir / "report.json").read_bytes() == before_report
        assert (run_dir / "metrics.csv").read_bytes() == before_csv

    def test_report_reads_the_episode_before_an_aborted_one(self, tmp_path):
        """An aborted episode 2 leaves only its FAILED trajectory, so the
        report is episode 1's, as a one-episode run writes it."""
        fix = build_fixture(tmp_path)
        lines = [l for l in fix.script_path.read_text().splitlines()
                 if f"2:{fix.train_days[3].isoformat()}:decide" not in l]
        broken = fix.root / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        run_dir, one_dir = tmp_path / "run", tmp_path / "one"
        assert main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(broken), "--run-dir", str(run_dir)]) == 2
        assert (run_dir / "trajectory_2.FAILED.jsonl").exists()
        assert main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path), "--run-dir", str(one_dir),
                     "--override", "backtest.max_episodes=1"]) == 0
        assert main(["report", "--config", str(fix.config_path),
                     "--run-dir", str(run_dir)]) == 0
        for name in ("report.json", "metrics.csv"):
            assert (run_dir / name).read_bytes() == (one_dir / name).read_bytes(), name

    def test_report_after_a_shorter_rerun_reads_its_last_episode(self, tmp_path):
        """A 2-episode train into a 3-episode run's directory removes the
        older run's episode 3, so the report is episode 2's, as a clean
        2-episode run writes it."""
        fix = build_fixture(tmp_path, episodes=3)
        train = ["train", "--config", str(fix.config_path),
                 "--mock-script", str(fix.script_path)]
        run_dir, two_dir = tmp_path / "run", tmp_path / "two"
        assert main(train + ["--run-dir", str(run_dir)]) == 0
        assert (run_dir / "trajectory_3.jsonl").exists()
        for target in (run_dir, two_dir):
            assert main(train + ["--run-dir", str(target),
                                 "--override", "backtest.max_episodes=2"]) == 0
        assert main(["report", "--config", str(fix.config_path),
                     "--run-dir", str(run_dir)]) == 0
        for name in ("report.json", "metrics.csv"):
            assert (run_dir / name).read_bytes() == (two_dir / name).read_bytes(), name

    def test_aborted_test_rerun_leaves_no_earlier_test_output(self, tmp_path):
        """A test stage re-run into a completed test run's directory removes
        the earlier run's files first, so when it aborts on the third test
        day, ``report`` finds no trajectory instead of the earlier run's."""
        fix = build_fixture(tmp_path, n_test=4, episodes=1)
        train_dir, test_dir = tmp_path / "train", tmp_path / "test_run"
        assert main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path), "--run-dir", str(train_dir)]) == 0
        lines = [l for l in fix.script_path.read_text().splitlines()
                 if f"test:{fix.test_days[2].isoformat()}:decide" not in l]
        broken = fix.root / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        test = ["test", "--config", str(fix.config_path), "--run-dir", str(test_dir),
                "--override", "mode=test", "--override", f"backtest.train_run_dir={train_dir}"]
        assert main(test + ["--mock-script", str(fix.script_path)]) == 0
        assert (test_dir / "trajectory_test.jsonl").exists()
        assert main(test + ["--mock-script", str(broken)]) == 2
        left = {p.relative_to(test_dir).as_posix() for p in test_dir.rglob("*") if p.is_file()}
        assert left == {"config.used.json", "trajectory_test.FAILED.jsonl",
                        "prompts/assembled_test.jsonl"}
        assert main(["report", "--config", str(fix.config_path),
                     "--run-dir", str(test_dir)]) == 1

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
    def _build(self, tmp_path, phase_after_train_end=None, news_after_train_end=(),
               missing_bar=None):
        """Four tickers over 40 days, training through day 20. Each ticker's
        daily return follows a sine phase; ``phase_after_train_end`` gives
        tickers another phase after day 20. ``news_after_train_end`` tickers
        get five more news items after day 20, and ``missing_bar`` drops one
        ticker's bar (ticker, day index)."""
        root = tmp_path / "sel"
        root.mkdir(parents=True)
        days = trading_days(date(2022, 1, 3), 40)
        import math
        tickers = ["AAA", "BBB", "CCC", "DDD"]
        for j, t in enumerate(tickers):
            phases = [(phase_after_train_end or {}).get(t, j) if i > 20 else j
                      for i in range(40)]
            closes = [100.0 * math.exp(sum(0.01 * math.sin(0.9 * i + 2.1 * phases[i])
                                           for i in range(k))) for k in range(40)]
            kept = [i for i in range(40) if missing_bar != (t, i)]
            write_price_csv(root / f"{t}.csv", [days[i] for i in kept],
                            [closes[i] for i in kept])
        docs = []
        counts = {"AAA": 5, "BBB": 5, "CCC": 5, "DDD": 1}
        for t, count in counts.items():
            for i in range(count):
                docs.append({"doc_id": f"{t}-n{i}", "ticker": t, "kind": "news",
                             "published": days[2 + i].isoformat(), "body": "x"})
        for t in news_after_train_end:
            for i in range(5):
                docs.append({"doc_id": f"{t}-late{i}", "ticker": t, "kind": "news",
                             "published": days[25 + i].isoformat(), "body": "x"})
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

    def test_selection_ignores_data_after_train_end(self, tmp_path):
        """Bars and news after train_end, which BBB and DDD gain here, change
        neither the news counts nor the pick."""
        picks = []
        for name, kwargs in (("same", {}),
                             ("diverged", {"phase_after_train_end": {"BBB": 2},
                                           "news_after_train_end": ("DDD",)})):
            config = self._build(tmp_path / name, **kwargs)
            assert main(["select-stocks", "--config", str(config),
                         "--run-dir", str(tmp_path / name / "run")]) == 0
            out = json.loads((tmp_path / name / "run" / "selected_stocks.json").read_text())
            assert out["news_counts"]["DDD"] == 1
            picks.append(out["selected"])
        assert picks[0] == picks[1]

    def test_unequal_return_histories_exit_one_naming_them(self, tmp_path, capsys):
        config = self._build(tmp_path, missing_bar=("CCC", 10))
        code = main(["select-stocks", "--config", str(config),
                     "--run-dir", str(tmp_path / "sel_run")])
        assert code == 1
        assert "return histories differ in length: AAA 20, BBB 20, CCC 19" \
            in capsys.readouterr().err


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
