import json
from dataclasses import asdict
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fincon.backtest import DayRecord, RunWriter, Trajectory
from fincon.errors import (
    AlphaOutOfRange,
    EmptyHistory,
    EmptySequence,
    IncompleteEpisode,
    LengthMismatch,
)
from fincon.llm_gateway import LlmGateway
from fincon.memory import MemoryStore
from fincon.risk_control import (
    ASPECTS,
    BeliefUpdate,
    ConceptInsight,
    RiskState,
    alert_trigger,
    aspects_in_text,
    compare_and_update,
    conceptualize,
    convergence_check,
    cvar,
    edit_instruction,
    extract_runs,
    overlap_percentage,
    var_cvar,
    within_episode_check,
)

from fixtures import oracle_runs, oracle_var_cvar, trading_days


class TestCvar:
    def test_worked_case(self):
        history = [-5, -3, -1, 0, 2, 4, 6, 8, 10, 12]
        var, cv = var_cvar(history, 0.2)
        assert var == -3.0
        assert cv == -4.0

    def test_all_equal_history(self):
        assert cvar([3.5] * 7, 0.2) == 3.5

    def test_empty_history(self):
        with pytest.raises(EmptyHistory):
            cvar([], 0.5)

    def test_alpha_out_of_range(self):
        with pytest.raises(AlphaOutOfRange):
            cvar([1.0], 0.0)
        with pytest.raises(AlphaOutOfRange):
            cvar([1.0], 1.0)

    def test_matches_brute_force_oracle_on_random_histories(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 500))
            history = rng.standard_normal(n) * rng.uniform(0.1, 10)
            alpha = float(rng.uniform(0.005, 0.995))
            got_var, got_cvar = var_cvar(history.tolist(), alpha)
            want_var, want_cvar = oracle_var_cvar(history.tolist(), alpha)
            assert abs(got_var - want_var) <= 1e-12
            assert abs(got_cvar - want_cvar) <= 1e-12

    # dyadic-rational values keep x + c exact, preserving the tie structure
    # that the <=-VaR tail definition depends on
    @given(st.lists(st.integers(-3200, 3200).map(lambda i: i / 32.0),
                    min_size=1, max_size=60),
           st.floats(0.01, 0.99),
           st.integers(-1600, 1600).map(lambda i: i / 32.0))
    @settings(max_examples=80)
    def test_translation_equivariance(self, xs, alpha, c):
        shifted = cvar([x + c for x in xs], alpha)
        assert abs(shifted - (cvar(xs, alpha) + c)) < 1e-9


class TestWithinEpisodeCheck:
    @pytest.mark.parametrize("rho_delta", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("r_t", [-0.01, 0.0, 0.01])
    def test_truth_table_when_armed(self, rho_delta, r_t):
        prev = -2.0
        state = RiskState(date=date(2022, 1, 20), cvar=prev + rho_delta,
                          prev_cvar=prev, alert=False, history_len=10)
        checked = within_episode_check(state, r_t, min_history=10)
        assert checked.alert == (rho_delta < 0 or r_t < 0)

    def test_zero_pnl_is_not_negative(self):
        state = RiskState(date=date(2022, 1, 20), cvar=-2.0, prev_cvar=-2.0,
                          alert=False, history_len=30)
        assert not within_episode_check(state, 0.0).alert

    def test_cvar_branch_disarmed_before_min_history(self):
        state = RiskState(date=date(2022, 1, 5), cvar=-3.0, prev_cvar=-2.0,
                          alert=False, history_len=5)
        assert not within_episode_check(state, 0.01, min_history=10).alert
        # the negative-PnL branch still fires
        assert within_episode_check(state, -0.01, min_history=10).alert

    def test_trigger_precedence(self):
        armed = RiskState(date=date(2022, 1, 20), cvar=-3.0, prev_cvar=-2.0,
                          alert=False, history_len=15)
        assert alert_trigger(armed, -0.01) == "cvar_drop"
        assert alert_trigger(armed, 0.02) == "cvar_drop"
        flat = RiskState(date=date(2022, 1, 20), cvar=-2.0, prev_cvar=-2.0,
                         alert=False, history_len=15)
        assert alert_trigger(flat, -0.01) == "negative_pnl"
        assert alert_trigger(flat, 0.01) is None


class TestOverlap:
    def test_identical(self):
        assert overlap_percentage(["long"] * 10, ["long"] * 10) == 1.0

    def test_paper_training_episode_anchors(self):
        base = ["long"] * 49
        for agree, pct in ((23, 46.939), (35, 71.429), (40, 81.633)):
            other = ["long"] * agree + ["short"] * (49 - agree)
            assert abs(overlap_percentage(base, other) * 100 - pct) < 1e-3

    def test_symmetry(self):
        a = ["long", "short", "neutral", "long"]
        b = ["short", "short", "neutral", "neutral"]
        assert overlap_percentage(a, b) == overlap_percentage(b, a)

    @given(st.lists(st.sampled_from(["long", "short", "neutral"]),
                    min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_equals_one_iff_identical(self, a):
        assert overlap_percentage(a, a) == 1.0
        flipped = list(a)
        flipped[0] = "short" if flipped[0] != "short" else "long"
        assert overlap_percentage(a, flipped) < 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            overlap_percentage(["long"], ["long", "short"])

    def test_empty(self):
        with pytest.raises(EmptySequence):
            overlap_percentage([], [])


class TestEditInstruction:
    def test_bands(self):
        assert "rewrite" in edit_instruction(0.2)
        assert "Revise" in edit_instruction(0.5)
        assert "Revise" in edit_instruction(0.79)
        assert "minimal" in edit_instruction(0.8)
        assert "minimal" in edit_instruction(0.95)


class TestConvergence:
    def test_paper_schedule_stops_after_four_episodes(self):
        taus = [0.46939, 0.71429, 0.81633]
        objectives = [1.0, 1.5, 1.8, 1.8 + 1e-9]
        assert convergence_check(taus, objectives, epsilon=1e-6)

    def test_low_overlap_continues(self):
        assert not convergence_check([0.5], [1.0, 2.0], epsilon=1e-6)

    def test_max_episodes_stops_regardless(self):
        assert convergence_check([0.1], [1.0, 2.0, 3.0], max_episodes=3)

    def test_too_few_episodes(self):
        assert not convergence_check([], [1.0])


class TestExtractRuns:
    def test_hand_cases(self):
        assert extract_runs([1, 1, -1, -1, -1, 0, 1], min_len=2) == [
            {"start": 0, "end": 1, "sign": 1},
            {"start": 2, "end": 4, "sign": -1},
        ]
        assert extract_runs([0, 0, 0], min_len=2) == []
        assert extract_runs([1, -1, 1, -1], min_len=2) == []

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pnls = [float(x) for x in
                    rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=rng.integers(0, 30))]
            min_len = int(rng.integers(1, 4))
            got = [(r["start"], r["end"], r["sign"]) for r in extract_runs(pnls, min_len)]
            assert got == oracle_runs(pnls, min_len)


def make_trajectory(pnls, episode=1, directions=None, start=date(2022, 3, 1),
                    objective=None):
    days = trading_days(start, len(pnls))
    records = []
    for i, (d, pnl) in enumerate(zip(days, pnls)):
        direction = directions[i] if directions else ("long" if pnl >= 0 else "short")
        records.append(DayRecord(
            date=d, directions={"SYN": direction}, weights={"SYN": 1.0},
            target_shares={"SYN": 10.0}, pnl=float(pnl), cvar=-0.01, alert=False,
            trigger=None, reflections=[], reasoning=f"reasoning day {i}",
            insights={"data_analyst:SYN": f"insight day {i}"},
            cited_memory_ids=[]))
    traj = Trajectory(episode=episode, days=records)
    traj.objective = sum(pnls) if objective is None else objective
    return traj


class ScriptableBackend:
    def __init__(self, by_phase):
        self.by_phase = by_phase
        self.requests = []

    def generate(self, request):
        self.requests.append(request)
        phase = request.step_key.rsplit(":", 1)[-1]
        return self.by_phase[phase]


class TestConceptualize:
    def test_all_neutral_trajectory_yields_empty_without_gateway(self):
        traj = make_trajectory([0.0] * 8)
        backend = ScriptableBackend({})
        got = conceptualize(traj, ["data_analyst"], LlmGateway(backend))
        assert got == []
        assert backend.requests == []

    def test_scripted_insights_are_vocabulary_checked(self):
        traj = make_trajectory([0.01, 0.02, 0.03, -0.01])
        backend = ScriptableBackend({"conceptualize": json.dumps(
            {"insights": {"historical momentum": "ride trends",
                          "news insights": "watch headlines"}})})
        got = conceptualize(traj, ["data_analyst"], LlmGateway(backend))
        assert [c.aspect for c in got] == ["historical momentum", "news insights"]
        assert backend.requests[0].temperature == 0.0

    def test_prompt_contains_exactly_the_run_dates(self):
        # one 3-day winning run in the middle, surrounded by zeros
        pnls = [0.0, 0.01, 0.02, 0.03, 0.0, 0.0]
        traj = make_trajectory(pnls)
        backend = ScriptableBackend({"conceptualize": json.dumps(
            {"insights": {"historical momentum": "x"}})})
        conceptualize(traj, ["data_analyst"], LlmGateway(backend))
        prompt = backend.requests[0].user_prompt
        run_days = {traj.days[i].date.isoformat() for i in (1, 2, 3)}
        other_days = {traj.days[i].date.isoformat() for i in (0, 4, 5)}
        for d in run_days:
            assert d in prompt
        for d in other_days:
            assert d not in prompt
        for i in (1, 2, 3):
            assert f"reasoning day {i}" in prompt
            assert f"insight day {i}" in prompt

    def test_invalid_aspect_key_raises(self):
        traj = make_trajectory([0.01, 0.02])
        backend = ScriptableBackend({"conceptualize": json.dumps(
            {"insights": {"astrology": "x"}})})
        from fincon.errors import SchemaViolationAfterRetries
        with pytest.raises(SchemaViolationAfterRetries):
            conceptualize(traj, ["data_analyst"], LlmGateway(backend), max_retries=0)


def belief_backend(meta="Focus on historical momentum and news insights."):
    return ScriptableBackend({
        "conceptualize": json.dumps({"insights": {
            "historical momentum": "m", "news insights": "n",
            "Form 10-Q": "q", "other aspects": "sector trends"}}),
        "belief_update": json.dumps({
            "meta_prompt": meta,
            "beliefs": {"historical momentum": "new m", "news insights": "new n",
                        "Form 10-Q": "new q", "other aspects": "sector trends"}}),
    })


ANALYSTS = {"data_analyst:SYN": "data_analyst", "news_analyst:SYN": "news_analyst"}


class TestCompareAndUpdate:
    def test_winner_is_argmax(self):
        prev = make_trajectory([0.01, 0.02], episode=1, objective=1.0)
        cur = make_trajectory([0.03, 0.04], episode=2, objective=2.0)
        update = compare_and_update(prev, cur, {},
                                       LlmGateway(belief_backend()), ANALYSTS)
        assert update.winner == 2
        prev.objective, cur.objective = 2.0, 1.0
        update = compare_and_update(prev, cur, {},
                                       LlmGateway(belief_backend()), ANALYSTS)
        assert update.winner == 1

    def test_tie_prefers_current_episode(self):
        prev = make_trajectory([0.01, 0.02], episode=3, objective=1.5)
        cur = make_trajectory([0.01, 0.02], episode=4, objective=1.5)
        update = compare_and_update(prev, cur, {},
                                       LlmGateway(belief_backend()), ANALYSTS)
        assert update.winner == 4

    def test_update_structure_matches_reported_aspect_set(self):
        prev = make_trajectory([0.01, 0.02, -0.01, -0.02], episode=1, objective=1.0)
        cur = make_trajectory([0.02, 0.01, 0.01, -0.02], episode=2, objective=2.0)
        update = compare_and_update(prev, cur, {}, LlmGateway(belief_backend()), ANALYSTS)
        assert set(update.beliefs) == {"historical momentum", "news insights",
                                       "Form 10-Q", "other aspects"}

    def test_learning_rate_is_action_overlap(self):
        prev = make_trajectory([0.01] * 4, episode=1, objective=1.0,
                               directions=["long", "long", "long", "long"])
        cur = make_trajectory([0.01] * 4, episode=2, objective=2.0,
                              directions=["long", "short", "long", "short"])
        update = compare_and_update(prev, cur, {},
                                       LlmGateway(belief_backend()), ANALYSTS)
        assert update.learning_rate == 0.5

    def test_target_agents_from_meta_prompt_aspects(self):
        prev = make_trajectory([0.01, 0.02], episode=1, objective=1.0)
        cur = make_trajectory([0.01, 0.02], episode=2, objective=2.0)
        update = compare_and_update(
            prev, cur, {},
            LlmGateway(belief_backend(meta="Lean harder on news insights only.")),
            ANALYSTS)
        assert update.target_agents == ("manager", "news_analyst:SYN")

    def test_edit_instruction_scales_with_tau(self):
        prev = make_trajectory([0.01] * 4, episode=1, objective=1.0, directions=["long"] * 4)
        cur = make_trajectory([0.01] * 4, episode=2, objective=2.0, directions=["short"] * 4)
        backend = belief_backend()
        compare_and_update(prev, cur, {},
                           LlmGateway(backend), ANALYSTS)
        update_prompt = backend.requests[-1].user_prompt
        assert "Substantially rewrite" in update_prompt

    def test_incomplete_episode_rejected(self):
        prev = make_trajectory([0.01, 0.02], episode=1, objective=1.0)
        cur = Trajectory(episode=2, days=[])
        with pytest.raises(IncompleteEpisode):
            compare_and_update(prev, cur, {},
                               LlmGateway(belief_backend()), ANALYSTS)


class TestAspectsInText:
    def test_case_insensitive_substring(self):
        text = "We should trust HISTORICAL MOMENTUM and Form 10-Q data."
        assert aspects_in_text(text) == ["historical momentum", "Form 10-Q"]

    def test_vocabulary_is_the_figure_keys_plus_other(self):
        assert ASPECTS == ("historical momentum", "news insights", "Form 10-Q",
                           "Form 10-K", "ECC", "other aspects")


class TestTypes:
    def test_concept_insight_rejects_unknown_aspect(self):
        with pytest.raises(ValueError):
            ConceptInsight(aspect="astrology", text="x")

    def test_belief_update_rejects_unknown_aspect(self):
        with pytest.raises(ValueError, match="belief_block key 'astrology'"):
            BeliefUpdate(episode_pair=(1, 2), winner=2, insights_prev=(), insights_cur=(),
                         meta_prompt="m", learning_rate=0.5, target_agents=("manager",),
                         beliefs={"astrology": "x"})

    def test_final_belief_block_round_trip(self, tmp_path):
        beliefs = {"ECC": "listen closely"}
        writer = RunWriter(tmp_path)
        writer.write_prompt_set(beliefs)
        writer.write_memory(MemoryStore())
        path = tmp_path / "prompts" / "final" / "prompt_set.json"
        assert json.loads(path.read_text()) == {"belief_block": beliefs}
        assert writer.read_belief_block() == beliefs

    def test_earlier_prompt_set_reads_its_belief_block(self, tmp_path):
        """Training runs of earlier versions also stored the profile texts."""
        writer = RunWriter(tmp_path)
        writer.write_memory(MemoryStore())
        writer.path("prompts", "final", "prompt_set.json").write_text(json.dumps({
            "analyst_prompts": {"data_analyst:SYN": "d"},
            "belief_block": {"ECC": "listen closely"},
            "manager_prompt": "m"}))
        assert writer.read_belief_block() == {"ECC": "listen closely"}

    def test_belief_update_serializes(self, tmp_path):
        update = BeliefUpdate(
            episode_pair=(1, 2), winner=2,
            insights_prev=(ConceptInsight("news insights", "a"),),
            insights_cur=(ConceptInsight("ECC", "b"),),
            meta_prompt="m", learning_rate=0.5,
            target_agents=("manager",), beliefs={"ECC": "b"})
        RunWriter(tmp_path).write_belief(2, update)
        text = (tmp_path / "beliefs" / "episode_2.json").read_text()
        assert text == json.dumps(asdict(update), sort_keys=True, indent=2) + "\n"
        payload = json.loads(text)
        assert payload["episode_pair"] == [1, 2]
        assert payload["insights_prev"] == [{"aspect": "news insights", "text": "a"}]
        assert payload["target_agents"] == ["manager"]
        assert payload["learning_rate"] == 0.5
