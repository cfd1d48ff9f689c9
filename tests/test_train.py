"""Trainer: returns, episode accounting, determinism, mixing, evaluation,
and the episode buffers' lifetime and memory."""

import tracemalloc

import numpy as np
import pytest

from platoonrl import nn
from platoonrl.consensus import ConsensusConfig, comm_bits_per_round
from platoonrl.env import N_ACTIONS, PlatoonEnv, ScenarioConfig, obs_dim_for
from platoonrl.errors import ConfigError
from platoonrl.nn import flatten_params, param_count
from platoonrl.train import (
    TrainConfig,
    consensus_bench,
    discounted_returns,
    evaluate,
    load_checkpoints,
    rollout,
    train,
    write_consensus_bench,
    write_train_log,
)


def tiny_scenario(**overrides):
    base = dict(
        n_vehicles=2,
        episode_steps=30,
        perturbation=None,
        init_spacing_jitter=0.05,
        init_velocity_jitter=0.05,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def tiny_train(**overrides):
    base = dict(total_steps=90, eval_seeds=2)
    base.update(overrides)
    return TrainConfig(**base)


class TestDiscountedReturns:
    def test_hand_example(self):
        out = discounted_returns(np.array([1.0, 0.0, 2.0]), 0.5)
        assert np.array_equal(out, [1.5, 1.0, 2.0])

    def test_gamma_zero_copies_rewards(self):
        r = np.array([3.0, -1.0, 0.5])
        assert np.array_equal(discounted_returns(r, 0.0), r)

    def test_gamma_one_sums_tail(self):
        out = discounted_returns(np.ones(5), 1.0)
        assert np.array_equal(out, [5.0, 4.0, 3.0, 2.0, 1.0])

    def test_empty(self):
        assert discounted_returns(np.array([]), 0.9).size == 0


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.gamma == 0.99
        assert cfg.actor_lr == 5e-4
        assert cfg.critic_lr == 2.5e-4
        assert cfg.consensus.protocol == "bdc"

    def test_rejects_bad_gamma(self):
        with pytest.raises(ConfigError):
            TrainConfig(gamma=1.5)

    def test_rejects_bad_lr(self):
        with pytest.raises(ConfigError):
            TrainConfig(actor_lr=0.0)

    def test_rejects_bad_obs_mode(self):
        with pytest.raises(ConfigError):
            TrainConfig(obs_mode="global")

    def test_rejects_bad_total_steps(self):
        with pytest.raises(ConfigError):
            TrainConfig(total_steps=0)


class TestTrain:
    def test_episode_accounting(self):
        # 90 env steps at 30 per episode -> exactly 3 episodes, each mixing
        # once, so the bit meter reads 3 rounds over the 2-agent pair
        result = train(tiny_train(), tiny_scenario(), hidden_dim=8)
        assert [row.episode for row in result.log] == [1, 2, 3]
        assert [row.steps for row in result.log] == [30, 60, 90], "cumulative steps"
        n_params = param_count(result.nets[0])
        per_round = comm_bits_per_round("bdc", n_params, 2)
        assert result.comm_bits == 3 * per_round
        assert result.log[-1].comm_bits_cum == result.comm_bits

    def test_nets_actually_move(self):
        cfg = tiny_train()
        scenario = tiny_scenario()
        result = train(cfg, scenario, hidden_dim=8)
        fresh = train(TrainConfig(total_steps=30, eval_seeds=2), scenario, hidden_dim=8)
        moved = np.max(np.abs(flatten_params(result.nets[0]) - flatten_params(fresh.nets[0])))
        assert moved > 0.0

    def test_deterministic_under_seed(self):
        cfg = tiny_train()
        scenario = tiny_scenario()
        a = train(cfg, scenario, seed=7, hidden_dim=8)
        b = train(cfg, scenario, seed=7, hidden_dim=8)
        for na, nb in zip(a.nets, b.nets):
            assert np.array_equal(flatten_params(na), flatten_params(nb))
        assert a.log == b.log

    def test_seeds_change_outcome(self):
        cfg = tiny_train()
        scenario = tiny_scenario()
        a = train(cfg, scenario, seed=7, hidden_dim=8)
        b = train(cfg, scenario, seed=8, hidden_dim=8)
        assert not np.array_equal(flatten_params(a.nets[0]), flatten_params(b.nets[0]))

    def test_pair_mixing_equalizes_weights(self):
        # closed-neighborhood averaging on two agents lands both on the
        # midpoint, so after every post-episode round the nets coincide
        cfg = tiny_train(consensus=ConsensusConfig(protocol="wac"))
        result = train(cfg, tiny_scenario(), hidden_dim=8)
        assert np.array_equal(
            flatten_params(result.nets[0]), flatten_params(result.nets[1])
        )

    def test_no_mixing_keeps_nets_apart(self):
        cfg = tiny_train(consensus=ConsensusConfig(protocol="none"))
        result = train(cfg, tiny_scenario(), hidden_dim=8)
        assert result.comm_bits == 0
        assert not np.array_equal(
            flatten_params(result.nets[0]), flatten_params(result.nets[1])
        )

    def test_consensus_period(self):
        cfg = tiny_train(consensus=ConsensusConfig(period=2))
        result = train(cfg, tiny_scenario(), hidden_dim=8)
        n_params = param_count(result.nets[0])
        assert result.comm_bits == comm_bits_per_round("bdc", n_params, 2)

    def test_compressed_gradient_path(self):
        cfg = tiny_train(compress_gradients=True)
        result = train(cfg, tiny_scenario(), hidden_dim=8)
        assert len(result.log) == 3
        assert np.all(np.isfinite(flatten_params(result.nets[0])))

    def test_fingerprint_mode(self):
        cfg = tiny_train(obs_mode="fprint")
        result = train(cfg, tiny_scenario(), hidden_dim=8)
        assert result.nets[0].obs_dim == 23

    def test_checkpoints_round_trip(self, tmp_path):
        cfg = tiny_train(checkpoint_every=2)
        result = train(cfg, tiny_scenario(), hidden_dim=8, checkpoint_dir=tmp_path)
        loaded = load_checkpoints(tmp_path, 2, "ia2c")
        for net, back in zip(result.nets, loaded):
            assert np.array_equal(flatten_params(net), flatten_params(back))

    def test_checkpoint_obs_width_mismatch_is_config_error(self, tmp_path):
        # ia2c checkpoints take 15 observation values; fprint gives 23
        train(tiny_train(), tiny_scenario(), hidden_dim=8, checkpoint_dir=tmp_path)
        with pytest.raises(ConfigError, match=r"agent0\.npz takes 15 .* 'fprint' gives 23"):
            load_checkpoints(tmp_path, 2, "fprint")


def stacked_net(n_agents, hidden_dim, seed=0, obs_dim=15):
    rng = np.random.default_rng(seed)
    return nn.stack_nets(
        [nn.init_agent_net(obs_dim, hidden_dim, N_ACTIONS, rng) for _ in range(n_agents)]
    )


class TestEpisodeBuffers:
    def test_reused_tape_gives_the_fresh_tape_episode(self):
        # Sampled on this net, seed 2 runs all 600 steps and seed 3 collides
        # after 480, so the second rollout leaves 120 of the first one's
        # rows in the tape, past the end of its own episode.
        env = PlatoonEnv(ScenarioConfig())
        net = stacked_net(env.n_agents, 8)
        tape = nn._empty_records(env.cfg.episode_steps, net)
        for seed, steps in ((2, 600), (3, 480)):
            got = rollout(env, net, "ia2c", seed, np.random.default_rng(seed), tape)
            want = rollout(env, net, "ia2c", seed, np.random.default_rng(seed))
            assert len(got.actions) == steps
            assert got.collisions == want.collisions
            for name in ("actions", "values", "rewards", "log"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            for name, a, b, buf in zip(nn.ForwardRecord._fields, got.tape, want.tape, tape):
                assert np.shares_memory(a, buf), name
                assert a.shape == b.shape and np.array_equal(a, b), name

    @pytest.mark.parametrize("obs_mode", ["ia2c", "fprint"])
    def test_tape_rows_are_the_forward_records(self, obs_mode, monkeypatch):
        # A sampled rollout has forward write each step straight into its
        # row of the tape. The tape's rows must equal forward's records
        # without `out`, taken on copies of the same inputs and stacked.
        # Seed 2 runs all 600 steps and seed 3 collides after 480, into the
        # same tape. The tape starts as nan, so a forward that does not
        # write into `out` fails here.
        env = PlatoonEnv(ScenarioConfig())
        net = stacked_net(env.n_agents, 8, obs_dim=obs_dim_for(obs_mode))
        tape = nn._empty_records(env.cfg.episode_steps, net)
        for buf in tape:
            buf.fill(np.nan)
        forward = nn.forward
        records = []

        def recording_forward(net, obs, hidden, out=None):
            fresh = forward(net, obs.copy(), nn.Hidden(hidden.h.copy(), hidden.c.copy()))
            records.append(fresh[3])
            return forward(net, obs, hidden, out)

        monkeypatch.setattr(nn, "forward", recording_forward)
        for seed, steps in ((2, 600), (3, 480)):
            records.clear()
            ep = rollout(env, net, obs_mode, seed, np.random.default_rng(seed), tape)
            assert len(ep.actions) == len(records) == steps
            fields = zip(nn.ForwardRecord._fields, ep.tape, zip(*records), tape)
            for name, got, want, buf in fields:
                assert np.shares_memory(got, buf), name
                assert np.array_equal(got, np.stack(want)), name

    def test_short_tape_is_rejected(self):
        env = PlatoonEnv(tiny_scenario())
        net = stacked_net(env.n_agents, 8)
        tape = nn._empty_records(env.cfg.episode_steps - 1, net)
        with pytest.raises(ValueError, match="fewer than the episode's 30 steps"):
            rollout(env, net, "ia2c", 0, np.random.default_rng(0), tape)

    @staticmethod
    def backward_peak(n_copies=1):
        """tracemalloc peak of one two-seed backward over a full 600-step,
        4-agent, hidden-64 episode (no perturbation, no jitter: nothing
        collides), its tape and seeds repeated n_copies times end to end."""
        env = PlatoonEnv(
            ScenarioConfig(perturbation=None, init_spacing_jitter=0.0, init_velocity_jitter=0.0)
        )
        net = stacked_net(env.n_agents, 64)
        rng = np.random.default_rng(0)
        ep = rollout(env, net, "ia2c", 0, rng)
        assert len(ep.actions) == 600
        tape = nn.ForwardRecord(*(np.concatenate([a] * n_copies) for a in ep.tape))
        d_policy = rng.normal(size=tape.policy.shape)
        d_value = rng.normal(size=tape.policy.shape[:2])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            nn.backward(net, tape, d_policy, d_value)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_backward_peak_memory(self):
        # backward builds dz, the heads' dL/dh and the gate factors for one
        # window of steps at a time, dz in two buffers that the recurrence
        # and the helper thread's products take in turn. The helper writes
        # its temporaries into its scratch, so the peak, about 7.9 MiB with
        # both gradients (8.1 on a process's first call, which imports the
        # executor), does not depend on the threads' timing. One more
        # episode-sized temporary (a (600, 4, 64) array is 1.2 MB) passes
        # 8.34.
        peak = self.backward_peak()
        assert peak <= 8.34 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_backward_memory_is_bounded_by_the_window(self):
        # Only the seeds' softmax terms and the head products grow with the
        # episode; a pass that kept dz for the whole episode would add about
        # 7 MiB per 600 steps.
        growth = self.backward_peak(2) - self.backward_peak(1)
        assert growth < 2**20, f"1200 steps peak {growth / 2**20:.2f} MiB above 600"


class TestGreedyRollout:
    @staticmethod
    def hand_rollout(env, net, obs_mode, seed):
        """A greedy episode by hand: nn.forward without `out`, each step's
        results in fresh arrays, then env.step."""
        obs = env.reset(seed=seed)
        obs_dim = obs_dim_for(obs_mode)
        zeros = np.zeros((env.n_agents, net.hidden_dim))
        hidden = nn.Hidden(zeros, zeros)
        actions, values, log = [], [], []
        for _ in range(env.cfg.episode_steps):
            policy, value, hidden, _ = nn.forward(net, obs[:, :obs_dim], hidden)
            actions.append(np.argmax(policy, axis=1))
            values.append(value)
            outcome = env.step(actions[-1], policy if obs_mode == "fprint" else None)
            log.append(env.vehicle_values())
            if outcome.done:
                break
            obs = outcome.observations
        return np.array(actions), np.array(values), np.stack(log, axis=1), outcome.collisions

    @pytest.mark.parametrize(
        "obs_mode, n_vehicles, replay",
        [("ia2c", 4, False), ("fprint", 4, False), ("ia2c", 6, True)],
        ids=["ia2c", "fprint", "trace-replay-6"],
    )
    def test_greedy_rollout_is_the_hand_loop(self, obs_mode, n_vehicles, replay):
        # A greedy rollout computes every step into one record; the hand
        # loop allocates each step's results. Heads scaled up so the argmax
        # moves between actions.
        cfg = ScenarioConfig(
            n_vehicles=n_vehicles, leader_mode="trace-replay" if replay else "virtual-target"
        )
        t = np.arange(cfg.episode_steps + 1) * cfg.dt
        profile = 15.0 + 2.0 * np.sin(2.0 * np.pi * t / 20.0) if replay else None
        env = PlatoonEnv(cfg, leader_profile=profile)
        net = stacked_net(env.n_agents, 8, seed=n_vehicles, obs_dim=obs_dim_for(obs_mode))
        net.actor_w *= 40.0
        net.critic_w *= 40.0
        for seed in range(3):
            ep = rollout(env, net, obs_mode, seed)
            actions, values, log, collisions = self.hand_rollout(env, net, obs_mode, seed)
            assert ep.tape is None
            assert np.array_equal(ep.actions, actions)
            assert np.array_equal(ep.values, values)
            assert np.array_equal(ep.log, log, equal_nan=True)
            assert ep.collisions == collisions
            assert len(np.unique(actions)) > 1


class TestTrainLog:
    def test_csv_format(self, tmp_path):
        result = train(tiny_train(), tiny_scenario(), hidden_dim=8)
        path = tmp_path / "log.csv"
        write_train_log(result.log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "episode,steps,mean_reward,collisions,comm_bits_cum"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "30"
        float(first[2])

    def test_byte_identical_on_repeat(self, tmp_path):
        cfg = tiny_train()
        scenario = tiny_scenario()
        paths = []
        for name in ("a.csv", "b.csv"):
            result = train(cfg, scenario, seed=3, hidden_dim=8)
            p = tmp_path / name
            write_train_log(result.log, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


class TestEvaluate:
    def test_set_point_rollout_statistics(self):
        # untrained gain switching cannot leave the set point when the
        # episode starts exactly on it, whatever actions greedy play picks
        scenario = tiny_scenario(
            init_spacing_jitter=0.0, init_velocity_jitter=0.0, n_vehicles=3
        )
        result = train(tiny_train(total_steps=60), scenario, hidden_dim=8)
        report = evaluate(result.nets, scenario, 3)
        assert len(report.rows) == 3
        for row in report.rows:
            assert row.ivs_mean_m == pytest.approx(20.0, abs=1e-12)
            assert row.ivs_std_m == pytest.approx(0.0, abs=1e-12)
            assert row.velocity_mean_mps == pytest.approx(15.0, abs=1e-12)
            assert row.collisions == 0
        agg = report.aggregate
        assert agg.seed == "all"
        assert agg.ivs_mean_m == pytest.approx(20.0, abs=1e-12)
        assert agg.collisions == 0

    def test_energy_accounting(self):
        # 3 vehicles cruising at 15 m/s for 30 steps of 0.1 s: power is
        # 3 * 4.86383 kW and energy is power * 3 s / 3600
        scenario = tiny_scenario(
            init_spacing_jitter=0.0, init_velocity_jitter=0.0, n_vehicles=3
        )
        result = train(tiny_train(total_steps=60), scenario, hidden_dim=8)
        report = evaluate(result.nets, scenario, 1)
        row = report.rows[0]
        assert row.power_mean_kw == pytest.approx(3 * 4.86383, abs=1e-3)
        assert row.energy_kwh == pytest.approx(3 * 4.86383 * 3.0 / 3600.0, abs=1e-4)

    def test_report_csv_shape(self, tmp_path):
        scenario = tiny_scenario()
        result = train(tiny_train(), scenario, hidden_dim=8)
        report = evaluate(result.nets, scenario, 2)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("seed,ivs_mean_m,ivs_std_m,velocity_mean_mps")
        assert len(lines) == 4, "two seed rows plus the aggregate"
        assert lines[-1].startswith("all,")

    def test_eval_is_deterministic(self):
        scenario = tiny_scenario()
        result = train(tiny_train(), scenario, hidden_dim=8)
        a = evaluate(result.nets, scenario, 2)
        b = evaluate(result.nets, scenario, 2)
        assert a.rows == b.rows and a.aggregate == b.aggregate


class TestCompareProtocols:
    def test_bit_meter_ratio(self):
        # One run per protocol at the same seed and scenario.
        scenario = tiny_scenario()
        bits = {
            protocol: train(
                tiny_train(consensus=ConsensusConfig(protocol=protocol)), scenario, hidden_dim=8
            ).comm_bits
            for protocol in ("bdc", "wac")
        }
        assert bits["bdc"] * 16 == bits["wac"]


class TestConsensusBench:
    def test_spread_decays_and_bits_accumulate(self):
        rows = consensus_bench(("bdc", "wac"), n_agents=4, n_params=16, rounds=50)
        by_protocol = {}
        for rnd, protocol, spread, bits in rows:
            by_protocol.setdefault(protocol, []).append((rnd, spread, bits))
        for protocol, series in by_protocol.items():
            assert series[0][0] == 0 and series[0][2] == 0
            assert len(series) == 51
        wac = by_protocol["wac"]
        assert wac[-1][1] < wac[0][1] * 1e-3
        per_round = comm_bits_per_round("wac", 16, 4)
        assert wac[-1][2] == 50 * per_round

    def test_csv_format(self, tmp_path):
        rows = consensus_bench(("bdc",), n_agents=2, n_params=4, rounds=3)
        path = tmp_path / "bench.csv"
        write_consensus_bench(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,protocol,spread,bits_cumulative"
        assert len(lines) == 5
