"""Episode-matrix BPTT and the A2C loss seeds against the per-step reference.

backward() forms its weight gradients as products over the whole episode,
which sums the steps in another order than the per-step reference in
reference_nn.py, so the two gradients must agree within 1e-12 of the
gradient's largest entry. The loss seeds train builds as arrays must be
bit-equal to the reference's per-step lists.
"""

import numpy as np
import pytest

from platoonrl import nn
from platoonrl.train import TrainConfig, _update_agent, discounted_returns, rollout
from platoonrl.env import N_ACTIONS, PlatoonEnv, ScenarioConfig

import reference_nn as ref

OBS_DIM = 15


def recorded_episode(seed, hidden_dim, n_steps, head_scale):
    rng = np.random.default_rng(seed)
    net = nn.init_agent_net(OBS_DIM, hidden_dim, N_ACTIONS, rng)
    net.actor_w *= head_scale
    net.critic_w *= head_scale
    hidden = nn.zero_hidden(hidden_dim)
    records = []
    scale = rng.uniform(0.3, 3.0)
    for _ in range(n_steps):
        _, _, hidden, record = nn.forward(net, rng.normal(scale=scale, size=OBS_DIM), hidden)
        records.append(record)
    return net, records, rng


@pytest.mark.parametrize("hidden_dim", [8, 64])
@pytest.mark.parametrize("n_steps", [1, 2, 13, 150, 600])
@pytest.mark.parametrize("head_scale", [1.0, 40.0])
def test_backward_matches_per_step_reference(hidden_dim, n_steps, head_scale):
    seed = 1000 * hidden_dim + n_steps + int(head_scale)
    net, records, rng = recorded_episode(seed, hidden_dim, n_steps, head_scale)
    d_policy = rng.normal(size=(n_steps, N_ACTIONS))
    d_value = rng.normal(size=n_steps)
    got = nn.backward(net, records, d_policy, d_value)
    want = ref.backward(net, records, list(zip(d_policy, d_value)))
    assert got.shape == want.shape
    err = np.max(np.abs(got - want))
    assert err <= 1e-12 * np.max(np.abs(want)), f"max abs difference {err}"


def test_backward_rejects_seed_shapes():
    net, records, _ = recorded_episode(0, 8, 3, 1.0)
    with pytest.raises(ValueError):
        nn.backward(net, records, np.zeros((3, N_ACTIONS + 1)), np.zeros(3))
    with pytest.raises(ValueError):
        nn.backward(net, records, np.zeros((3, N_ACTIONS)), np.zeros((3, 1)))


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("seed", [0, 7])
def test_loss_seeds_bit_equal_to_reference(normalize, seed, monkeypatch):
    cfg = TrainConfig(normalize_advantages=normalize, entropy_coeff=0.03)
    env = PlatoonEnv(ScenarioConfig(n_vehicles=3, episode_steps=60))
    rng = np.random.default_rng(seed)
    nets = [nn.init_agent_net(OBS_DIM, 8, N_ACTIONS, rng) for _ in range(env.n_agents)]
    ep = rollout(env, nets, "ia2c", seed, rng)
    calls = []

    def capture(net, records, d_policy, d_value):
        calls.append((records, d_policy, d_value))
        return np.zeros(net.params.size)

    monkeypatch.setattr(nn, "backward", capture)
    for agent, net in enumerate(nets):
        calls.clear()
        _update_agent(cfg, net, ep, agent, None, 1)
        (rec_a, dp_a, dv_a), (rec_c, dp_c, dv_c) = calls
        assert rec_a is ep.records[agent] and rec_c is ep.records[agent]

        rewards = [float(r) for r in ep.rewards[:, agent]]
        values = [float(v) for v in ep.values[:, agent]]
        returns = discounted_returns(np.array(rewards), cfg.gamma)
        advantages = returns - np.array(values)
        if normalize:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        actions = [int(a) for a in ep.actions[:, agent]]
        for got_p, got_v, want in (
            (dp_a, dv_a, ref.actor_loss_grads(
                ep.records[agent], actions, advantages, cfg.entropy_coeff)),
            (dp_c, dv_c, ref.critic_loss_grads(values, returns, N_ACTIONS)),
        ):
            assert np.array_equal(got_p, np.array([p for p, _ in want]))
            assert np.array_equal(got_v, np.array([v for _, v in want]))
