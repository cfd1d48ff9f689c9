"""The network passes and the A2C loss seeds against their references.

- The agent-batched forward() must be bit-equal, agent by agent, to the
  single-agent forward in reference_nn.py. Each of the two gradients the
  agent-batched backward() returns must be within 1e-12 of its largest
  entry of the single-agent matrix-form backward seeded by that loss alone,
  over episodes that end inside, on and just past its window edges.
- backward() pipelines its windows over a helper thread, and must give
  the bits of the serial windowed pass it replaced, over the same cases.
- backward() forms its weight gradients as a sum of products over windows
  of steps, which sums the steps in another order than the per-step
  reference, so the two gradients must agree within 1e-12 of the
  gradient's largest entry.
- The loss seeds train builds as arrays must be bit-equal to the
  reference's per-step lists.
- forward() with an `out` record must give the bits it gives without one,
  write every record field into `out`, and leave its inputs alone, also
  when `out` shares its carry rows with `hidden` as a training tape does.
- The batched action sampler must give the actions and generator state of
  one rng.choice per agent.
"""

import math

import numpy as np
import pytest

from platoonrl import nn
from platoonrl.nn import _empty_records as _episode_tape
from platoonrl.train import (
    TrainConfig,
    _update,
    discounted_returns,
    rollout,
    sample_actions,
)
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
    got = ref.one_agent_backward(net, records, d_policy, d_value)
    want = ref.backward(net, records, list(zip(d_policy, d_value)))
    assert got.shape == want.shape
    err = np.max(np.abs(got - want))
    assert err <= 1e-12 * np.max(np.abs(want)), f"max abs difference {err}"


def test_backward_rejects_seed_shapes():
    net, records, _ = recorded_episode(0, 8, 3, 1.0)
    with pytest.raises(ValueError):
        ref.one_agent_backward(net, records, np.zeros((3, N_ACTIONS + 1)), np.zeros(3))
    with pytest.raises(ValueError):
        ref.one_agent_backward(net, records, np.zeros((3, N_ACTIONS)), np.zeros((3, 1)))


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("seed", [0, 7])
def test_loss_seeds_bit_equal_to_reference(normalize, seed, monkeypatch):
    cfg = TrainConfig(normalize_advantages=normalize, entropy_coeff=0.03)
    env = PlatoonEnv(ScenarioConfig(n_vehicles=3, episode_steps=60))
    rng = np.random.default_rng(seed)
    net = nn.stack_nets(
        [nn.init_agent_net(OBS_DIM, 8, N_ACTIONS, rng) for _ in range(env.n_agents)]
    )
    ep = rollout(env, net, "ia2c", seed, rng)
    calls = []

    def capture(net, records, d_policy, d_value):
        calls.append((records, d_policy, d_value))
        return np.zeros(net.params.shape), np.zeros(net.params.shape)

    monkeypatch.setattr(nn, "backward", capture)
    _update(cfg, net, ep, None, 1)
    # One call: the actor's policy seeds and the critic's value seeds. The
    # reference's actor value seeds and critic policy seeds are all zero.
    ((rec, dp_a, dv_c),) = calls
    assert rec is ep.tape
    for agent in range(env.n_agents):
        records = [
            nn.ForwardRecord(*(a[t, agent] for a in ep.tape)) for t in range(len(ep.actions))
        ]
        rewards = [float(r) for r in ep.rewards[:, agent]]
        values = [float(v) for v in ep.values[:, agent]]
        returns = discounted_returns(np.array(rewards), cfg.gamma)
        advantages = returns - np.array(values)
        if normalize:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        actions = [int(a) for a in ep.actions[:, agent]]
        actor = ref.actor_loss_grads(records, actions, advantages, cfg.entropy_coeff)
        critic = ref.critic_loss_grads(values, returns, N_ACTIONS)
        assert np.array_equal(dp_a[:, agent], np.array([p for p, _ in actor]))
        assert np.array_equal(dv_c[:, agent], np.array([v for _, v in critic]))
        assert not any(v for _, v in actor)
        assert not np.any([p for p, _ in critic])


def batched_episode(seed, n_agents, hidden_dim, n_steps, head_scale):
    """One episode of random observations through an agent-batched net and,
    agent by agent, through the single-agent reference forward."""
    rng = np.random.default_rng(seed)
    nets = [nn.init_agent_net(OBS_DIM, hidden_dim, N_ACTIONS, rng) for _ in range(n_agents)]
    for net in nets:
        net.actor_w *= head_scale
        net.critic_w *= head_scale
        net.actor_b += rng.normal(scale=0.3, size=N_ACTIONS)
    stacked = nn.stack_nets(nets)
    scale = rng.uniform(0.3, 3.0, size=(n_agents, 1))
    obs = rng.normal(size=(n_steps, n_agents, OBS_DIM)) * scale
    hidden = nn.Hidden(np.zeros((n_agents, hidden_dim)), np.zeros((n_agents, hidden_dim)))
    hiddens = [nn.zero_hidden(hidden_dim) for _ in nets]
    steps, ref_steps = [], [[] for _ in nets]
    for t in range(n_steps):
        policy, value, hidden, record = nn.forward(stacked, obs[t], hidden)
        steps.append((policy, value, hidden, record))
        for i, net in enumerate(nets):
            out = ref.forward(net, obs[t, i], hiddens[i])
            hiddens[i] = out[2]
            ref_steps[i].append(out)
    return rng, nets, stacked, steps, ref_steps


BATCH_CASES = [
    (n_agents, hidden_dim, n_steps, head_scale)
    for n_agents in (1, 2, 5, 8)
    for hidden_dim in (8, 64)
    for n_steps in (1, 2, 13, 150, 600)
    for head_scale in (1.0, 40.0)
]


@pytest.mark.parametrize("n_agents,hidden_dim,n_steps,head_scale", BATCH_CASES)
def test_batched_forward_bit_equal_to_single_agent(n_agents, hidden_dim, n_steps, head_scale):
    seed = 100_000 * n_agents + 1000 * hidden_dim + n_steps + int(head_scale)
    _, _, _, steps, ref_steps = batched_episode(seed, n_agents, hidden_dim, n_steps, head_scale)
    for t, (policy, value, hidden, record) in enumerate(steps):
        assert policy.shape == (n_agents, N_ACTIONS) and value.shape == (n_agents,)
        for i in range(n_agents):
            r_policy, r_value, r_hidden, r_record = ref_steps[i][t]
            assert np.array_equal(policy[i], r_policy)
            assert value[i] == r_value
            assert np.array_equal(hidden.h[i], r_hidden.h)
            assert np.array_equal(hidden.c[i], r_hidden.c)
            for got, want in zip(record, r_record):
                assert np.array_equal(got[i], want)


# Episodes that end inside, on and just past backward()'s window edges.
WINDOW_CASES = [
    (3, hidden_dim, n_steps, 40.0)
    for hidden_dim in (8, 64)
    for n_steps in (1, nn._WINDOW - 1, nn._WINDOW, nn._WINDOW + 1, 2 * nn._WINDOW + 1, 600)
]


@pytest.mark.parametrize("n_agents,hidden_dim,n_steps,head_scale", BATCH_CASES + WINDOW_CASES)
def test_batched_backward_matches_single_agent(n_agents, hidden_dim, n_steps, head_scale):
    seed = 100_000 * n_agents + 1000 * hidden_dim + n_steps + int(head_scale)
    rng, nets, stacked, steps, ref_steps = batched_episode(
        seed, n_agents, hidden_dim, n_steps, head_scale
    )
    tape = nn.ForwardRecord(*map(np.array, zip(*(record for *_, record in steps))))
    d_policy = rng.normal(size=(n_steps, n_agents, N_ACTIONS))
    d_value = rng.normal(size=(n_steps, n_agents))
    g_policy, g_value = nn.backward(stacked, tape, d_policy, d_value)
    assert g_policy.shape == g_value.shape == stacked.params.shape
    for i, net in enumerate(nets):
        records = [record for *_, record in ref_steps[i]]
        # Each gradient against the reference seeded by its loss alone.
        for name, got, seeds in (
            ("policy", g_policy[i], (d_policy[:, i].copy(), np.zeros(n_steps))),
            ("value", g_value[i], (np.zeros((n_steps, N_ACTIONS)), d_value[:, i].copy())),
        ):
            want = ref.matrix_backward(net, records, *seeds)
            err = np.max(np.abs(got - want))
            assert err <= 1e-12 * np.max(np.abs(want)), f"agent {i}, {name}: difference {err}"


@pytest.mark.parametrize("n_agents,hidden_dim,n_steps,head_scale", BATCH_CASES + WINDOW_CASES)
def test_backward_bit_equal_to_serial_windowed_pass(n_agents, hidden_dim, n_steps, head_scale):
    # The pipelined pass computes every element by the serial pass's
    # arithmetic and adds into the gradients in the same order.
    seed = 100_000 * n_agents + 1000 * hidden_dim + n_steps + int(head_scale)
    rng, _, stacked, steps, _ = batched_episode(seed, n_agents, hidden_dim, n_steps, head_scale)
    tape = nn.ForwardRecord(*map(np.array, zip(*(record for *_, record in steps))))
    d_policy = rng.normal(size=(n_steps, n_agents, N_ACTIONS))
    d_value = rng.normal(size=(n_steps, n_agents))
    got = nn.backward(stacked, tape, d_policy, d_value)
    want = ref.windowed_backward(stacked, tape, d_policy, d_value)
    for name, g, w in zip(("policy", "value"), got, want):
        assert np.array_equal(g, w), name


def test_batched_backward_rejects_seed_shapes():
    _, _, stacked, steps, _ = batched_episode(0, 3, 8, 4, 1.0)
    tape = nn.ForwardRecord(*map(np.array, zip(*(record for *_, record in steps))))
    with pytest.raises(ValueError):
        nn.backward(stacked, tape, np.zeros((4, N_ACTIONS)), np.zeros(4))
    with pytest.raises(ValueError):
        nn.backward(stacked, tape, np.zeros((4, 2, N_ACTIONS)), np.zeros((4, 2)))


def forward_net(n_agents, hidden_dim, rng):
    """A stack of n_agents nets, or one unstacked net when n_agents is None,
    with heads scaled up so that the softmax is far from uniform."""
    nets = [nn.init_agent_net(OBS_DIM, hidden_dim, N_ACTIONS, rng) for _ in range(n_agents or 1)]
    net = nets[0] if n_agents is None else nn.stack_nets(nets)
    net.actor_w *= 40.0
    net.critic_w *= 40.0
    return net


def assert_same_step(got, want):
    """Two forward() results hold the same bits."""
    (g_policy, g_value, g_hidden, g_record), (w_policy, w_value, w_hidden, w_record) = got, want
    assert np.array_equal(g_policy, w_policy)
    assert np.array_equal(g_value, w_value)
    assert np.array_equal(g_hidden.h, w_hidden.h) and np.array_equal(g_hidden.c, w_hidden.c)
    for name, g, w in zip(nn.ForwardRecord._fields, g_record, w_record):
        assert g.shape == w.shape and np.array_equal(g, w), name


@pytest.mark.parametrize("n_agents", [None, 1, 4, 64])
@pytest.mark.parametrize("hidden_dim", [8, 64])
def test_forward_into_out_is_bit_equal(n_agents, hidden_dim):
    rng = np.random.default_rng(7 * hidden_dim + (n_agents or 0))
    net = forward_net(n_agents, hidden_dim, rng)
    lead = () if n_agents is None else (n_agents,)
    width = lead + (hidden_dim,)
    hidden = nn.Hidden(h=rng.uniform(-1, 1, width), c=rng.normal(size=width))
    for _ in range(5):
        obs = rng.normal(scale=3.0, size=lead + (OBS_DIM,))
        inputs = [a.copy() for a in (obs, hidden.h, hidden.c)]
        want = nn.forward(net, obs, hidden)
        out = nn.ForwardRecord(*(np.full(a.shape, np.nan) for a in want[3]))
        got = nn.forward(net, obs, hidden, out)
        assert_same_step(got, want)
        for name, g, buf in zip(nn.ForwardRecord._fields, got[3], out):
            assert g is buf, name
        assert got[0] is out.policy and got[2].h is out.h_new
        for before, now in zip(inputs, (obs, hidden.h, hidden.c)):
            assert np.array_equal(before, now)
        hidden = got[2]


@pytest.mark.parametrize("n_agents", [1, 4, 64])
def test_forward_into_a_shifted_carry(n_agents):
    # A training tape keeps h in one (T + 1)-row buffer: row t is step t's
    # h_prev and step t-1's h_new, so each step's carry is already in place.
    rng = np.random.default_rng(n_agents)
    net = forward_net(n_agents, 8, rng)
    n_steps = 6
    tape = _episode_tape(n_steps, net)
    assert np.shares_memory(tape.h_prev[1:], tape.h_new[:-1])
    for buf in tape:
        buf.fill(np.nan)
    fresh = aliased = nn.Hidden(h=np.zeros((n_agents, 8)), c=np.zeros((n_agents, 8)))
    for t in range(n_steps):
        obs = rng.normal(size=(n_agents, OBS_DIM))
        want = nn.forward(net, obs, fresh)
        out = nn.ForwardRecord(*(a[t] for a in tape))
        got = nn.forward(net, obs, aliased, out)
        assert_same_step(got, want)
        for name, buf, w in zip(nn.ForwardRecord._fields, out, want[3]):
            assert np.array_equal(buf, w), name
        fresh, aliased = want[2], got[2]


def random_policies(rng, n_agents):
    """Softmax rows over a wide range of logit scales, including rows with
    exact zeros (underflow) and one-hot rows."""
    logits = rng.normal(size=(n_agents, N_ACTIONS)) * rng.choice([0.1, 1.0, 30.0, 800.0])
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    return p / p.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("seed", range(20))
def test_sampler_matches_rng_choice(seed):
    rng = np.random.default_rng(seed)
    n_agents = int(rng.integers(1, 65))
    ours = np.random.default_rng(seed + 1000)
    theirs = np.random.default_rng(seed + 1000)
    for _ in range(200):
        policy = random_policies(rng, n_agents)
        got = sample_actions(ours, policy)
        want = [theirs.choice(N_ACTIONS, p=row) for row in policy]
        assert got.tolist() == want
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize(
    "row",
    [[0.5, 0.6, -0.1, 0.0], [0.3, 0.3, 0.3, 0.3], [0.2, 0.2, 0.2, 0.2]],
    ids=["negative", "sum-above-1", "sum-below-1"],
)
def test_sampler_rejects_what_rng_choice_rejects(row):
    policy = np.array([[0.25] * N_ACTIONS, row])
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(N_ACTIONS, p=policy[1])
    with pytest.raises(ValueError):
        sample_actions(np.random.default_rng(0), policy)


def test_sampler_rejects_a_nan_row():
    policy = [[math.nan, 0.5, 0.5, 0.0], [0.25] * N_ACTIONS]
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(N_ACTIONS, p=policy[0])
    with pytest.raises(ValueError):
        sample_actions(np.random.default_rng(0), policy)
