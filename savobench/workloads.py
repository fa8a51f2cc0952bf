"""The four seeded workloads. Each builds its inputs from the seed in
``__init__`` (the set-up) and runs one op per ``op()`` call.

An op returns a ``Record``: the values that go into the determinism digest,
layer counts, and deferred output checks that the harness runs after the op,
outside the timed window. The update workloads are a fixed call sequence with
the shape of a SAVO-TD3 policy-delay cycle, built from the existing parts with
real losses and backward passes; they make no learning-quality claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from savo.envs import CANONICAL_RESTRICTION
from savo.nn import AdamState, NonFiniteGradientError

from . import oracles

BATCH = 256
HIDDEN = 256
DEEPSET = (64, 32)  # deep-set width, summary size
GAMMA = 0.99
TAU = 0.005
LR = 3e-4
REPLAY = 8192
CHECKED_ROWS = 4  # sampled retrieval rows checked per call
CHECKPOINT_EVERY = 25
CHECKPOINT_PHASE = 2  # cycle 1 is the set-up's warm-up op, so each set-up's first timed cycle saves
OUT_DIR = Path(".savobench")


@dataclass
class Record:
    digest: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (name, fn, args)

    def check(self, name, fn, *args):
        self.checks.append((name, fn, args))


class SavoUpdate:
    """One TD3 policy-delay cycle (two critic steps, one actor-chain step) on
    recsim shapes. ``n_succ`` successive actors follow actor 0; with
    ``expand_k`` the target instead expands actor 0's proto-action to its
    ``expand_k`` nearest items (Wolpertinger)."""

    name = "savo-update"
    n_succ = 2
    expand_k = 0

    def __init__(self, seed: int, api):
        self.api = api
        self.rng = rng = np.random.default_rng(seed)
        self.rng_check = np.random.default_rng([seed, 1])  # checking never perturbs the workload
        env = api.env("recsim", seed=int(rng.integers(2**31)))
        self.table = env.action_table
        self.reps = np.asarray(self.table.reps)
        self.obs_dim, self.act_dim = env.observation_dim, self.table.dim
        self._fill_replay(env)
        self.sample = api.glue(self._sample, "replay_sample")

        o, p = self.obs_dim, self.act_dim
        width, summary = DEEPSET
        self.actors = []
        self.target_actors = []
        for i in range(self.n_succ + 1):
            actor = {
                "trunk": api.mlp([o, HIDDEN, HIDDEN], ["relu", "relu"], rng, "trunk"),
                "head": api.mlp([HIDDEN, p], ["tanh"], rng, "head"),
            }
            target = {
                "trunk": api.target_mlp(actor["trunk"], "trunk"),
                "head": api.target_mlp(actor["head"], "head"),
            }
            if i:
                actor["ds"] = api.deepset(p, width, summary, rng)
                actor["film"] = api.film(summary, HIDDEN, rng)
                target["ds"] = api.target_deepset(actor["ds"])
                target["film"] = api.target_film(actor["film"])
            actor["arrays"] = [a for part in ("trunk", "head", "film", "ds") if part in actor
                               for a in actor[part].arrays()]
            actor["adam"] = api.AdamState(actor["arrays"])
            self.actors.append(actor)
            self.target_actors.append(target)
        self.critics = [api.mlp([o + p, HIDDEN, HIDDEN, 1], ["relu", "relu", "linear"], rng, "critic")
                        for _ in range(2)]
        self.target_critics = [api.target_mlp(c, "critic") for c in self.critics]
        self.surrogates = [None] + [
            api.mlp([o + p + summary, HIDDEN, HIDDEN, 1], ["relu", "relu", "linear"], rng, "surrogate")
            for _ in range(self.n_succ)
        ]
        self.adams = {id(n): api.AdamState(n.arrays()) for n in self.critics + self.surrogates[1:]}
        self.online_arrays = []
        self.target_arrays = []
        for actor, target in zip(self.actors, self.target_actors):
            for part, net in target.items():
                self.target_arrays += net.arrays()
                self.online_arrays += actor[part].arrays()
        for c, t in zip(self.critics, self.target_critics):
            self.target_arrays += t.arrays()
            self.online_arrays += c.arrays()
        # checkpoint round trips load into spare arrays, leaving training state alone
        self.ckpt_dir = OUT_DIR / f"ckpt-{self.name}"
        self.ckpt_dir.mkdir(parents=True, exist_ok=True)
        self.spare = [([np.zeros_like(a) for a in c.arrays()], AdamState(c.arrays())) for c in self.critics]
        self.cycles = 0

    def _fill_replay(self, env):
        o, p, n = self.obs_dim, self.act_dim, len(self.table)
        self.buf_obs = np.empty((REPLAY, o))
        self.buf_act = np.empty((REPLAY, p))
        self.buf_rew = np.empty(REPLAY)
        self.buf_next = np.empty((REPLAY, o))
        self.buf_done = np.empty(REPLAY)
        obs = env.reset()
        items = self.rng.integers(0, n, size=REPLAY)
        for t, item in enumerate(items):
            nxt, reward, done, _ = env.step(int(item))
            self.buf_obs[t], self.buf_act[t] = obs, self.reps[item]
            self.buf_rew[t], self.buf_next[t], self.buf_done[t] = reward, nxt, float(done)
            obs = env.reset() if done else nxt

    def _sample(self):
        idx = self.rng.integers(0, REPLAY, size=BATCH)
        return self.buf_obs[idx], self.buf_act[idx], self.buf_rew[idx], self.buf_next[idx], self.buf_done[idx]

    def _adam(self, rec, arrays, grads, state):
        try:
            self.api.adam_step(arrays, grads, state, LR)
        except NonFiniteGradientError:
            rec.check("finite_gradient", lambda: False)

    def _check_rows(self, rec, queries, rows):
        pick = self.rng_check.choice(len(queries), size=CHECKED_ROWS, replace=False)
        rec.check("retrieval", oracles.rows_match_scan, queries[pick].copy(), np.asarray(rows)[pick], self.reps)

    def _regress(self, rec, net, x, y):
        q, tape = net.forward_tape(x)
        err = q[:, 0] - y
        loss = float(np.mean(err * err))
        _, grads = net.backward(tape, 2.0 * err / len(y))
        self._adam(rec, net.arrays(), grads, self.adams[id(net)])
        rec.digest.append(loss)
        rec.check("finite_loss", oracles.all_finite, loss)

    def _target_candidates(self, rec, s2):
        """Target actor chain at s2: (B, slots, P) candidate reps plus the
        deep-set summaries each successive actor was conditioned on."""
        b, p = len(s2), self.act_dim
        if self.expand_k:
            t = self.target_actors[0]
            proto = self._smooth(t["head"].forward(t["trunk"].forward(s2)))
            ids = [self.api.knn(a, self.table, self.expand_k) for a in proto]
            rows = np.array([[self.row_of[i] for i in row] for row in ids])
            self._check_rows(rec, proto, rows)
            return self.reps[rows], []
        cands = np.empty((b, self.n_succ + 1, p))
        summaries = [None]
        for i, t in enumerate(self.target_actors):
            h = t["trunk"].forward(s2)
            if i:
                summ = t["ds"].forward_batch(cands[:, :i])
                gamma, beta = t["film"].scale_shift(summ)
                h = gamma * h + beta
                summaries.append(summ)
            proto = self._smooth(t["head"].forward(h))
            rows = self.api.nearest_rows(proto, self.table)
            self._check_rows(rec, proto, rows)
            cands[:, i] = self.reps[rows]
        return cands, summaries

    def _smooth(self, proto):
        noise = np.clip(0.2 * self.rng.standard_normal(proto.shape), -0.5, 0.5)
        return np.clip(proto + noise, -1.0, 1.0)

    def _twin_min(self, s, acts):
        x = np.concatenate([s, acts], axis=1)
        return np.minimum(self.target_critics[0].forward(x), self.target_critics[1].forward(x))[:, 0]

    def critic_step(self, rec):
        s, a, r, s2, d = self.sample()
        cands, summaries = self._target_candidates(rec, s2)
        slots = cands.shape[1]
        q = np.stack([self._twin_min(s2, cands[:, j]) for j in range(slots)], axis=1)
        best = np.argmax(q, axis=1)
        y = r + GAMMA * (1.0 - d) * q[np.arange(len(r)), best]
        rec.digest += [best, float(np.sum(y))]
        rec.check("finite_target", oracles.all_finite, y.copy())
        x = np.concatenate([s, a], axis=1)
        for critic in self.critics:
            self._regress(rec, critic, x, y)
        if self.n_succ:
            q_replay = self._twin_min(s2, a)
            for i in range(1, self.n_succ + 1):
                psi = np.maximum(q_replay, q[:, :i].max(axis=1))
                self._regress(rec, self.surrogates[i], np.concatenate([s2, a, summaries[i]], axis=1), psi)
        return s

    def actor_step(self, rec, s):
        b, o, p = len(s), self.obs_dim, self.act_dim
        cands = np.empty((b, self.n_succ + 1, p))
        for i, actor in enumerate(self.actors):
            h, trunk_tape = actor["trunk"].forward_tape(s)
            if i:
                summ, ds_tape = actor["ds"].forward_batch_tape(cands[:, :i])
                h, film_tape = actor["film"].modulate_tape(h, summ)
                act, head_tape = actor["head"].forward_tape(h)
                critic, x = self.surrogates[i], np.concatenate([s, act, summ], axis=1)
            else:
                act, head_tape = actor["head"].forward_tape(h)
                critic, x = self.critics[0], np.concatenate([s, act], axis=1)
            q, q_tape = critic.forward_tape(x)
            dx, _ = critic.backward(q_tape, np.full(b, -1.0 / b), with_params=False)
            dh, head_grads = actor["head"].backward(head_tape, dx[:, o : o + p])
            grads = head_grads
            if i:
                dh, dcond, film_grads = actor["film"].backward(film_tape, dh)
                _, ds_grads = actor["ds"].backward_batch(ds_tape, dcond + dx[:, o + p :])
                grads = head_grads + film_grads + ds_grads
            _, trunk_grads = actor["trunk"].backward(trunk_tape, dh)
            rows = self.api.nearest_rows(act, self.table)
            self._check_rows(rec, act, rows)
            cands[:, i] = self.reps[rows]
            self._adam(rec, actor["arrays"], trunk_grads + grads, actor["adam"])
            objective = -float(np.mean(q))
            rec.digest.append(objective)
            rec.check("finite_loss", oracles.all_finite, objective)
        self.api.polyak_update(self.target_arrays, self.online_arrays, TAU)

    def checkpoint(self, rec):
        for i, (critic, (spare, spare_adam)) in enumerate(zip(self.critics, self.spare)):
            path = self.ckpt_dir / f"critic{i}.npz"
            adam = self.adams[id(critic)]
            self.api.save_arrays(path, critic.arrays(), adam)
            self.api.load_arrays(path, spare, spare_adam)
            rec.check("checkpoint_roundtrip", oracles.checkpoint_identical, critic.arrays(), adam, spare, spare_adam)

    def op(self) -> Record:
        rec = Record()
        self.critic_step(rec)
        s = self.critic_step(rec)
        self.actor_step(rec, s)
        self.cycles += 1
        if self.cycles % CHECKPOINT_EVERY == CHECKPOINT_PHASE:
            self.checkpoint(rec)
        return rec


class WolpertingerUpdate(SavoUpdate):
    name = "wolpertinger-update"
    n_succ = 0
    expand_k = 10

    def __init__(self, seed: int, api):
        super().__init__(seed, api)
        self.row_of = {action_id: row for row, action_id in enumerate(self.table.ids)}


class Rollout:
    """One lockstep step of four envs, each acting with a batch-1 chain of
    ``n_succ + 1`` untrained actors and a critic that picks among them."""

    name = "rollout"
    n_succ = 2
    noise = 0.1

    def __init__(self, seed: int, api):
        self.api = api
        self.rng = rng = np.random.default_rng(seed)
        seeds = iter(rng.integers(2**31, size=8).tolist())
        self.envs = {
            "bandit": api.env("bandit", landscape=api.canonical_adversarial(), seed=next(seeds)),
            "pendulum": api.env("pendulum", restriction=CANONICAL_RESTRICTION, seed=next(seeds)),
            "mining": api.env("mining", seed=next(seeds)),
            "recsim": api.env("recsim", seed=next(seeds)),
        }
        width, summary = DEEPSET
        self.agents = {}
        for name, env in self.envs.items():
            table = env.action_table if env.discrete else None
            o, p = env.observation_dim, table.dim if table else env.action_dim
            chain = []
            for i in range(self.n_succ + 1):
                actor = {
                    "trunk": api.mlp([o, HIDDEN, HIDDEN], ["relu", "relu"], rng, "trunk"),
                    "head": api.mlp([HIDDEN, p], ["tanh"], rng, "head"),
                }
                if i:
                    actor["ds"] = api.deepset(p, width, summary, rng)
                    actor["film"] = api.film(summary, HIDDEN, rng)
                chain.append(actor)
            critic = api.mlp([o + p, HIDDEN, HIDDEN, 1], ["relu", "relu", "linear"], rng, "critic")
            row_of = {i: r for r, i in enumerate(table.ids)} if table else None
            self.agents[name] = {
                "chain": chain,
                "critic": critic,
                "table": table,
                "row_of": row_of,
                "obs": env.reset(seed=next(seeds)),
            }

    def op(self) -> Record:
        rec = Record()
        for name, env in self.envs.items():
            agent = self.agents[name]
            table, obs = agent["table"], agent["obs"]
            cands, ids = [], []
            for i, actor in enumerate(agent["chain"]):
                h = actor["trunk"].forward(obs)
                if i:
                    gamma, beta = actor["film"].scale_shift(actor["ds"].summarize(cands).vector)
                    h = gamma * h + beta
                a = actor["head"].forward(h)
                a = np.clip(a + self.noise * self.rng.standard_normal(a.shape), -1.0, 1.0)
                if table is None:
                    cands.append(a)
                    continue
                action_id = self.api.nearest(a, table)
                rec.check("retrieval", oracles.rows_match_scan, a[None], np.array([agent["row_of"][action_id]]),
                          np.asarray(table.reps))
                ids.append(action_id)
                cands.append(table.rep_of(action_id))
            x = np.concatenate([np.repeat(np.asarray(obs)[None], len(cands), axis=0), np.array(cands)], axis=1)
            q = agent["critic"].forward(x)[:, 0]
            best = int(np.argmax(q))
            action = cands[best] if table is None else ids[best]
            nxt, reward, done, info = env.step(action)
            if name == "pendulum":
                rec.counts["envs.pendulum.steps"] = 1
                rec.counts["envs.pendulum.replaced"] = int(not np.array_equal(info["executed"], action))
            rec.digest += [best, reward, nxt]
            rec.check("finite_value", oracles.all_finite, q, reward, nxt)
            agent["obs"] = env.reset() if done else nxt
        return rec


class Analysis:
    """One landscape-and-MDP probe on freshly drawn inputs."""

    name = "analysis"
    eval_points = 101
    scan_points = 301  # BanditLandscape's own 2-D argmax grid
    n_anchors = 3
    mdp_shape = (60, 20)

    def __init__(self, seed: int, api):
        self.api = api
        self.rng = np.random.default_rng(seed)

    def op(self) -> Record:
        rng, api = self.rng, self.api
        m = int(rng.integers(2, 9))
        params = dict(
            low=-np.ones(2),
            high=np.ones(2),
            centers=rng.uniform(-0.95, 0.95, size=(m, 2)),
            heights=rng.uniform(0.2, 1.0, size=m),
            widths=rng.uniform(0.04, 0.3, size=m),
        )
        land = api.landscape(**params)
        n = self.eval_points
        q = land.value(land.grid(n)).reshape(n, n)
        anchors = rng.uniform(-1.0, 1.0, size=(self.n_anchors, 2))
        levels = api.surrogate_values(q, land.value(anchors))
        counts = [api.count_local_optima(v) for v in levels]
        mdp = api.random_mdp(rng, *self.mdp_shape)
        policy, value, history = api.maximizer_policy_iteration(
            mdp, k_proposals=2, seed=int(rng.integers(2**31))
        )
        rec = Record(digest=[land.max_value, counts, policy, value])
        rec.counts["analysis.mdp.iterations"] = len(history)
        rec.check("landscape_max", oracles.max_matches_grid, land.max_value, params, self.scan_points)
        rec.check("local_optima", lambda got, v: got == oracles.strict_local_maxima(v), counts[0], q)
        rec.check("mdp_policy_value", oracles.policy_value_consistent, mdp, policy, value)
        return rec


WORKLOADS = {w.name: w for w in (SavoUpdate, WolpertingerUpdate, Rollout, Analysis)}
