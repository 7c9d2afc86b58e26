"""Deep Deterministic Policy Gradient agent (§3.2).

The paper builds its RL agent on DDPG [20]: a deterministic actor
``mu(s) -> a`` in the continuous action box [0, 1] (discretised to a
crossbar-candidate index by the environment) and a critic ``Q(s, a)``
trained by temporal-difference learning against slow-moving target copies
of both networks.

Implementation notes:

* Rewards ``R = u / e`` are numerically tiny (energy is in nJ), so the
  agent applies an automatic reward scale — the reciprocal of the first
  observed |reward| — before TD learning.  Scaling a reward by a positive
  constant leaves the optimal policy unchanged.
* The critic target is ``r`` at terminal transitions and
  ``r + gamma * Q'(s', mu'(s'))`` otherwise.
* The actor ascends ``Q(s, mu(s))`` by backpropagating ``dQ/da`` through
  the critic's action input into the actor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...obs import metrics as obs_metrics
from ...obs.trace import Tracer, current_tracer
from .networks import MLP, Adam
from .noise import TruncatedNormalNoise
from .replay import ExperiencePool, Transition


@dataclass(frozen=True)
class DDPGConfig:
    """Hyper-parameters of the search agent."""

    state_dim: int = 10
    hidden: tuple[int, ...] = (64, 64)
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    gamma: float = 0.98
    tau: float = 0.01             #: soft target-update rate
    batch_size: int = 64
    pool_capacity: int = 20_000
    updates_per_episode: int = 20
    warmup_episodes: int = 5      #: pure-exploration episodes before learning
    noise_sigma: float = 0.5
    noise_decay: float = 0.99
    seed: int = 0
    #: TD-bootstrap the critic target (classic DDPG) or regress the
    #: broadcast episode reward directly (contextual-bandit form).  The
    #: episode reward is already the *global* outcome of all layers'
    #: actions (Eq. 3 broadcasts it), so the bandit form gives each
    #: (layer-state, action) pair a direct, low-bias learning signal —
    #: it converges noticeably better on deep models like ResNet152.
    bootstrap: bool = False
    #: subtract an exponential moving average of episode rewards from the
    #: critic target (variance reduction, as in HAQ-style searches).
    use_baseline: bool = True
    baseline_decay: float = 0.95
    #: epsilon-greedy exploration on top of the Gaussian actor noise: with
    #: this (decaying) probability a layer's action is drawn uniformly,
    #: guaranteeing late-stage coverage of every candidate and preventing
    #: the saturating sigmoid actor from locking into an edge bin.
    epsilon: float = 0.3
    epsilon_decay: float = 0.99
    epsilon_min: float = 0.02
    #: probability of a *coherent* exploration episode, in which every
    #: layer perturbs around one shared random action.  The tile-shared
    #: allocator couples layers that pick the same crossbar shape (they
    #: pool their tile waste), creating multiple basins that per-layer
    #: independent noise cannot hop between; coherent episodes let the
    #: critic observe whole basins.
    coherent_episode_prob: float = 0.2
    coherent_sigma: float = 0.08


class DDPGAgent:
    """Actor-critic pair with target networks and an experience pool."""

    def __init__(
        self, config: DDPGConfig = DDPGConfig(), *, tracer: Tracer | None = None
    ) -> None:
        self.config = config
        #: explicit tracer; ``None`` resolves the ambient one lazily.
        #: Telemetry is read-only: every traced quantity is already
        #: computed by the update, so enabling it cannot change the
        #: learning trajectory.
        self.tracer = tracer
        self._last_actor_objective: float | None = None
        rng = np.random.default_rng(config.seed)
        sizes_a = (config.state_dim, *config.hidden, 1)
        sizes_c = (config.state_dim + 1, *config.hidden, 1)
        # Linear actor output clipped to [0, 1] in act(), trained with
        # inverting gradients (Hausknecht & Stone) — a sigmoid head
        # saturates at the box edges and cannot walk back once the critic
        # later learns the peak is interior.
        self.actor = MLP.create(sizes_a, output_activation="linear", rng=rng)
        self.critic = MLP.create(sizes_c, rng=rng)
        self.actor_target = self.actor.clone()
        self.critic_target = self.critic.clone()
        self.actor_opt = Adam(self.actor.parameters(), lr=config.actor_lr)
        self.critic_opt = Adam(self.critic.parameters(), lr=config.critic_lr)
        self.pool = ExperiencePool(config.pool_capacity, seed=config.seed)
        self.noise = TruncatedNormalNoise(
            sigma=config.noise_sigma, decay=config.noise_decay, seed=config.seed
        )
        self.epsilon = config.epsilon
        self._eps_rng = np.random.default_rng(config.seed + 1)
        self._coherent_base: float | None = None
        self.reward_scale: float | None = None
        self.reward_baseline: float | None = None
        self.episodes = 0
        self.critic_losses: list[float] = []

    # ------------------------------------------------------------------
    def act(self, state: np.ndarray, *, explore: bool = True) -> float:
        """Continuous action in [0, 1] for one state."""
        if explore and self._coherent_base is not None:
            a = self._coherent_base + self._eps_rng.normal(
                0.0, self.config.coherent_sigma
            )
            return float(np.clip(a, 0.0, 1.0))
        if explore and self._eps_rng.random() < self.epsilon:
            return float(self._eps_rng.random())
        a = float(np.clip(self.actor.forward(np.atleast_2d(state))[0, 0], 0.0, 1.0))
        if explore:
            a = self.noise.perturb(a)
        return a

    def begin_episode(self) -> None:
        """Decide this episode's exploration mode (coherent or per-layer)."""
        if self._eps_rng.random() < self.config.coherent_episode_prob:
            self._coherent_base = float(self._eps_rng.random())
        else:
            self._coherent_base = None

    def observe_episode(self, transitions: list[Transition]) -> None:
        """Store one episode's transitions, fixing the reward scale lazily."""
        if self.reward_scale is None:
            magnitudes = [abs(t.reward) for t in transitions if t.reward != 0.0]
            self.reward_scale = 1.0 / magnitudes[0] if magnitudes else 1.0
        if transitions:
            scaled = transitions[0].reward * self.reward_scale
            if self.reward_baseline is None:
                self.reward_baseline = scaled
            else:
                d = self.config.baseline_decay
                self.reward_baseline = d * self.reward_baseline + (1 - d) * scaled
        self.pool.extend(transitions)
        self.episodes += 1
        self.noise.end_episode()
        self.epsilon = max(
            self.epsilon * self.config.epsilon_decay, self.config.epsilon_min
        )

    # ------------------------------------------------------------------
    def learn(self) -> float | None:
        """Run the configured number of gradient updates; returns last loss."""
        cfg = self.config
        # Sampling is with replacement, so a pool smaller than the batch
        # size is still usable; only an empty pool (or warmup) blocks.
        if self.episodes <= cfg.warmup_episodes or len(self.pool) == 0:
            return None
        loss = None
        for _ in range(cfg.updates_per_episode):
            loss = self._update_once()
        if loss is not None:
            tracer = self._effective_tracer()
            if tracer.enabled:
                tracer.counter(
                    obs_metrics.CRITIC_LOSS, loss, episode=self.episodes
                )
                if self._last_actor_objective is not None:
                    tracer.counter(
                        obs_metrics.ACTOR_LOSS,
                        self._last_actor_objective,
                        episode=self.episodes,
                    )
        return loss

    def _effective_tracer(self) -> Tracer:
        return self.tracer if self.tracer is not None else current_tracer()

    def _update_once(self) -> float:
        cfg = self.config
        scale = self.reward_scale or 1.0
        states, next_states, actions, rewards, dones = self.pool.sample(
            cfg.batch_size
        )
        rewards = rewards * scale
        if cfg.use_baseline and self.reward_baseline is not None:
            rewards = rewards - self.reward_baseline

        if cfg.bootstrap:
            # ---- classic DDPG: TD target from the target networks.
            next_actions = self.actor_target.forward(next_states)
            q_next = self.critic_target.forward(
                np.concatenate([next_states, next_actions], axis=1)
            )
            target = rewards + cfg.gamma * (1.0 - dones) * q_next
        else:
            # ---- bandit form: the broadcast episode reward *is* the
            # value of every (state, action) pair in the episode.
            target = rewards
        sa = np.concatenate([states, actions], axis=1)
        q, cache = self.critic.forward_cached(sa)
        td_error = q - target
        loss = float(np.mean(td_error**2))
        upstream = 2.0 * td_error / td_error.shape[0]
        grad_w, grad_b, _ = self.critic.backward(sa, upstream, cache=cache)
        self.critic_opt.step(grad_w + grad_b)

        # ---- actor update: ascend Q(s, mu(s)) with inverting gradients.
        mu_raw, actor_cache = self.actor.forward_cached(states)
        mu = np.clip(mu_raw, 0.0, 1.0)
        sa_mu = np.concatenate([states, mu], axis=1)
        q_mu, cache = self.critic.forward_cached(sa_mu)
        # Q(s, mu(s)) is already in hand for the input gradient — record
        # the actor objective for the rl.actor_loss stream at no extra
        # compute.
        self._last_actor_objective = -float(np.mean(q_mu))
        ones = np.ones((states.shape[0], 1)) / states.shape[0]
        _, _, dq_dsa = self.critic.backward(
            sa_mu, ones, cache=cache, params=False
        )
        dq_da = dq_dsa[:, -1:]
        # Scale upward pushes by the headroom to 1 and downward pushes by
        # the headroom to 0, computed on the *raw* (unclipped) output:
        # outside the box the headroom turns negative, actively steering
        # the policy back in.
        headroom = np.where(dq_da > 0, 1.0 - mu_raw, mu_raw)
        dq_da = dq_da * np.clip(headroom, -1.0, 1.0)
        a_grad_w, a_grad_b, _ = self.actor.backward(
            states, -dq_da, cache=actor_cache
        )
        self.actor_opt.step(a_grad_w + a_grad_b)

        # ---- soft target updates.
        self.actor_target.soft_update_from(self.actor, cfg.tau)
        self.critic_target.soft_update_from(self.critic, cfg.tau)
        self.critic_losses.append(loss)
        return loss
