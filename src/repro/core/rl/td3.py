"""TD3-style stabilisers for the DDPG agent (extension).

DDPG's critic famously overestimates Q-values; Fujimoto et al.'s TD3
counters that with three mechanisms, all optional here on top of
:class:`~repro.core.rl.ddpg.DDPGAgent`:

* **twin critics** — two independently initialised critics; targets use
  the minimum of their target copies;
* **delayed policy updates** — the actor (and targets) update once every
  ``policy_delay`` critic updates;
* **target policy smoothing** — clipped Gaussian noise on the target
  action before bootstrapping.

With the default bandit-mode critic target the bootstrapping pieces are
inert (there is no bootstrap), but twin critics still help: the actor
ascends the *minimum* of two value surfaces, damping spurious peaks a
single regressor hallucinate.  Exposed as :class:`TD3Agent`, a drop-in
replacement accepted by :class:`~repro.core.autohet.AutoHet` via
``agent_config=TD3Config(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...obs.trace import Tracer
from .ddpg import DDPGAgent, DDPGConfig
from .networks import MLP, Adam


@dataclass(frozen=True)
class TD3Config(DDPGConfig):
    """DDPG hyper-parameters plus the TD3 stabiliser knobs."""

    policy_delay: int = 2
    target_noise_sigma: float = 0.1
    target_noise_clip: float = 0.3


class TD3Agent(DDPGAgent):
    """DDPG agent with twin critics and delayed policy updates."""

    def __init__(
        self, config: TD3Config = TD3Config(), *, tracer: Tracer | None = None
    ) -> None:
        super().__init__(config, tracer=tracer)
        rng = np.random.default_rng(config.seed + 7919)
        sizes_c = (config.state_dim + 1, *config.hidden, 1)
        self.critic2 = MLP.create(sizes_c, rng=rng)
        self.critic2_target = self.critic2.clone()
        self.critic2_opt = Adam(self.critic2.parameters(), lr=config.critic_lr)
        self._update_count = 0
        self._smooth_rng = np.random.default_rng(config.seed + 104729)

    # ------------------------------------------------------------------
    def _target_q(self, next_states: np.ndarray) -> np.ndarray:
        cfg: TD3Config = self.config  # type: ignore[assignment]
        next_actions = self.actor_target.forward(next_states)
        if cfg.target_noise_sigma > 0:
            noise = np.clip(
                self._smooth_rng.normal(
                    0.0, cfg.target_noise_sigma, size=next_actions.shape
                ),
                -cfg.target_noise_clip,
                cfg.target_noise_clip,
            )
            next_actions = np.clip(next_actions + noise, 0.0, 1.0)
        sa = np.concatenate([next_states, next_actions], axis=1)
        q1 = self.critic_target.forward(sa)
        q2 = self.critic2_target.forward(sa)
        return np.minimum(q1, q2)

    def _update_once(self) -> float:
        cfg: TD3Config = self.config  # type: ignore[assignment]
        scale = self.reward_scale or 1.0
        states, next_states, actions, rewards, dones = self.pool.sample(
            cfg.batch_size
        )
        rewards = rewards * scale
        if cfg.use_baseline and self.reward_baseline is not None:
            rewards = rewards - self.reward_baseline

        if cfg.bootstrap:
            target = rewards + cfg.gamma * (1.0 - dones) * self._target_q(
                next_states
            )
        else:
            target = rewards

        sa = np.concatenate([states, actions], axis=1)
        losses = []
        for critic, opt in (
            (self.critic, self.critic_opt),
            (self.critic2, self.critic2_opt),
        ):
            q, cache = critic.forward_cached(sa)
            td = q - target
            losses.append(float(np.mean(td**2)))
            gw, gb, _ = critic.backward(sa, 2.0 * td / td.shape[0], cache=cache)
            opt.step(gw + gb)

        self._update_count += 1
        if self._update_count % cfg.policy_delay == 0:
            # Actor ascends min(Q1, Q2)(s, mu(s)) with inverting gradients.
            mu_raw, actor_cache = self.actor.forward_cached(states)
            mu = np.clip(mu_raw, 0.0, 1.0)
            sa_mu = np.concatenate([states, mu], axis=1)
            q1, cache1 = self.critic.forward_cached(sa_mu)
            q2, cache2 = self.critic2.forward_cached(sa_mu)
            # min(Q1, Q2) is already in hand — record the actor objective
            # for the rl.actor_loss stream at no extra compute.
            self._last_actor_objective = -float(np.mean(np.minimum(q1, q2)))
            use_first = q1 <= q2
            ones = np.ones((states.shape[0], 1)) / states.shape[0]
            _, _, d1 = self.critic.backward(
                sa_mu, ones, cache=cache1, params=False
            )
            _, _, d2 = self.critic2.backward(
                sa_mu, ones, cache=cache2, params=False
            )
            dq_da = np.where(use_first, d1[:, -1:], d2[:, -1:])
            headroom = np.where(dq_da > 0, 1.0 - mu_raw, mu_raw)
            dq_da = dq_da * np.clip(headroom, -1.0, 1.0)
            gw, gb, _ = self.actor.backward(states, -dq_da, cache=actor_cache)
            self.actor_opt.step(gw + gb)

            self.actor_target.soft_update_from(self.actor, cfg.tau)
            self.critic_target.soft_update_from(self.critic, cfg.tau)
            self.critic2_target.soft_update_from(self.critic2, cfg.tau)

        loss = float(np.mean(losses))
        self.critic_losses.append(loss)
        return loss
