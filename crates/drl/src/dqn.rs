//! The deep Q-network agent.

use crate::{Adam, BatchScratch, Environment, Mlp, ReplayBuffer, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// DQN hyper-parameters.
///
/// [`DqnConfig::paper`] reproduces the paper's Table II. The paper prints the
/// ε-decay schedule (its Eq. 9) as
/// `ε_i = ε_min + (ε_max − ε_min)^{−(d·i)}`, which as written is
/// dimensionally wrong (it exceeds 1 for every `i > 0`); we implement the
/// standard exponential decay the text describes ("the value of ε decays"):
/// `ε_i = ε_min + (ε_max − ε_min)·e^{−d·i}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DqnConfig {
    /// Initial exploration rate ε (Table II: 0.95).
    pub epsilon: f64,
    /// Floor the exploration rate decays towards.
    pub epsilon_min: f64,
    /// Decay parameter `d` (Table II: 0.05).
    pub epsilon_decay: f64,
    /// Discount factor γ (Table II: 0.618).
    pub gamma: f64,
    /// Training episodes (Table II: 100).
    pub episodes: usize,
    /// Steps per episode (Table II: 200).
    pub max_steps: usize,
    /// TD blending rate α (Table II: 0.7): the regression target is
    /// `Q + α·(TD-target − Q)` rather than the raw TD target.
    pub alpha: f64,
    /// Replay memory capacity (Table II: 5 000).
    pub replay_capacity: usize,
    /// Train the Q-network every this many steps (Table II: 5).
    pub q_update_every: usize,
    /// Copy Q-network weights into the target network every this many steps
    /// (Table II: 30).
    pub target_update_every: usize,
    /// Minibatch size per Q-network update.
    pub batch_size: usize,
    /// Hidden layer widths of the Q-network.
    pub hidden: [usize; 2],
    /// Adam step size for the network fit (distinct from `alpha`, which
    /// blends TD targets).
    pub nn_learning_rate: f64,
    /// RNG seed (exploration, replay sampling, weight init).
    pub seed: u64,
    /// Use Double-DQN targets (van Hasselt et al.): the online network
    /// selects the bootstrap action, the target network values it. Off in
    /// [`DqnConfig::paper`] (the paper describes vanilla DQN); exposed for
    /// the ablation benches.
    pub double_dqn: bool,
}

impl DqnConfig {
    /// The exact Table II configuration.
    pub fn paper() -> Self {
        DqnConfig {
            epsilon: 0.95,
            epsilon_min: 0.01,
            epsilon_decay: 0.05,
            gamma: 0.618,
            episodes: 100,
            max_steps: 200,
            alpha: 0.7,
            replay_capacity: 5_000,
            q_update_every: 5,
            target_update_every: 30,
            batch_size: 32,
            hidden: [128, 128],
            nn_learning_rate: 1e-3,
            seed: 0,
            double_dqn: false,
        }
    }

    /// A scaled-down configuration for fast tests and smoke benches.
    pub fn fast() -> Self {
        DqnConfig {
            episodes: 30,
            max_steps: 60,
            hidden: [32, 32],
            ..DqnConfig::paper()
        }
    }

    /// Returns the exploration rate for episode `i` (see the type-level note
    /// on the paper's Eq. 9).
    pub fn epsilon_for_episode(&self, episode: usize) -> f64 {
        self.epsilon_min
            + (self.epsilon - self.epsilon_min) * (-self.epsilon_decay * episode as f64).exp()
    }
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig::paper()
    }
}

/// Per-episode training statistics (drives the Fig. 8 reward curves).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpisodeStats {
    /// Episode index.
    pub episode: usize,
    /// Sum of rewards over the episode (`R^i` in the paper's Eq. 7).
    pub total_reward: f64,
    /// ε used during the episode.
    pub epsilon: f64,
    /// Steps actually taken (≤ `max_steps`; early termination on `done`).
    pub steps: usize,
}

/// A deep Q-network agent: Q-network + target network + replay buffer +
/// ε-greedy policy (paper Fig. 2 / Fig. 4).
#[derive(Debug, Clone)]
pub struct DqnAgent {
    config: DqnConfig,
    q_net: Mlp,
    target_net: Mlp,
    buffer: ReplayBuffer,
    optimizer: Adam,
    rng: StdRng,
    steps_seen: usize,
    /// Reusable flat batch buffers and activation planes for
    /// [`DqnAgent::train_step`]; kept across updates so a training run does
    /// not re-allocate per minibatch.
    batch_states: Vec<f64>,
    batch_next: Vec<f64>,
    batch_targets: Vec<f64>,
    scratch: BatchScratch,
    next_scratch: BatchScratch,
}

impl DqnAgent {
    /// Creates an agent for the given observation/action dimensions.
    pub fn new(state_dim: usize, action_count: usize, config: DqnConfig) -> Self {
        let sizes = [state_dim, config.hidden[0], config.hidden[1], action_count];
        let q_net = Mlp::new(&sizes, config.seed);
        let mut target_net = Mlp::new(&sizes, config.seed.wrapping_add(1));
        target_net.copy_from(&q_net);
        DqnAgent {
            q_net,
            target_net,
            buffer: ReplayBuffer::new(config.replay_capacity),
            optimizer: Adam::new(config.nn_learning_rate),
            rng: StdRng::seed_from_u64(config.seed.wrapping_add(2)),
            config,
            steps_seen: 0,
            batch_states: Vec::new(),
            batch_next: Vec::new(),
            batch_targets: Vec::new(),
            scratch: BatchScratch::default(),
            next_scratch: BatchScratch::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DqnConfig {
        &self.config
    }

    /// The Q-network (e.g. for parameter counting in Fig. 11(b)).
    pub fn q_network(&self) -> &Mlp {
        &self.q_net
    }

    /// Number of experiences currently in the replay buffer.
    pub fn replay_len(&self) -> usize {
        self.buffer.len()
    }

    /// Greedy action for `state` (pure exploitation — inference mode).
    pub fn act_greedy(&self, state: &[f64]) -> usize {
        argmax(&self.q_net.forward(state))
    }

    /// ε-greedy action for `state` with the given exploration rate.
    pub fn act(&mut self, state: &[f64], epsilon: f64) -> usize {
        if self.rng.gen::<f64>() < epsilon {
            self.rng.gen_range(0..self.q_net.output_dim())
        } else {
            self.act_greedy(state)
        }
    }

    /// Stores an experience in the replay buffer.
    pub fn remember(&mut self, t: Transition) {
        self.buffer.push(t);
    }

    /// Performs one minibatch Q-network update from replay (the `QNet.update`
    /// line of the paper's Algorithm 1). Returns the mean TD error of the
    /// batch, or `None` when the buffer is still empty.
    ///
    /// The whole minibatch goes through [`Mlp::forward_batch`] /
    /// [`Mlp::backward_batch`] (one matrix-shaped pass over reusable scratch
    /// planes instead of `batch_size` per-sample passes), which is
    /// bit-identical to the per-sample formulation: sampling consumes the RNG
    /// draw for draw like [`ReplayBuffer::sample`], and the batched backward
    /// accumulates per-sample gradients in sample order, as the per-sample
    /// reference chain in the network's unit tests does.
    pub fn train_step(&mut self) -> Option<f64> {
        let indices = self
            .buffer
            .sample_indices(self.config.batch_size, &mut self.rng);
        if indices.is_empty() {
            return None;
        }
        let batch = indices.len();
        let out_dim = self.q_net.output_dim();

        // Gather the sampled transitions into flat sample-major planes.
        self.batch_states.clear();
        self.batch_next.clear();
        let mut actions = Vec::with_capacity(batch);
        let mut rewards = Vec::with_capacity(batch);
        let mut dones = Vec::with_capacity(batch);
        for &i in &indices {
            let t = self.buffer.get(i);
            self.batch_states.extend_from_slice(&t.state);
            self.batch_next.extend_from_slice(&t.next_state);
            actions.push(t.action);
            rewards.push(t.reward);
            dones.push(t.done);
        }

        // TD bootstrap through the *target* network, one batched forward.
        // `done` rows ride along (forwarding is side-effect free and their
        // outputs are discarded) — cheaper than compacting the plane.
        let mut bootstrap = vec![0.0; batch];
        if self.config.double_dqn {
            // Double DQN: online net picks the action, target net rates it.
            let target_next = self
                .target_net
                .forward_batch(&self.batch_next, batch, &mut self.next_scratch)
                .to_vec();
            let online_next =
                self.q_net
                    .forward_batch(&self.batch_next, batch, &mut self.next_scratch);
            for b in 0..batch {
                if !dones[b] {
                    let row = &online_next[b * out_dim..(b + 1) * out_dim];
                    let chosen = argmax(row);
                    bootstrap[b] = self.config.gamma * target_next[b * out_dim + chosen];
                }
            }
        } else {
            let target_next =
                self.target_net
                    .forward_batch(&self.batch_next, batch, &mut self.next_scratch);
            for b in 0..batch {
                if !dones[b] {
                    let row = &target_next[b * out_dim..(b + 1) * out_dim];
                    bootstrap[b] =
                        self.config.gamma * row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                }
            }
        }

        // Online forward last, so the activation planes left in `scratch`
        // belong to the states and feed straight into the backward pass.
        let q_rows = self
            .q_net
            .forward_batch(&self.batch_states, batch, &mut self.scratch);
        self.batch_targets.clear();
        self.batch_targets.extend_from_slice(q_rows);
        let mut total_td = 0.0;
        for b in 0..batch {
            let slot = b * out_dim + actions[b];
            let current_q = self.batch_targets[slot];
            let td_error = (rewards[b] + bootstrap[b]) - current_q;
            total_td += td_error.abs();
            // α-blended regression target (Table II's learning rate).
            self.batch_targets[slot] = current_q + self.config.alpha * td_error;
        }

        let mut grads = self
            .q_net
            .backward_batch(&self.batch_targets, batch, &self.scratch);
        grads.scale(1.0 / batch as f64);
        grads.clip(10.0);
        self.optimizer.apply(&mut self.q_net, &grads);
        let mean_td = total_td / batch as f64;
        parole_telemetry::counter("drl.train_steps", 1);
        parole_telemetry::observe_f64("drl.td_error", mean_td);
        Some(mean_td)
    }

    /// Copies the Q-network into the target network.
    pub fn sync_target(&mut self) {
        self.target_net.copy_from(&self.q_net);
    }

    /// Runs one training episode against `env` with exploration rate
    /// `epsilon`, handling replay, periodic Q-updates and target syncs.
    pub fn run_episode<E: Environment>(
        &mut self,
        env: &mut E,
        episode: usize,
        epsilon: f64,
    ) -> EpisodeStats {
        let _span = parole_telemetry::span("drl.run_episode");
        let mut state = env.reset();
        let mut total_reward = 0.0;
        let mut steps = 0;
        for _ in 0..self.config.max_steps {
            let action = self.act(&state, epsilon);
            let outcome = env.step(action);
            total_reward += outcome.reward;
            self.remember(Transition {
                state: state.clone(),
                action,
                reward: outcome.reward,
                next_state: outcome.next_state.clone(),
                done: outcome.done,
            });
            state = outcome.next_state;
            steps += 1;
            self.steps_seen += 1;
            if self.steps_seen.is_multiple_of(self.config.q_update_every) {
                self.train_step();
            }
            if self
                .steps_seen
                .is_multiple_of(self.config.target_update_every)
            {
                self.sync_target();
            }
            if outcome.done {
                break;
            }
        }
        parole_telemetry::counter("drl.episodes", 1);
        parole_telemetry::counter("drl.steps", steps as u64);
        parole_telemetry::observe_f64("drl.episode_reward", total_reward);
        parole_telemetry::observe_f64("drl.epsilon", epsilon);
        parole_telemetry::observe("drl.replay_occupancy", self.buffer.len() as u64);
        EpisodeStats {
            episode,
            total_reward,
            epsilon,
            steps,
        }
    }

    /// Full training run: `config.episodes` episodes with the ε schedule,
    /// returning per-episode statistics.
    pub fn train<E: Environment>(&mut self, env: &mut E) -> Vec<EpisodeStats> {
        (0..self.config.episodes)
            .map(|ep| {
                let epsilon = self.config.epsilon_for_episode(ep);
                self.run_episode(env, ep, epsilon)
            })
            .collect()
    }
}

/// Index of the maximum element (first on ties).
fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Moving average with the paper's Fig. 8 window (window size 9).
pub fn moving_average(values: &[f64], window: usize) -> Vec<f64> {
    if window == 0 || values.is_empty() {
        return Vec::new();
    }
    values
        .windows(window.min(values.len()))
        .map(|w| w.iter().sum::<f64>() / w.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StepOutcome;

    /// A 1-D line world: start at 0, goal at +4, actions {left, right}.
    /// Optimal return under γ < 1 requires heading right every step.
    struct LineWorld {
        pos: i32,
    }

    impl Environment for LineWorld {
        fn state_dim(&self) -> usize {
            1
        }
        fn action_count(&self) -> usize {
            2
        }
        fn reset(&mut self) -> Vec<f64> {
            self.pos = 0;
            vec![0.0]
        }
        fn step(&mut self, action: usize) -> StepOutcome {
            self.pos += if action == 1 { 1 } else { -1 };
            let done = self.pos >= 4 || self.pos <= -4;
            let reward = if self.pos >= 4 {
                10.0
            } else if self.pos <= -4 {
                -10.0
            } else {
                -0.1
            };
            StepOutcome {
                reward,
                next_state: vec![self.pos as f64 / 4.0],
                done,
            }
        }
    }

    #[test]
    fn epsilon_schedule_decays_to_floor() {
        let config = DqnConfig::paper();
        assert!((config.epsilon_for_episode(0) - 0.95).abs() < 1e-12);
        let mid = config.epsilon_for_episode(50);
        assert!(mid < 0.95 && mid > config.epsilon_min);
        let late = config.epsilon_for_episode(10_000);
        assert!((late - config.epsilon_min).abs() < 1e-6);
        // Monotone non-increasing.
        let mut last = f64::INFINITY;
        for ep in 0..200 {
            let e = config.epsilon_for_episode(ep);
            assert!(e <= last);
            last = e;
        }
    }

    #[test]
    fn double_dqn_also_learns_line_world() {
        let config = DqnConfig {
            episodes: 60,
            max_steps: 30,
            hidden: [16, 16],
            nn_learning_rate: 5e-3,
            seed: 3,
            double_dqn: true,
            ..DqnConfig::paper()
        };
        let mut agent = DqnAgent::new(1, 2, config);
        let mut env = LineWorld { pos: 0 };
        let stats = agent.train(&mut env);
        let late: f64 = stats[stats.len() - 10..]
            .iter()
            .map(|s| s.total_reward)
            .sum::<f64>()
            / 10.0;
        let early: f64 = stats[..10].iter().map(|s| s.total_reward).sum::<f64>() / 10.0;
        assert!(
            late > early,
            "double-DQN reward should improve: {early} -> {late}"
        );
    }

    #[test]
    fn table2_defaults() {
        let c = DqnConfig::paper();
        assert_eq!(c.epsilon, 0.95);
        assert_eq!(c.epsilon_decay, 0.05);
        assert_eq!(c.gamma, 0.618);
        assert_eq!(c.episodes, 100);
        assert_eq!(c.max_steps, 200);
        assert_eq!(c.alpha, 0.7);
        assert_eq!(c.replay_capacity, 5_000);
        assert_eq!(c.q_update_every, 5);
        assert_eq!(c.target_update_every, 30);
    }

    #[test]
    fn agent_learns_line_world() {
        let config = DqnConfig {
            episodes: 60,
            max_steps: 30,
            hidden: [16, 16],
            nn_learning_rate: 5e-3,
            seed: 3,
            ..DqnConfig::paper()
        };
        let mut agent = DqnAgent::new(1, 2, config);
        let mut env = LineWorld { pos: 0 };
        let stats = agent.train(&mut env);
        assert_eq!(stats.len(), 60);

        // After training, greedy policy should walk straight to the goal.
        let mut env = LineWorld { pos: 0 };
        let mut state = env.reset();
        let mut reached = false;
        for _ in 0..8 {
            let action = agent.act_greedy(&state);
            let out = env.step(action);
            state = out.next_state;
            if out.done && out.reward > 0.0 {
                reached = true;
                break;
            }
        }
        assert!(reached, "trained agent should reach the +4 goal greedily");

        // Later episodes should outperform the earliest ones on average.
        let early: f64 = stats[..10].iter().map(|s| s.total_reward).sum::<f64>() / 10.0;
        let late: f64 = stats[stats.len() - 10..]
            .iter()
            .map(|s| s.total_reward)
            .sum::<f64>()
            / 10.0;
        assert!(
            late > early,
            "reward should improve: early {early}, late {late}"
        );
    }

    #[test]
    fn act_greedy_is_deterministic() {
        let agent = DqnAgent::new(2, 3, DqnConfig::fast());
        let s = [0.3, -0.2];
        assert_eq!(agent.act_greedy(&s), agent.act_greedy(&s));
    }

    #[test]
    fn epsilon_one_explores_epsilon_zero_exploits() {
        let mut agent = DqnAgent::new(
            1,
            4,
            DqnConfig {
                seed: 9,
                ..DqnConfig::fast()
            },
        );
        let s = [0.5];
        let greedy = agent.act_greedy(&s);
        // ε = 0 always matches greedy.
        for _ in 0..10 {
            assert_eq!(agent.act(&s, 0.0), greedy);
        }
        // ε = 1 eventually picks something else.
        let mut saw_other = false;
        for _ in 0..100 {
            if agent.act(&s, 1.0) != greedy {
                saw_other = true;
                break;
            }
        }
        assert!(saw_other);
    }

    #[test]
    fn train_step_reports_td_error() {
        let mut agent = DqnAgent::new(1, 2, DqnConfig::fast());
        assert!(
            agent.train_step().is_none(),
            "empty buffer yields no update"
        );
        agent.remember(Transition {
            state: vec![0.0],
            action: 0,
            reward: 1.0,
            next_state: vec![0.5],
            done: false,
        });
        let td = agent.train_step().expect("buffer non-empty");
        assert!(td.is_finite());
    }

    #[test]
    fn moving_average_matches_paper_window() {
        let vals: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let ma = moving_average(&vals, 9);
        assert_eq!(ma.len(), 4);
        assert!((ma[0] - 4.0).abs() < 1e-12); // mean of 0..=8
        assert!(moving_average(&[], 9).is_empty());
        assert!(moving_average(&vals, 0).is_empty());
    }
}
