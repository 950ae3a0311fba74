//! # parole-drl
//!
//! A from-scratch deep reinforcement learning substrate sized for the
//! GENTRANSEQ module (paper §II-C, §V-C): dense feed-forward networks with
//! backpropagation, a replay memory buffer, and a deep Q-network agent with
//! a target network and ε-greedy exploration.
//!
//! Everything is plain `f64` CPU math — the paper's Q-network is small
//! (`8·N` inputs, `C(N,2)` outputs for a mempool of `N` transactions), so no
//! external tensor library is warranted.
//!
//! The crate is deliberately generic: the [`Environment`] trait carries no
//! NFT or rollup vocabulary, so the DQN here can drive any discrete-action
//! task (the unit tests train it on a toy line-world). The transaction
//! re-ordering MDP lives in the `parole` core crate.
//!
//! # Table II hyper-parameters
//!
//! [`DqnConfig::paper`] reproduces the paper's Table II exactly:
//! ε₀ = 0.95, decay d = 0.05, γ = 0.618, 100 episodes × 200 steps,
//! α = 0.7, replay buffer 5 000, Q-network update every 5 steps, target
//! network update every 30 steps.
//!
//! # Example
//!
//! ```
//! use parole_drl::{Adam, BatchScratch, Mlp};
//!
//! // Learn y = x on a tiny network, one sample per step.
//! let mut net = Mlp::new(&[1, 8, 1], 42);
//! let mut opt = Adam::new(0.01);
//! let mut scratch = BatchScratch::default();
//! for _ in 0..400 {
//!     for x in [-1.0f64, -0.5, 0.0, 0.5, 1.0] {
//!         net.forward_batch(&[x], 1, &mut scratch);
//!         let grads = net.backward_batch(&[x], 1, &scratch);
//!         opt.apply(&mut net, &grads);
//!     }
//! }
//! let out = net.forward(&[0.25]);
//! assert!((out[0] - 0.25).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dqn;
mod env;
mod network;
mod replay;

pub use dqn::{moving_average, DqnAgent, DqnConfig, EpisodeStats};
pub use env::{Environment, StepOutcome};
pub use network::{Adam, BatchScratch, Gradients, Mlp, Sgd};
pub use replay::{ReplayBuffer, Transition};
