//! Fig. 8: moving average (window 9) of episode rewards accumulated by the
//! DQN agent, for initial exploration rates ε₀ ∈ {0, 0.5, 1}, serving
//! (a) 1 IFU and (b) 2 IFUs.

use parole::{ReorderEnv, RewardConfig};
use parole_bench::economy::Economy;
use parole_bench::report::{print_table, write_json};
use parole_bench::Scale;
use parole_drl::{moving_average, DqnAgent, DqnConfig, Environment};
use parole_par::{parallel_map, threads_from_env};
use serde::Serialize;

#[derive(Serialize)]
struct Series {
    ifus: usize,
    epsilon0: f64,
    moving_avg_rewards: Vec<f64>,
}

fn train_series(ifus: usize, epsilon0: f64, scale: Scale) -> Series {
    // The exploration-vs-exploitation contrast the paper plots only shows up
    // when the action space is large enough that greedy value-elimination
    // cannot sweep it: windows of 20 (fast) / 50 (full) transactions give
    // C(N,2) = 190 / 1225 actions.
    let window_len = match scale {
        Scale::Fast => 20,
        Scale::Full => 50,
    };
    let economy = Economy::build(window_len, ifus, 5);
    let window = economy.window(window_len, 5);
    let mut env = ReorderEnv::new(
        economy.state.clone(),
        window,
        economy.ifus.clone(),
        RewardConfig::default(),
    );

    let base = scale.gentranseq_training();
    let episodes = base.dqn_config().episodes;
    let config = DqnConfig {
        epsilon: epsilon0,
        // ε₀ = 0 must stay at zero (pure exploitation) rather than decay
        // toward the floor.
        epsilon_min: if epsilon0 == 0.0 { 0.0 } else { 0.01 },
        // Keep the decay-completion fraction of the paper's schedule
        // (d = 0.05 over 100 episodes) when the episode budget shrinks.
        epsilon_decay: 0.05 * 100.0 / episodes as f64,
        seed: 11,
        ..*base.dqn_config()
    };
    let mut agent = DqnAgent::new(env.state_dim(), env.action_count(), config);
    let stats = agent.train(&mut env);
    let rewards: Vec<f64> = stats.iter().map(|s| s.total_reward).collect();
    Series {
        ifus,
        epsilon0,
        moving_avg_rewards: moving_average(&rewards, 9),
    }
}

fn main() {
    let scale = Scale::from_env();
    let epsilons = [0.0f64, 0.5, 1.0];
    let ifu_counts = [1usize, 2];

    let mut jobs = Vec::new();
    for &ifus in &ifu_counts {
        for &eps in &epsilons {
            jobs.push((ifus, eps));
        }
    }
    let series: Vec<Series> = parallel_map(jobs, threads_from_env(), |(ifus, eps)| {
        train_series(ifus, eps, scale)
    });

    for &ifus in &ifu_counts {
        let cell: Vec<&Series> = series.iter().filter(|s| s.ifus == ifus).collect();
        let len = cell
            .iter()
            .map(|s| s.moving_avg_rewards.len())
            .min()
            .unwrap_or(0);
        let stride = (len / 12).max(1);
        let mut rows = Vec::new();
        for i in (0..len).step_by(stride) {
            let mut row = vec![format!("{}", i + 9)]; // window-aligned episode index
            for s in &cell {
                row.push(format!("{:.1}", s.moving_avg_rewards[i]));
            }
            rows.push(row);
        }
        let header: Vec<String> = std::iter::once("Episode".to_string())
            .chain(cell.iter().map(|s| format!("eps0={}", s.epsilon0)))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        print_table(
            &format!("Fig 8: moving-average episode reward (window 9), {ifus} IFU(s)"),
            &header_refs,
            &rows,
        );

        // Shape checks from the paper: exploration wins.
        let last = |eps: f64| -> f64 {
            cell.iter()
                .find(|s| s.epsilon0 == eps)
                .and_then(|s| s.moving_avg_rewards.last().copied())
                .unwrap_or(f64::NAN)
        };
        println!(
            "shape {ifus} IFU(s): final MA reward eps0=0: {:.1}, eps0=0.5: {:.1}, eps0=1: {:.1} \
             (exploring agents should finish above the greedy-from-start one)",
            last(0.0),
            last(0.5),
            last(1.0)
        );
    }
    write_json("fig8", &series);
}
