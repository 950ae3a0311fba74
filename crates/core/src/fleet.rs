//! The multi-aggregator fleet simulation behind Fig. 6 and Fig. 7.
//!
//! A population of aggregators serves a shared rollup. A configurable
//! fraction is adversarial: those run the PAROLE pipeline on every window
//! they collect; the rest execute the fee order honestly. Traffic is
//! generated round by round from the evolving chain state, so each window is
//! executable at its collection point (the property Bedrock's fee ordering
//! provides on the real chain).
//!
//! Within a round every aggregator collects its window from the same
//! round-start state — the fleet collects concurrently, as it would on the
//! real chain — from its own seeded traffic stream. That makes the expensive
//! per-aggregator ordering step (`build_batch`, which runs GENTRANSEQ
//! training for adversarial aggregators) independent across the fleet, so
//! [`run_fleet`] fans it out over a bounded worker pool
//! ([`parole_par::parallel_map`]) and then commits batches in aggregator
//! order. Because each aggregator owns its RNG streams and commits are
//! serialized in a fixed order, the [`FleetOutcome`] is **bit-identical for
//! every pool size** (see the `thread_count` determinism test).
//!
//! Profit accounting follows the paper: for every exploited window, the
//! attack profit is the difference between the IFUs' final combined balance
//! under the executed (GENTRANSEQ) order and under the original fee order,
//! measured at decision time. Fig. 6 plots the *average profit per IFU*;
//! Fig. 7 plots the *total* profit. The paper's y-axis unit ("Satoshis") is
//! reported here as Gwei (see EXPERIMENTS.md).

use crate::defense::window_tip_revenue;
use crate::{GentranseqModule, ParoleModule, ParoleStrategy};
use parole_mempool::{WorkloadConfig, WorkloadGenerator};
use parole_nft::CollectionConfig;
use parole_ovm::{GasSchedule, Ovm};
use parole_primitives::{Address, AggregatorId, Wei, WeiDelta};
use parole_rollup::{Aggregator, FeePriorityStrategy};
use parole_state::L2State;
use serde::{Deserialize, Serialize};

/// Parameters of one fleet experiment cell.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Total number of aggregators.
    pub n_aggregators: usize,
    /// Fraction of aggregators running PAROLE (0.1 in Fig. 6(a), 0.5 in
    /// Fig. 6(b); swept 0.1–0.5 in Fig. 7).
    pub adversarial_fraction: f64,
    /// Window size each aggregator collects (the paper's per-aggregator
    /// "Mempool" size: 25 / 50 / 100).
    pub mempool_size: usize,
    /// Number of colluding IFUs served by every adversarial aggregator.
    pub n_ifus: usize,
    /// Size of the general user population.
    pub n_users: usize,
    /// Rounds of window collection per aggregator.
    pub rounds: usize,
    /// Minimum collection max-supply; the effective supply is
    /// `max(collection_supply, 2 × mempool_size)`.
    pub collection_supply: u64,
    /// Initial bonding-curve price in milli-ETH.
    pub initial_price_milli: u64,
    /// Funding per user in ETH.
    pub user_funding_eth: u64,
    /// Probability that generated traffic is steered to involve an IFU.
    /// Note this is *per transaction*, independent of `n_ifus`: the total
    /// IFU-involving mass in a window stays constant as it is split across
    /// more IFUs, which is what makes Fig. 6's per-IFU average decrease.
    pub ifu_participation: f64,
    /// Guarantee each IFU a mint + transfer pair at the stream head. Leave
    /// off for Fig. 6-style sweeps (it would grow the IFU mass linearly in
    /// `n_ifus`).
    pub ensure_ifu_pair: bool,
    /// GENTRANSEQ profile for the adversarial aggregators.
    pub gentranseq: GentranseqModule,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker-pool size for the per-aggregator ordering step (`0` = the
    /// machine's available parallelism). Results are identical for every
    /// value — this only trades wall-clock for cores.
    pub threads: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_aggregators: 10,
            adversarial_fraction: 0.1,
            mempool_size: 25,
            n_ifus: 1,
            n_users: 20,
            rounds: 1,
            collection_supply: 40,
            initial_price_milli: 500,
            user_funding_eth: 50,
            ifu_participation: 0.35,
            ensure_ifu_pair: false,
            gentranseq: GentranseqModule::fast(),
            seed: 42,
            threads: 0,
        }
    }
}

/// Per-aggregator accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregatorReport {
    /// The aggregator's id.
    pub id: u64,
    /// Whether it ran the PAROLE strategy.
    pub adversarial: bool,
    /// Windows it processed.
    pub windows: u64,
    /// Windows where a profitable re-ordering was executed.
    pub exploited: u64,
    /// Its cumulative attack profit (zero for honest aggregators).
    pub profit: WeiDelta,
    /// Cumulative priority-fee (tip) revenue over its windows — the honest
    /// income an aggregator earns regardless of strategy. Comparing this to
    /// `profit` answers "is attacking worth it".
    pub tip_revenue: Wei,
}

/// Outcome of one fleet experiment cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetOutcome {
    /// Sum of attack profits over all adversarial aggregators (Fig. 7's y).
    pub total_profit: WeiDelta,
    /// `total_profit / n_ifus` (Fig. 6's y).
    pub avg_profit_per_ifu: WeiDelta,
    /// Number of adversarial aggregators in the fleet.
    pub adversarial_count: usize,
    /// Honest tip revenue of the adversarial aggregators (the income they
    /// would have earned anyway).
    pub adversarial_tip_revenue: Wei,
    /// Per-aggregator detail.
    pub per_aggregator: Vec<AggregatorReport>,
}

impl FleetOutcome {
    /// Total profit in Gwei (the reporting unit of Fig. 6/7).
    pub fn total_profit_gwei(&self) -> i128 {
        self.total_profit.gwei()
    }

    /// Average per-IFU profit in Gwei.
    pub fn avg_profit_per_ifu_gwei(&self) -> i128 {
        self.avg_profit_per_ifu.gwei()
    }
}

/// Runs one fleet experiment cell.
pub fn run_fleet(config: &FleetConfig) -> FleetOutcome {
    assert!(config.n_aggregators > 0 && config.mempool_size > 0);
    let adversarial_count =
        ((config.n_aggregators as f64 * config.adversarial_fraction).round() as usize).clamp(
            if config.adversarial_fraction > 0.0 {
                1
            } else {
                0
            },
            config.n_aggregators,
        );

    // Economy: one limited-edition collection, funded users, funded IFUs
    // holding a couple of tokens each (the case-study shape).
    let mut state = L2State::new();
    // `collection_supply` acts as a floor; the effective supply scales with
    // the window size so the bonding curve keeps moving under long windows.
    let supply = config.collection_supply.max(config.mempool_size as u64 * 2);
    let collection = state.deploy_collection(CollectionConfig::limited_edition(
        "FleetPT",
        supply,
        config.initial_price_milli,
    ));
    let users: Vec<Address> = (1..=config.n_users as u64)
        .map(Address::from_low_u64)
        .collect();
    for &u in &users {
        state.credit(u, Wei::from_eth(config.user_funding_eth));
    }
    let ifus: Vec<Address> = (0..config.n_ifus as u64)
        .map(|i| Address::from_low_u64(10_000 + i))
        .collect();
    for &ifu in &ifus {
        state.credit(ifu, Wei::from_eth(config.user_funding_eth));
    }
    let mut token = 0u64;
    for &ifu in &ifus {
        for t in [token, token + 1] {
            state
                .nft_mint(collection, ifu, parole_primitives::TokenId::new(t))
                .expect("just deployed")
                .unwrap();
        }
        token += 2;
    }
    // Bystanders holding tokens give transfers and burns material.
    for (i, &u) in users.iter().take(8).enumerate() {
        state
            .nft_mint(
                collection,
                u,
                parole_primitives::TokenId::new(token + i as u64),
            )
            .expect("just deployed")
            .unwrap();
    }

    // Build the fleet: the first `adversarial_count` aggregators attack.
    let mut aggregators: Vec<Aggregator> = (0..config.n_aggregators)
        .map(|i| {
            let id = AggregatorId::new(i as u64);
            if i < adversarial_count {
                let module = ParoleModule::new(
                    config
                        .gentranseq
                        .with_seed(config.seed.wrapping_add(i as u64)),
                );
                Aggregator::new(
                    id,
                    Wei::from_eth(10),
                    Box::new(ParoleStrategy::new(module, ifus.clone())),
                )
            } else {
                Aggregator::new(id, Wei::from_eth(10), Box::new(FeePriorityStrategy))
            }
        })
        .collect();

    // Traffic generation + chained execution. Each aggregator draws from its
    // own seeded stream (golden-ratio spaced so streams do not collide), so
    // window contents are a pure function of (config, aggregator, round) —
    // never of which worker thread served the aggregator.
    let workload = WorkloadConfig {
        ifu_participation: config.ifu_participation,
        ensure_ifu_pair: config.ensure_ifu_pair,
        ..WorkloadConfig::default()
    };
    let mut generators: Vec<WorkloadGenerator> = (0..config.n_aggregators)
        .map(|i| {
            let stream = config
                .seed
                .wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1));
            WorkloadGenerator::new(stream, workload.clone())
        })
        .collect();
    let ovm = Ovm::new();
    let mut reports: Vec<AggregatorReport> = aggregators
        .iter()
        .enumerate()
        .map(|(i, a)| AggregatorReport {
            id: a.id().value(),
            adversarial: i < adversarial_count,
            windows: 0,
            exploited: 0,
            profit: WeiDelta::ZERO,
            tip_revenue: Wei::ZERO,
        })
        .collect();

    let gas_schedule = GasSchedule::paper_calibrated();
    let base_fee = Wei::from_gwei(1);
    for _round in 0..config.rounds {
        // Every aggregator collects its window from the round-start state
        // (concurrent collection, like the real chain). Generation itself is
        // cheap and stays sequential so generator state advances in a fixed
        // order.
        let windows: Vec<_> = generators
            .iter_mut()
            .map(|g| g.generate(&state, collection, &users, &ifus, config.mempool_size))
            .collect();

        // Materialize the round-start commitment before fanning out. The
        // cache lives behind the state's internal mutex, so without this the
        // amount of Merkle work each cell observes (and its clones inherit)
        // would depend on which worker reads the root first — the hash
        // values stay identical, but per-cell work counts would vary with
        // the pool partition, which the telemetry determinism checks forbid.
        let _ = state.state_root();

        // Fan the expensive ordering step (GENTRANSEQ training for the
        // adversarial aggregators) across the pool. Tip revenue is a
        // permutation-invariant sum, so it can be read off the re-ordered
        // batch inside the worker.
        let state_ref = &state;
        let gas_ref = &gas_schedule;
        let built = parole_par::parallel_map(
            aggregators.iter_mut().zip(windows).collect(),
            config.threads,
            move |(agg, window): (&mut Aggregator, Vec<_>)| {
                let _span = parole_telemetry::span("fleet.cell");
                parole_telemetry::counter("fleet.cells", 1);
                if window.is_empty() {
                    return None;
                }
                let batch = agg.build_batch(state_ref, window);
                let tips = window_tip_revenue(&batch.txs, base_fee, gas_ref);
                Some((batch, tips))
            },
        );

        // Commit the executed (possibly re-ordered) batches to the chain in
        // aggregator order — the serialization point that keeps the outcome
        // independent of the pool size.
        for (i, item) in built.into_iter().enumerate() {
            if let Some((batch, tips)) = item {
                reports[i].tip_revenue += tips;
                let _ = ovm.execute_sequence(&mut state, &batch.txs);
                state.advance_block();
                reports[i].windows += 1;
            }
        }
    }

    // Harvest per-strategy profit through the attack-stats probe.
    let mut total_profit = WeiDelta::ZERO;
    for (report, agg) in reports.iter_mut().zip(&aggregators) {
        if let Some((profit, seen, exploited)) = agg.strategy_stats() {
            report.profit = profit;
            report.windows = seen;
            report.exploited = exploited;
            total_profit += profit;
        }
    }

    let n_ifus = config.n_ifus.max(1) as i128;
    let adversarial_tip_revenue = reports
        .iter()
        .filter(|r| r.adversarial)
        .map(|r| r.tip_revenue)
        .sum();
    FleetOutcome {
        total_profit,
        avg_profit_per_ifu: WeiDelta::from_wei(total_profit.wei() / n_ifus),
        adversarial_count,
        adversarial_tip_revenue,
        per_aggregator: reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FleetConfig {
        FleetConfig {
            n_aggregators: 4,
            adversarial_fraction: 0.25,
            mempool_size: 10,
            n_users: 10,
            collection_supply: 60,
            gentranseq: GentranseqModule::fast(),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_produces_profit_for_the_adversary() {
        let outcome = run_fleet(&small_config());
        assert_eq!(outcome.adversarial_count, 1);
        assert_eq!(outcome.per_aggregator.len(), 4);
        // The adversarial aggregator should extract non-negative profit, and
        // with price-moving traffic it should essentially always be positive.
        assert!(
            !outcome.total_profit.is_loss(),
            "attack profit cannot be negative: {}",
            outcome.total_profit
        );
        let adv: Vec<_> = outcome
            .per_aggregator
            .iter()
            .filter(|r| r.adversarial)
            .collect();
        assert_eq!(adv.len(), 1);
        assert!(adv[0].windows >= 1);
    }

    #[test]
    fn more_adversaries_mean_no_less_total_profit() {
        let low = run_fleet(&FleetConfig {
            adversarial_fraction: 0.25,
            ..small_config()
        });
        let high = run_fleet(&FleetConfig {
            adversarial_fraction: 0.75,
            ..small_config()
        });
        assert!(high.adversarial_count > low.adversarial_count);
        assert!(
            high.total_profit >= low.total_profit,
            "more attackers should extract at least as much: {} vs {}",
            high.total_profit,
            low.total_profit
        );
    }

    #[test]
    fn tip_revenue_is_tracked_for_every_aggregator() {
        let outcome = run_fleet(&small_config());
        for report in &outcome.per_aggregator {
            if report.windows > 0 {
                assert!(report.tip_revenue > Wei::ZERO, "windows carry tips");
            }
        }
        assert!(outcome.adversarial_tip_revenue > Wei::ZERO);
    }

    #[test]
    fn fleet_outcome_is_bit_identical_across_pool_sizes() {
        let base = FleetConfig {
            rounds: 2,
            ..small_config()
        };
        let one = run_fleet(&FleetConfig {
            threads: 1,
            ..base.clone()
        });
        let two = run_fleet(&FleetConfig {
            threads: 2,
            ..base.clone()
        });
        let four = run_fleet(&FleetConfig {
            threads: 4,
            ..base.clone()
        });
        let auto = run_fleet(&FleetConfig { threads: 0, ..base });
        assert_eq!(one, two);
        assert_eq!(one, four);
        assert_eq!(one, auto);
    }

    #[test]
    fn avg_profit_divides_by_ifus() {
        let outcome = run_fleet(&FleetConfig {
            n_ifus: 2,
            ..small_config()
        });
        assert_eq!(
            outcome.avg_profit_per_ifu.wei(),
            outcome.total_profit.wei() / 2
        );
    }
}
