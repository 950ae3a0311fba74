//! Fig. 7: total attack profit (all IFUs summed) as the fraction of
//! adversarial aggregators sweeps 10%–50%, for two mempool sizes, serving
//! (a) 1 IFU and (b) 2 IFUs.

use parole::fleet::{run_fleet, FleetConfig};
use parole_bench::report::{print_table, write_json};
use parole_bench::Scale;
use parole_par::{parallel_map, threads_from_env};
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    ifus: usize,
    mempool: usize,
    adversarial_pct: u32,
    total_profit_gwei: i128,
    adversarial_tips_gwei: u128,
}

fn main() {
    let scale = Scale::from_env();
    let mempools = scale.fig7_mempool_sizes();
    let percents = [10u32, 20, 30, 40, 50];
    let ifu_counts = [1usize, 2];

    let mut jobs = Vec::new();
    for &ifus in &ifu_counts {
        for &mempool in &mempools {
            for &pct in &percents {
                jobs.push((ifus, mempool, pct));
            }
        }
    }
    // Sweep cells on a bounded pool (PAROLE_THREADS overrides the size); the
    // inner fleets stay single-threaded so cells don't fight for cores.
    let results: Vec<Cell> = parallel_map(jobs, threads_from_env(), |(ifus, mempool, pct)| {
        let gentranseq = scale.gentranseq();
        // Average over independent seeds to denoise the cell.
        const SEEDS: u64 = 3;
        let mut acc: i128 = 0;
        let mut tips: u128 = 0;
        for rep in 0..SEEDS {
            let config = FleetConfig {
                adversarial_fraction: pct as f64 / 100.0,
                mempool_size: mempool,
                n_ifus: ifus,
                gentranseq: gentranseq.clone(),
                seed: 77 + mempool as u64 * 100 + pct as u64 * 10 + rep,
                threads: 1,
                ..FleetConfig::default()
            };
            let outcome = run_fleet(&config);
            acc += outcome.total_profit_gwei();
            tips += outcome.adversarial_tip_revenue.gwei();
        }
        Cell {
            ifus,
            mempool,
            adversarial_pct: pct,
            total_profit_gwei: acc / SEEDS as i128,
            adversarial_tips_gwei: tips / SEEDS as u128,
        }
    });

    for &ifus in &ifu_counts {
        let mut rows = Vec::new();
        for &pct in &percents {
            let mut row = vec![format!("{pct}%")];
            for &mempool in &mempools {
                let cell = results
                    .iter()
                    .find(|c| c.ifus == ifus && c.mempool == mempool && c.adversarial_pct == pct)
                    .expect("cell computed");
                row.push(cell.total_profit_gwei.to_string());
            }
            rows.push(row);
        }
        let header: Vec<String> = std::iter::once("Adversarial".to_string())
            .chain(mempools.iter().map(|m| format!("Mempool {m}")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        print_table(
            &format!("Fig 7: total profit (Gwei), serving {ifus} IFU(s)"),
            &header_refs,
            &rows,
        );

        // Shape check: profit should trend upward with more adversaries.
        for &mempool in &mempools {
            let lo = results
                .iter()
                .find(|c| c.ifus == ifus && c.mempool == mempool && c.adversarial_pct == 10)
                .unwrap()
                .total_profit_gwei;
            let hi = results
                .iter()
                .find(|c| c.ifus == ifus && c.mempool == mempool && c.adversarial_pct == 50)
                .unwrap()
                .total_profit_gwei;
            println!(
                "shape {ifus} IFU/mempool {mempool}: 10% -> {lo}, 50% -> {hi} ({})",
                if hi >= lo {
                    "increasing, as in the paper"
                } else {
                    "NOT increasing"
                }
            );
        }
    }
    // Economics note the paper leaves implicit: how the attack compares to
    // the adversaries' honest tip income.
    let worst = results
        .iter()
        .max_by_key(|c| c.total_profit_gwei)
        .expect("non-empty sweep");
    println!(
        "
economics: at {}% adversarial / mempool {} the attack pays {} Gwei vs {} Gwei of          honest tips ({}x)",
        worst.adversarial_pct,
        worst.mempool,
        worst.total_profit_gwei,
        worst.adversarial_tips_gwei,
        if worst.adversarial_tips_gwei > 0 {
            worst.total_profit_gwei as f64 / worst.adversarial_tips_gwei as f64
        } else {
            f64::NAN
        }
    );
    write_json("fig7", &results);
}
