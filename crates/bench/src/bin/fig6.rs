//! Fig. 6: average attack profit per IFU while serving different numbers of
//! IFUs (1–4), with variable per-aggregator mempool sizes, at
//! (a) 10% adversarial aggregators and (b) 50%.

use parole::fleet::{run_fleet, FleetConfig};
use parole_bench::report::{print_table, write_json};
use parole_bench::Scale;
use parole_par::{parallel_map, threads_from_env};
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    adversarial_pct: u32,
    mempool: usize,
    ifus: usize,
    avg_profit_per_ifu_gwei: i128,
}

fn main() {
    let scale = Scale::from_env();
    let mempools = scale.fig6_mempool_sizes();
    let ifu_counts = [1usize, 2, 3, 4];
    let fractions = [(10u32, 0.10f64), (50, 0.50)];

    // Sweep cells in parallel: each cell is an independent seeded simulation.
    let mut jobs = Vec::new();
    for &(pct, fraction) in &fractions {
        for &mempool in &mempools {
            for &ifus in &ifu_counts {
                jobs.push((pct, fraction, mempool, ifus));
            }
        }
    }
    // Sweep cells on a bounded pool (PAROLE_THREADS overrides the size); the
    // inner fleets stay single-threaded so cells don't fight for cores.
    let results: Vec<Cell> = parallel_map(
        jobs,
        threads_from_env(),
        |(pct, fraction, mempool, ifus)| {
            let gentranseq = scale.gentranseq();
            // Average over independent seeds to denoise the cell.
            const SEEDS: u64 = 3;
            let mut acc: i128 = 0;
            for rep in 0..SEEDS {
                let config = FleetConfig {
                    adversarial_fraction: fraction,
                    mempool_size: mempool,
                    n_ifus: ifus,
                    gentranseq: gentranseq.clone(),
                    seed: 42 + mempool as u64 * 100 + ifus as u64 * 10 + rep,
                    threads: 1,
                    ..FleetConfig::default()
                };
                acc += run_fleet(&config).avg_profit_per_ifu_gwei();
            }
            Cell {
                adversarial_pct: pct,
                mempool,
                ifus,
                avg_profit_per_ifu_gwei: acc / SEEDS as i128,
            }
        },
    );

    for &(pct, _) in &fractions {
        let mut rows = Vec::new();
        for &ifus in &ifu_counts {
            let mut row = vec![ifus.to_string()];
            for &mempool in &mempools {
                let cell = results
                    .iter()
                    .find(|c| c.adversarial_pct == pct && c.mempool == mempool && c.ifus == ifus)
                    .expect("cell computed");
                row.push(format!("{}", cell.avg_profit_per_ifu_gwei));
            }
            rows.push(row);
        }
        let header: Vec<String> = std::iter::once("#IFUs".to_string())
            .chain(mempools.iter().map(|m| format!("Mempool {m}")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        print_table(
            &format!("Fig 6: avg profit per IFU (Gwei), {pct}% adversarial"),
            &header_refs,
            &rows,
        );
    }

    // Shape checks the paper reports.
    for &(pct, _) in &fractions {
        for &mempool in &mempools {
            let p1 = results
                .iter()
                .find(|c| c.adversarial_pct == pct && c.mempool == mempool && c.ifus == 1)
                .unwrap()
                .avg_profit_per_ifu_gwei;
            let p4 = results
                .iter()
                .find(|c| c.adversarial_pct == pct && c.mempool == mempool && c.ifus == 4)
                .unwrap()
                .avg_profit_per_ifu_gwei;
            println!(
                "shape {pct}%/mempool {mempool}: per-IFU profit 1 IFU = {p1} vs 4 IFUs = {p4} \
                 ({})",
                if p1 >= p4 {
                    "decreasing, as in the paper"
                } else {
                    "NOT decreasing"
                }
            );
        }
    }
    write_json("fig6", &results);
}
