//! Fig. 9: kernel-density-estimate curves of the "solution size" — the
//! number of swaps a trained DQN agent performs before the first candidate
//! solution (an ordering strictly better than the original) appears — for
//! 1–4 IFUs and two mempool sizes.

use parole::GentranseqModule;
use parole_bench::economy::Economy;
use parole_bench::kde::KernelDensity;
use parole_bench::report::{print_table, write_json};
use parole_bench::Scale;
use parole_par::{parallel_map, threads_from_env};
use serde::Serialize;

#[derive(Serialize)]
struct Curve {
    mempool: usize,
    ifus: usize,
    samples: Vec<usize>,
    mode_swaps: f64,
    kde: Vec<(f64, f64)>,
}

fn collect_samples(
    mempool: usize,
    ifus: usize,
    module: &GentranseqModule,
    runs: usize,
) -> Vec<usize> {
    let workload = parole_mempool::WorkloadConfig {
        ifu_participation: 0.25,
        ..parole_mempool::WorkloadConfig::default()
    };
    let mut samples = Vec::new();
    for run in 0..runs {
        let economy = Economy::build(mempool, ifus, run as u64);
        let window = economy.window_with(mempool, 1000 + run as u64, workload.clone());
        if window.len() < 2 {
            continue;
        }
        let outcome = module
            .with_seed(run as u64)
            .run(&economy.state, &window, &economy.ifus);
        if let Some(swaps) = outcome.swaps_to_first_candidate {
            samples.push(swaps);
        }
    }
    samples
}

fn main() {
    let scale = Scale::from_env();
    let mempools = scale.fig7_mempool_sizes();
    let ifu_counts = [1usize, 2, 3, 4];
    let runs = match scale {
        Scale::Fast => 24,
        Scale::Full => 40,
    };

    let mut jobs = Vec::new();
    for &mempool in &mempools {
        for &ifus in &ifu_counts {
            jobs.push((mempool, ifus));
        }
    }
    let curves: Vec<Curve> = parallel_map(jobs, threads_from_env(), |(mempool, ifus)| {
        // Fig. 9 measures the *trained* agent's behaviour, so use the
        // training profile rather than the cheap fleet profile.
        let module = scale.gentranseq_training();
        let samples = collect_samples(mempool, ifus, &module, runs);
        let floats: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        let (mode, kde) = if floats.is_empty() {
            (f64::NAN, Vec::new())
        } else {
            let k = KernelDensity::fit(&floats);
            let hi = floats.iter().cloned().fold(1.0, f64::max) + 5.0;
            (k.mode(0.0, hi, 200), k.curve(0.0, hi, 40))
        };
        Curve {
            mempool,
            ifus,
            samples,
            mode_swaps: mode,
            kde,
        }
    });

    for &mempool in &mempools {
        let rows: Vec<Vec<String>> = ifu_counts
            .iter()
            .map(|&ifus| {
                let c = curves
                    .iter()
                    .find(|c| c.mempool == mempool && c.ifus == ifus)
                    .expect("curve computed");
                let spread = if c.samples.is_empty() {
                    "-".to_string()
                } else {
                    let min = c.samples.iter().min().unwrap();
                    let max = c.samples.iter().max().unwrap();
                    format!("{min}..{max}")
                };
                vec![
                    ifus.to_string(),
                    c.samples.len().to_string(),
                    format!("{:.1}", c.mode_swaps),
                    spread,
                ]
            })
            .collect();
        print_table(
            &format!("Fig 9: solution-size KDE, mempool {mempool}"),
            &["#IFUs", "samples", "mode (swaps)", "range"],
            &rows,
        );
    }

    // Shape check: more IFUs spread the distribution (range widens or mode
    // moves right).
    for &mempool in &mempools {
        let mode1 = curves
            .iter()
            .find(|c| c.mempool == mempool && c.ifus == 1)
            .map(|c| c.mode_swaps)
            .unwrap_or(f64::NAN);
        let mode4 = curves
            .iter()
            .find(|c| c.mempool == mempool && c.ifus == 4)
            .map(|c| c.mode_swaps)
            .unwrap_or(f64::NAN);
        println!("shape mempool {mempool}: mode 1 IFU {mode1:.1} vs 4 IFUs {mode4:.1}");
    }
    write_json("fig9", &curves);
}
