//! Every workload at tiny size (10³ accounts, a few blocks or windows):
//! the output checks pass, each run prints exactly the declared metrics,
//! and the traced run reproduces the untraced one with consistent work
//! counts.

use pipebench::{run, Args, Outcome, Size, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let outcome = run(&Args {
        workload,
        seed: 11,
        seconds: 1,
        trace,
        size: Size::Tiny,
    });
    assert!(
        outcome.correct(),
        "{workload:?} trace={trace}: {:?}",
        outcome.checks.problems()
    );
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0);
    outcome
}

fn names(outcome: &Outcome) -> Vec<(&'static str, &'static str)> {
    outcome.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

#[test]
fn untraced_runs_pass_their_checks_and_print_end_to_end_metrics() {
    for workload in [Workload::Market, Workload::Signed, Workload::Attack] {
        let outcome = tiny(workload, false);
        assert_eq!(names(&outcome), END_TO_END.to_vec());
        for m in &outcome.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload:?} {m:?}");
        }
        let json = outcome.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(outcome.tracer.is_none());
    }
}

#[test]
fn traced_market_accounts_for_every_transaction() {
    let untraced = tiny(Workload::Market, false);
    let traced = tiny(Workload::Market, true);
    assert_eq!(names(&traced), PER_LAYER.to_vec());
    let scheduled = untraced.attempted as f64;
    for counter in ["mempool.admitted", "mempool.heap_pops", "ovm.txs_executed"] {
        assert_eq!(value(&traced, counter), scheduled, "{counter}");
    }
    assert_eq!(value(&traced, "crypto.verifies"), 0.0, "market is unsigned");
    assert_eq!(value(&traced, "ovm.reverts"), 0.0);
    assert!(value(&traced, "ovm.log_entries") >= scheduled);
    assert!(value(&traced, "state.roots") > 0.0);
    assert_eq!(value(&traced, "core.windows"), 0.0);
    assert!(value(&traced, "pipeline.throughput_tps") > 0.0);
    assert!(
        value(&traced, "pipeline.latency_tail_ms") >= value(&traced, "pipeline.latency_p50_ms")
    );
    let tracer = traced.tracer.as_ref().expect("traced run keeps spans");
    assert!(tracer.to_jsonl().lines().count() == tracer.spans().len());
}

#[test]
fn traced_signed_verifies_every_signature_inside_execution() {
    let traced = tiny(Workload::Signed, true);
    let verifies = value(&traced, "crypto.verifies");
    assert_eq!(verifies, traced.attempted as f64);
    assert!(value(&traced, "crypto.verify_ms") > 0.0);
    assert!(value(&traced, "ovm.execute_ms") >= value(&traced, "crypto.verify_ms"));
    let own = value(&traced, "ovm.execute_self_ms");
    let total = value(&traced, "ovm.execute_ms") - value(&traced, "crypto.verify_ms");
    assert!(
        (own - total).abs() < 1e-6,
        "self time is execute minus verify"
    );
}

#[test]
fn traced_attack_reproduces_every_window() {
    let traced = tiny(Workload::Attack, true);
    assert_eq!(names(&traced), PER_LAYER.to_vec());
    let windows = value(&traced, "core.windows");
    assert_eq!(windows, 3.0);
    assert!(
        value(&traced, "pipeline.latency_tail_ms") >= value(&traced, "pipeline.latency_p50_ms")
    );
    assert_eq!(value(&traced, "rollup.batches"), windows);
    assert_eq!(value(&traced, "state.roots"), windows);
    assert!(value(&traced, "core.env_steps") > 0.0);
    assert!(value(&traced, "drl.train_ms") > 0.0);
    assert!(value(&traced, "core.exploit_ratio") <= 1.0);
    assert!(value(&traced, "core.profit_gwei_per_window") >= 0.0);
    assert_eq!(value(&traced, "mempool.admitted"), 0.0);
    // Layer spans cover the window spans up to the benchmark's own
    // bookkeeping.
    assert!(value(&traced, "trace.gap_ms") < 0.1 * value(&traced, "trace.block_ms"));
}
