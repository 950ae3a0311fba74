//! Pipeline benchmark for the PAROLE reproduction.
//!
//! Three workloads run on the same chain shape (10⁶ funded accounts), each
//! in its own process as a closed loop: one producer seals blocks (or
//! attack windows) back to back on the calling thread, under the
//! sequencer's default serial execution.
//!
//! - `market` ([`pipeline`]): the sequencer hot path — admission, sealing,
//!   execution, log indexing, state root and batch building — over the
//!   marketplace traffic mix with a standing 10⁵-transaction backlog.
//! - `signed` ([`pipeline`]): the same pipeline with real ECDSA on every
//!   transaction, in ordinary L2-sized blocks.
//! - `attack` ([`attack`]): PAROLE's adversarial aggregator building one
//!   GENTRANSEQ-ordered batch per window and posting it to the rollup
//!   contract.
//!
//! Every input (schedules, wallets, signatures, windows) is generated from
//! the seed before the clock starts. A run makes [`PASSES`] passes over the
//! same inputs, each on a freshly built chain, checks every pass's outputs
//! and reports the end-to-end metrics of [`END_TO_END`] (its throughput and
//! latency go to stderr); a traced run
//! (`--trace 1`) makes one more pass with spans around each layer call and
//! reports [`PER_LAYER`] instead. [`drive`] runs every workload this way
//! through its [`Bench`] implementation.

pub mod attack;
pub mod pipeline;
pub mod stats;
pub mod trace;

use parole_crypto::Hash32;
use parole_ovm::TxKind;
use parole_primitives::Address;
use parole_rollup::calldata::{calldata_gas, compress, decode_batch, decompress, encode_batch};
use parole_rollup::Batch;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// Untraced passes per run. Each pass runs the whole schedule on a freshly
/// built chain, so every block or window is executed `PASSES` times on the
/// same state. A shared host only ever slows a step down, so a block's or
/// window's time is the fastest of its executions and `setup_s` the fastest
/// of the builds.
pub const PASSES: usize = 3;

/// End-to-end metrics every untraced run prints, with their units. These
/// are the ones two sets of runs of the same code reproduce within their
/// bounds on a shared host; the pipeline's throughput and latency spread
/// wider there, so the traced run reports them among [`PER_LAYER`].
pub const END_TO_END: [(&str, &str); 3] = [
    ("l1_gas_per_tx", "gas"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics every traced run prints, with their units: the
/// untraced passes' throughput and latency, then each layer's figures from
/// the traced pass. Layers a workload does not exercise read 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("pipeline.throughput_tps", "tx/s"),
    ("pipeline.latency_p50_ms", "ms"),
    ("pipeline.latency_tail_ms", "ms"),
    ("mempool.admit_ms", "ms"),
    ("mempool.admitted", "count"),
    ("mempool.collect_ms", "ms"),
    ("mempool.heap_pops", "count"),
    ("mempool.rebuilds", "count"),
    ("ovm.execute_ms", "ms"),
    ("ovm.execute_self_ms", "ms"),
    ("ovm.txs_executed", "count"),
    ("ovm.reverts", "count"),
    ("ovm.log_index_ms", "ms"),
    ("ovm.log_entries", "count"),
    ("ovm.simulate_ms", "ms"),
    ("crypto.verify_ms", "ms"),
    ("crypto.verifies", "count"),
    ("state.root_ms", "ms"),
    ("state.roots", "count"),
    ("state.txs_per_root", "tx"),
    ("rollup.batch_ms", "ms"),
    ("rollup.calldata_bytes", "bytes"),
    ("rollup.submit_ms", "ms"),
    ("rollup.finalize_ms", "ms"),
    ("rollup.batches", "count"),
    ("core.assess_ms", "ms"),
    ("core.windows", "count"),
    ("core.exploited", "count"),
    ("core.exploit_ratio", "ratio"),
    ("core.env_build_ms", "ms"),
    ("core.env_ms", "ms"),
    ("core.env_steps", "count"),
    ("core.profit_gwei_per_window", "gwei"),
    ("drl.train_ms", "ms"),
    ("trace.block_ms", "ms"),
    ("trace.gap_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unsigned marketplace traffic through the sequencer pipeline.
    Market,
    /// The marketplace mix with a real signature on every transaction.
    Signed,
    /// The PAROLE aggregator: one GENTRANSEQ batch per window.
    Attack,
}

impl Workload {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Market => "market",
            Workload::Signed => "signed",
            Workload::Attack => "attack",
        }
    }
}

/// Problem size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper: 10⁶ accounts, work scaled to `--seconds`.
    Full,
    /// 10³ accounts and a few blocks or windows, for the output checks'
    /// own tests.
    Tiny,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Target total length of the timed passes.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
}

/// Command-line usage.
pub const USAGE: &str = "usage: pipebench --workload <market|signed|attack> --seed <n> \
--seconds <n> --trace <0|1> [--size <full|tiny>]";

impl Args {
    /// Parses `--flag value` pairs.
    ///
    /// # Errors
    ///
    /// A message naming the missing, unknown or malformed flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut size = Size::Full;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "market" => Workload::Market,
                        "signed" => Workload::Signed,
                        "attack" => Workload::Attack,
                        other => return Err(format!("unknown workload {other:?}")),
                    })
                }
                "--seed" => seed = Some(parse_num(&flag, &value)?),
                "--seconds" => {
                    let s = parse_num(&flag, &value)?;
                    if !(1..=600).contains(&s) {
                        return Err("--seconds must be within 1..=600".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    })
                }
                "--size" => {
                    size = match value.as_str() {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        other => return Err(format!("unknown size {other:?}")),
                    }
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size,
        })
    }
}

fn parse_num(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed.
    pub unit: &'static str,
}

/// Builds the metric list `names` from `lookup`, in declaration order.
fn metrics_from(
    names: &[(&'static str, &'static str)],
    lookup: impl Fn(&str) -> f64,
) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: lookup(name),
            unit,
        })
        .collect()
}

/// Output checks that failed, each naming what was expected.
#[derive(Debug, Default)]
pub struct Checks {
    problems: Vec<String>,
}

impl Checks {
    /// Records `problem()` unless `ok`.
    pub fn expect(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Records every problem of `other`.
    pub fn extend(&mut self, other: Checks) {
        self.problems.extend(other.problems);
    }

    /// The failed checks.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }
}

/// One batch's compressed calldata, kept with the batch's `(sender, kind)`
/// pairs for the post-run decoding check.
pub(crate) struct Posted {
    calldata: Vec<u8>,
    gas: u64,
    sealed: Vec<(Address, TxKind)>,
}

impl Posted {
    /// Encodes and compresses `batch` as it is posted to L1, and meters
    /// the bytes at EIP-2028 rates.
    pub(crate) fn of(batch: &Batch) -> Posted {
        let calldata = compress(&encode_batch(batch));
        Posted {
            gas: calldata_gas(&calldata).units(),
            calldata,
            sealed: batch.txs.iter().map(|t| (t.sender, t.kind)).collect(),
        }
    }

    /// The batch's `(sender, kind)` pairs in execution order.
    pub(crate) fn sealed(&self) -> &[(Address, TxKind)] {
        &self.sealed
    }
}

/// Every posted calldata decodes back to exactly its batch's pairs, in
/// order.
pub(crate) fn check_postings(posted: &[Posted]) -> Checks {
    let mut checks = Checks::default();
    for (i, p) in posted.iter().enumerate() {
        let decoded = decompress(&p.calldata).and_then(|raw| decode_batch(&raw));
        checks.expect(decoded.as_deref() == Some(p.sealed.as_slice()), || {
            format!("batch {i} calldata does not decode to its sealed transactions")
        });
    }
    checks
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: scheduled transactions.
    pub attempted: u64,
    /// Reverted, unsealed or rejected transactions.
    pub failed: u64,
    /// Output checks that failed.
    pub checks: Checks,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable details for stderr (input generation time, tail
    /// percentile, per-span totals).
    pub notes: Vec<String>,
    /// The traced pass's spans, on a traced run.
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// `true` when every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.problems.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            // A non-finite value is a failed check (see `run`); JSON has
            // no spelling for it.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// What one pass over a workload's schedule did.
#[derive(Default)]
pub(crate) struct Pass {
    /// Wall time of each block or window, ms, in schedule order.
    pub(crate) sample_ms: Vec<f64>,
    /// Transactions committed.
    pub(crate) committed: u64,
    /// Executed transactions that reverted.
    pub(crate) reverts: u64,
    /// Scheduled transactions never executed: left unsealed, or in a batch
    /// the rollup contract rejected.
    pub(crate) dropped: u64,
    /// Blocks after which the pool held fresh traffic besides the backlog.
    pub(crate) undrained: u64,
    /// Log entries the committed transactions emitted.
    pub(crate) logs: u64,
    /// Every batch as posted to L1, in order.
    pub(crate) posted: Vec<Posted>,
    /// State root the pass ended on.
    pub(crate) final_root: Hash32,
    /// IFU profit of each attack window, gwei (0 where the honest order
    /// was kept).
    pub(crate) profits: Vec<i128>,
    /// Attack windows where a profitable order was executed.
    pub(crate) exploited: u64,
}

impl Pass {
    /// An empty pass over `samples` blocks or windows, starting from
    /// `root`.
    pub(crate) fn new(samples: usize, root: Hash32) -> Pass {
        Pass {
            sample_ms: Vec::with_capacity(samples),
            posted: Vec::with_capacity(samples),
            final_root: root,
            ..Pass::default()
        }
    }

    /// Posted calldata gas.
    pub(crate) fn l1_gas(&self) -> u64 {
        self.posted.iter().map(|p| p.gas).sum()
    }

    /// Posted calldata bytes.
    pub(crate) fn calldata_bytes(&self) -> u64 {
        self.posted.iter().map(|p| p.calldata.len() as u64).sum()
    }

    /// Committed transactions per second of block (or window) time.
    fn throughput(&self) -> f64 {
        1e3 * self.committed as f64 / self.sample_ms.iter().sum::<f64>()
    }

    /// Total IFU profit, gwei.
    pub(crate) fn profit_gwei(&self) -> f64 {
        self.profits.iter().sum::<i128>() as f64
    }
}

/// `other` must have done exactly the work `reference` did: passes over
/// one schedule are deterministic, traced or not.
fn check_same_work(what: &str, reference: &Pass, other: &Pass) -> Checks {
    let mut checks = Checks::default();
    checks.expect(other.final_root == reference.final_root, || {
        format!(
            "{what} final root {} differs from the first pass's {}",
            other.final_root, reference.final_root
        )
    });
    let work = |p: &Pass| {
        (
            p.sample_ms.len(),
            p.committed,
            p.reverts,
            p.dropped,
            p.undrained,
        )
    };
    checks.expect(work(other) == work(reference), || {
        format!("{what} sealed or committed different work than the first pass")
    });
    checks.expect(
        (other.l1_gas(), other.logs) == (reference.l1_gas(), reference.logs),
        || {
            format!(
                "{what} posted {} gas / {} logs, the first pass {} / {}",
                other.l1_gas(),
                other.logs,
                reference.l1_gas(),
                reference.logs
            )
        },
    );
    checks.expect(
        other.profits == reference.profits && other.exploited == reference.exploited,
        || {
            format!(
                "{what} found {} gwei over {} exploited windows, the first pass {} over {}",
                other.profit_gwei(),
                other.exploited,
                reference.profit_gwei(),
                reference.exploited
            )
        },
    );
    checks
}

/// End-to-end figures of a run's untraced passes.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Committed transactions per second of block (or window) time.
    pub throughput_tps: f64,
    /// Per-block (or per-window) latency.
    pub latency: stats::Latency,
    /// Posted calldata gas per committed transaction.
    pub l1_gas_per_tx: f64,
    /// Peak resident set size, MB.
    pub peak_rss_mb: f64,
    /// Fastest set-up time, s.
    pub setup_s: f64,
}

impl EndToEnd {
    /// Figures of `passes` over one schedule: each block or window counts
    /// with its fastest execution, and set-up with its fastest build.
    fn of(passes: &[Pass], setup_s: &[f64], peak_rss_mb: f64) -> EndToEnd {
        let first = &passes[0];
        let fastest_ms: Vec<f64> = first
            .sample_ms
            .iter()
            .enumerate()
            .map(|(i, &ms)| {
                passes[1..]
                    .iter()
                    .filter_map(|p| p.sample_ms.get(i).copied())
                    .fold(ms, f64::min)
            })
            .collect();
        EndToEnd {
            throughput_tps: 1e3 * first.committed as f64 / fastest_ms.iter().sum::<f64>(),
            latency: stats::latency(&fastest_ms),
            l1_gas_per_tx: first.l1_gas() as f64 / first.committed.max(1) as f64,
            peak_rss_mb,
            setup_s: setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }

    /// The [`END_TO_END`] metric list.
    pub fn metrics(&self) -> Vec<Metric> {
        metrics_from(&END_TO_END, |name| match name {
            "l1_gas_per_tx" => self.l1_gas_per_tx,
            "peak_rss_mb" => self.peak_rss_mb,
            "setup_s" => self.setup_s,
            other => unreachable!("unlisted end-to-end metric {other}"),
        })
    }

    /// A one-line description for stderr.
    pub fn note(&self) -> String {
        format!(
            "timed passes (fastest of {PASSES} per sample): {:.1} tx/s, p50 {:.3} ms, \
             p{} {:.3} ms over {} samples, {:.1} L1 gas/tx, peak RSS {:.1} MB, \
             setup {:.3} s (fastest of {PASSES})",
            self.throughput_tps,
            self.latency.p50_ms,
            self.latency.tail_pct,
            self.latency.tail_ms,
            self.latency.samples,
            self.l1_gas_per_tx,
            self.peak_rss_mb,
            self.setup_s,
        )
    }
}

/// Work counts the traced pass observed, next to its span times.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    /// Transactions admitted to the mempool during the pass.
    pub admitted: u64,
    /// Priority-heap pops during the pass.
    pub heap_pops: u64,
    /// Priority-index rebuilds during the pass.
    pub rebuilds: u64,
    /// Transactions executed by the OVM.
    pub txs_executed: u64,
    /// Executed transactions that reverted.
    pub reverts: u64,
    /// Log entries indexed.
    pub log_entries: u64,
    /// Signatures verified.
    pub verifies: u64,
    /// State roots computed after committed work.
    pub roots: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Compressed calldata bytes posted.
    pub calldata_bytes: u64,
    /// Batches submitted to the rollup contract.
    pub batches: u64,
    /// Attack windows processed.
    pub windows: u64,
    /// Windows where a profitable order was executed.
    pub exploited: u64,
    /// Environment resets and steps.
    pub env_steps: u64,
    /// Total IFU profit over the windows, gwei.
    pub profit_gwei: f64,
}

/// The [`PER_LAYER`] metric list from the untraced passes' figures, a
/// trace summary and its counts.
pub fn per_layer_metrics(
    untraced: &EndToEnd,
    summary: &trace::Summary,
    counts: &LayerCounts,
    overhead_pct: f64,
) -> Vec<Metric> {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    metrics_from(&PER_LAYER, |name| match name {
        "pipeline.throughput_tps" => untraced.throughput_tps,
        "pipeline.latency_p50_ms" => untraced.latency.p50_ms,
        "pipeline.latency_tail_ms" => untraced.latency.tail_ms,
        "mempool.admit_ms" => summary.busy_ms("mempool.admit"),
        "mempool.admitted" => counts.admitted as f64,
        "mempool.collect_ms" => summary.busy_ms("mempool.collect"),
        "mempool.heap_pops" => counts.heap_pops as f64,
        "mempool.rebuilds" => counts.rebuilds as f64,
        "ovm.execute_ms" => summary.busy_ms("ovm.execute"),
        "ovm.execute_self_ms" => summary.self_ms("ovm.execute"),
        "ovm.txs_executed" => counts.txs_executed as f64,
        "ovm.reverts" => counts.reverts as f64,
        "ovm.log_index_ms" => summary.busy_ms("ovm.log_index"),
        "ovm.log_entries" => counts.log_entries as f64,
        "ovm.simulate_ms" => summary.busy_ms("ovm.simulate"),
        "crypto.verify_ms" => summary.busy_ms("crypto.verify"),
        "crypto.verifies" => counts.verifies as f64,
        "state.root_ms" => summary.busy_ms("state.root"),
        "state.roots" => counts.roots as f64,
        "state.txs_per_root" => ratio(counts.committed, counts.roots),
        "rollup.batch_ms" => summary.busy_ms("rollup.batch"),
        "rollup.calldata_bytes" => counts.calldata_bytes as f64,
        "rollup.submit_ms" => summary.busy_ms("rollup.submit"),
        "rollup.finalize_ms" => summary.busy_ms("rollup.finalize"),
        "rollup.batches" => counts.batches as f64,
        "core.assess_ms" => summary.busy_ms("core.assess"),
        "core.windows" => counts.windows as f64,
        "core.exploited" => counts.exploited as f64,
        "core.exploit_ratio" => ratio(counts.exploited, counts.windows),
        "core.env_build_ms" => summary.busy_ms("core.env_build"),
        "core.env_ms" => summary.busy_ms("core.env"),
        "core.env_steps" => counts.env_steps as f64,
        "core.profit_gwei_per_window" => {
            if counts.windows == 0 {
                0.0
            } else {
                counts.profit_gwei / counts.windows as f64
            }
        }
        "drl.train_ms" => summary.self_ms("drl.train"),
        "trace.block_ms" => summary.root_ns as f64 / 1e6,
        "trace.gap_ms" => summary.gap_ns as f64 / 1e6,
        "trace.overhead_pct" => overhead_pct,
        other => unreachable!("unlisted per-layer metric {other}"),
    })
}

/// Per-span totals of a traced pass, one line per layer span name.
pub fn span_notes(summary: &trace::Summary) -> Vec<String> {
    let root_ns = summary.root_ns.max(1) as f64;
    let mut notes = vec![format!(
        "traced root spans {:.3} ms, gap not covered by layer spans {:.3} ms ({:.2}%)",
        summary.root_ns as f64 / 1e6,
        summary.gap_ns as f64 / 1e6,
        100.0 * summary.gap_ns as f64 / root_ns
    )];
    for (name, t) in summary.layers() {
        notes.push(format!(
            "  {name:<16} calls {:>8}  busy {:>10.3} ms  self {:>10.3} ms  ({:.1}% of root)",
            t.calls,
            t.busy_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.busy_ns as f64 / root_ns
        ));
    }
    notes
}

/// Runs the workload `args` names.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = match args.workload {
        Workload::Market | Workload::Signed => pipeline::run(args),
        Workload::Attack => attack::run(args),
    };
    for m in &outcome.metrics {
        outcome.checks.expect(m.value.is_finite(), || {
            format!("{} is not a finite number", m.name)
        });
    }
    outcome
}

/// A workload as [`drive`] runs it. Its inputs are generated before the
/// value is built, so no clock ever sees them.
pub(crate) trait Bench {
    /// The chain a pass runs on.
    type Fixture;

    /// Builds a fresh fixture: the work `setup_s` times.
    fn setup(&self) -> Self::Fixture;

    /// One untraced pass over the schedule.
    fn pass(&self, fx: &mut Self::Fixture) -> Pass;

    /// The output checks of an untraced pass on the fixture it left;
    /// finishes the chain first where the workload needs it.
    fn check(&self, fx: &mut Self::Fixture, pass: &mut Pass) -> Checks;

    /// One traced pass, with the layers' work counts and the output checks
    /// of the traced pass.
    fn traced_pass(&self, fx: &mut Self::Fixture, tr: &mut Tracer) -> (Pass, LayerCounts, Checks);
}

/// Runs `bench`, whose inputs hold `attempted` scheduled transactions:
/// [`PASSES`] checked untraced passes on fresh fixtures and their
/// end-to-end metrics or, on a traced run, one more pass with spans and the
/// per-layer metrics. `notes` already describe the inputs.
pub(crate) fn drive<B: Bench>(
    bench: &B,
    trace: bool,
    attempted: u64,
    mut notes: Vec<String>,
) -> Outcome {
    let mut checks = Checks::default();
    let mut setup_s = Vec::with_capacity(PASSES);
    let mut passes: Vec<Pass> = Vec::with_capacity(PASSES);
    for i in 0..PASSES {
        let t = Instant::now();
        let mut fx = bench.setup();
        setup_s.push(secs(t));
        let mut pass = bench.pass(&mut fx);
        checks.extend(bench.check(&mut fx, &mut pass));
        drop(fx);
        if let Some(first) = passes.first() {
            checks.extend(check_same_work(&format!("pass {}", i + 1), first, &pass));
        }
        passes.push(pass);
    }
    let peak_rss_mb = stats::peak_rss_mb();
    let first = &passes[0];
    let failed = first.reverts + first.dropped;
    let pass_tps: Vec<f64> = passes.iter().map(Pass::throughput).collect();
    let listed = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    notes.push(format!(
        "untraced passes: {} tx/s; set-ups: {} s",
        listed(&pass_tps),
        listed(&setup_s)
    ));

    let e2e = EndToEnd::of(&passes, &setup_s, peak_rss_mb);
    notes.push(e2e.note());
    if !trace {
        return Outcome {
            attempted,
            failed,
            checks,
            metrics: e2e.metrics(),
            notes,
            tracer: None,
        };
    }

    let mut fx = bench.setup();
    let mut tracer = Tracer::new();
    let (traced, counts, traced_checks) = bench.traced_pass(&mut fx, &mut tracer);
    drop(fx);
    checks.extend(traced_checks);
    checks.extend(check_same_work("traced pass", first, &traced));
    let summary = tracer.summary();
    let untraced_tps = stats::median(&pass_tps);
    let overhead = 100.0 * (untraced_tps - traced.throughput()) / untraced_tps;
    notes.push(format!(
        "traced pass: {:.1} tx/s vs untraced median pass {untraced_tps:.1} tx/s: \
         tracing overhead {overhead:.2}%",
        traced.throughput(),
    ));
    notes.extend(span_notes(&summary));
    Outcome {
        attempted,
        failed,
        checks,
        metrics: per_layer_metrics(&e2e, &summary, &counts, overhead),
        notes,
        tracer: Some(tracer),
    }
}

/// Seconds elapsed since `t`.
pub(crate) fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A 64-bit mix of `seed` and `stream` (SplitMix64 finaliser), so
/// per-window and per-wallet seeds are spread across the seed space.
pub(crate) fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_documented_command_line() {
        let a = parse("--workload signed --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Signed);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.size),
            (7, 12, true, Size::Full)
        );
        assert!(parse("--workload market --seed 1 --seconds 5").is_err());
        assert!(parse("--workload bogus --seed 1 --seconds 5 --trace 0").is_err());
        assert!(parse("--workload market --seed x --seconds 5 --trace 0").is_err());
        assert!(parse("--workload market --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload market --seed 1 --seconds 5 --trace 2").is_err());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            checks: Checks::default(),
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            }],
            notes: Vec::new(),
            tracer: None,
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn end_to_end_takes_each_samples_fastest_execution() {
        let pass = |sample_ms: Vec<f64>| Pass {
            sample_ms,
            committed: 30,
            ..Pass::default()
        };
        let passes = [
            pass(vec![3.0, 1.0, 6.0]),
            pass(vec![2.0, 5.0, 6.0]),
            pass(vec![4.0, 4.0, 1.0]),
        ];
        let e2e = EndToEnd::of(&passes, &[2.5, 1.5, 2.0], 100.0);
        // Fastest times 2, 1 and 1 ms: 30 txs in 4 ms.
        assert_eq!(e2e.throughput_tps, 7500.0);
        assert_eq!((e2e.latency.samples, e2e.latency.p50_ms), (3, 1.0));
        assert_eq!(e2e.latency.tail_ms, 2.0);
        assert_eq!(e2e.setup_s, 1.5);
        assert!(check_same_work("pass 2", &passes[0], &passes[1])
            .problems()
            .is_empty());
        let mut diverged = pass(vec![1.0, 1.0, 1.0]);
        diverged.final_root = Hash32::from_bytes([7u8; 32]);
        diverged.committed = 29;
        let problems = check_same_work("pass 3", &passes[0], &diverged);
        assert_eq!(problems.problems().len(), 2, "{:?}", problems.problems());
    }

    #[test]
    fn posting_check_catches_tampered_calldata() {
        use parole_crypto::Hash32;
        use parole_ovm::NftTransaction;
        use parole_primitives::{AggregatorId, TokenId};
        use parole_rollup::StateCommitment;

        let tx = |sender: u64, token: u64| {
            NftTransaction::simple(
                Address::from_low_u64(sender),
                TxKind::Mint {
                    collection: Address::from_low_u64(0x5000_0000),
                    token: TokenId::new(token),
                },
            )
        };
        let batch = Batch {
            aggregator: AggregatorId::new(0),
            txs: vec![tx(1, 0), tx(2, 1)],
            receipts: Vec::new(),
            commitment: StateCommitment {
                pre_state_root: Hash32::ZERO,
                post_state_root: Hash32::ZERO,
                tx_root: Hash32::ZERO,
            },
        };
        let intact = Posted::of(&batch);
        assert!(intact.gas > 0 && !intact.calldata.is_empty());
        let mut flipped = Posted::of(&batch);
        let last = flipped.calldata.len() - 1;
        flipped.calldata[last] ^= 0x01;
        let mut reordered = Posted::of(&batch);
        reordered.sealed.swap(0, 1);
        let mut truncated = Posted::of(&batch);
        truncated.calldata.pop();
        let checks = check_postings(&[intact, flipped, reordered, truncated]);
        assert_eq!(checks.problems().len(), 3, "{:?}", checks.problems());
        assert!(checks.problems()[0].starts_with("batch 1 "));
    }

    /// The metric lists here and in the repository's `BENCHMARK.json` must
    /// name the same metrics with the same units, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        use serde_json::Value;

        fn field<'v>(map: &'v Value, key: &str) -> &'v Value {
            let Value::Map(entries) = map else {
                panic!("expected an object, found {}", map.kind())
            };
            entries
                .iter()
                .find(|(k, _)| matches!(k, Value::Str(s) if s == key))
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("key {key:?} missing"))
        }
        fn text(value: &Value) -> String {
            match value {
                Value::Str(s) => s.clone(),
                other => panic!("expected a string, found {}", other.kind()),
            }
        }

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");
        let listed = |section: &str| -> Vec<(String, String)> {
            let Value::Seq(entries) = field(&doc, section) else {
                panic!("{section} is not a list")
            };
            entries
                .iter()
                .map(|e| (text(field(e, "name")), text(field(e, "unit"))))
                .collect()
        };
        let as_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), as_owned(&END_TO_END));
        assert_eq!(listed("per_layer"), as_owned(&PER_LAYER));
    }
}
