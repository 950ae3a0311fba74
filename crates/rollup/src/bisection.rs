//! The interactive bisection half of the fraud-proof game (paper §II-A).
//!
//! [`RollupContract::challenge`](crate::RollupContract::challenge)
//! adjudicates against the post-state of the contract's own whole-batch
//! execution — fine as a reference verdict, but not what an L1 contract
//! can afford. This module implements
//! the protocol real optimistic rollups use instead:
//!
//! 1. both sides commit to an **execution trace** — the state root after
//!    every transaction of the batch (`r_0 … r_n`, recorded by the
//!    sequencer at seal time when step-root recording is on);
//! 2. the arbiter **bisects**: it repeatedly queries both traces at the
//!    midpoint of the disputed interval, halving it each round, until one
//!    transaction is isolated — `k` rounds for a `2^k`-transaction batch.
//!    If the traces agree through `r_n` but the committed post-root still
//!    differs, the disputed step is the end-of-batch **block advance**;
//! 3. the isolated step is **settled** by executing that one transaction:
//!    the challenger supplies a witness state whose root must match the
//!    agreed pre-step root (so the witness authenticates itself against a
//!    bare 32-byte hash), the arbiter runs the single transaction, and the
//!    defender must *open* its claimed post-step root at exactly the
//!    records the transaction touched via stateless
//!    [`RecordProof`] inclusion proofs. Any record it cannot open — or
//!    opens to a value honest execution contradicts — localizes the fraud
//!    to token granularity.
//!
//! Nothing in settlement re-executes the batch or reads resident rollup
//! state: the arbiter holds two root vectors, one witness state it can
//! hash, and O(log n)-sized proofs.

use crate::Batch;
use parole_crypto::Hash32;
use parole_ovm::{NftTransaction, Ovm};
use parole_state::{L2State, RecordKey, RecordProof};
use std::collections::BTreeSet;

/// The per-transaction intermediate state roots of one batch execution:
/// `roots[i]` is the state root after the first `i` transactions, so a
/// batch of `n` transactions yields `n + 1` roots and `roots[0]` is the
/// pre-state root. The end-of-batch block advance is *not* a trace entry —
/// it is adjudicated separately when the traces agree through `roots[n]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionTrace {
    roots: Vec<Hash32>,
}

impl ExecutionTrace {
    /// Records the trace of executing `txs` from a fork of `pre`.
    pub fn record(ovm: &Ovm, pre: &L2State, txs: &[NftTransaction]) -> Self {
        let mut state = pre.clone();
        let mut roots = Vec::with_capacity(txs.len() + 1);
        roots.push(state.state_root());
        for tx in txs {
            let _ = ovm.execute(&mut state, tx);
            roots.push(state.state_root());
        }
        ExecutionTrace { roots }
    }

    /// Wraps an externally recorded root vector. `roots` must hold the
    /// pre-root plus one root per transaction.
    pub fn from_roots(roots: Vec<Hash32>) -> Self {
        assert!(!roots.is_empty(), "a trace holds at least the pre-root");
        ExecutionTrace { roots }
    }

    /// Number of transaction steps covered (`roots.len() - 1`).
    pub fn steps(&self) -> usize {
        self.roots.len() - 1
    }

    /// The root after `i` transactions.
    pub fn root_at(&self, i: usize) -> Hash32 {
        self.roots[i]
    }

    /// The pre-state root (`roots[0]`).
    pub fn pre_root(&self) -> Hash32 {
        self.roots[0]
    }

    /// The root after the last transaction, before the block advance.
    pub fn final_root(&self) -> Hash32 {
        *self.roots.last().expect("trace is never empty")
    }

    /// The raw root vector.
    pub fn roots(&self) -> &[Hash32] {
        &self.roots
    }
}

/// The step the bisection isolated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisputedStep {
    /// Transaction `i` of the batch (the transition `r_i → r_{i+1}`).
    Tx(usize),
    /// The end-of-batch block advance: both traces agree through the last
    /// transaction, so the lie is in the advance the committed post-root
    /// includes.
    BlockAdvance,
}

/// What the bisection found before settlement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BisectionResult {
    /// The isolated step.
    pub step: DisputedStep,
    /// Midpoint root queries performed — exactly `k` for a `2^k`-step
    /// disagreement interval, `0` when the dispute is the block advance.
    pub rounds: u32,
}

/// Runs the bisection over two traces of equal length whose pre-roots
/// agree. Returns `None` when the traces are identical end to end *and*
/// the committed post-root question is moot (the caller only invokes this
/// when the commitments already disagree, so `None` from equal traces
/// means the dispute is the block advance — [`bisect`] maps that for you).
///
/// # Panics
///
/// Panics when the traces differ in length or disagree already at the
/// pre-root; the caller must reject such games before playing them.
pub fn bisect(defender: &ExecutionTrace, challenger: &ExecutionTrace) -> BisectionResult {
    assert_eq!(
        defender.steps(),
        challenger.steps(),
        "both sides must trace the same batch"
    );
    assert_eq!(
        defender.pre_root(),
        challenger.pre_root(),
        "bisection starts from an agreed pre-root"
    );
    let n = defender.steps();
    if n == 0 || defender.final_root() == challenger.final_root() {
        // Every transaction step agrees; the lie can only be the advance.
        return BisectionResult {
            step: DisputedStep::BlockAdvance,
            rounds: 0,
        };
    }
    // Invariant: roots agree at `lo`, disagree at `hi`.
    let (mut lo, mut hi) = (0usize, n);
    let mut rounds = 0u32;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        rounds += 1;
        if defender.root_at(mid) == challenger.root_at(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    BisectionResult {
        step: DisputedStep::Tx(lo),
        rounds,
    }
}

/// How the defender answers the single-step settlement: the openings of
/// its claimed post-step root at the records the step touched.
#[derive(Debug, Clone)]
pub enum StepDefense {
    /// Stateless openings, one per touched record the defender can prove.
    Proofs(Vec<RecordProof>),
    /// The defender declines (or is unable) to open — an automatic loss.
    Default,
}

/// The defender's interface to the game: its claimed trace, and openings
/// of any claimed intermediate root at a requested record set.
pub trait DefenderSide {
    /// The claimed execution trace.
    fn trace(&self) -> &ExecutionTrace;

    /// Openings of the claimed root *after* step `step` (`r_{step+1}`) at
    /// `keys`. An honest defender proves against its resident post-step
    /// state; a defender without one answers [`StepDefense::Default`].
    fn defend(&self, step: usize, keys: &BTreeSet<RecordKey>) -> StepDefense;
}

/// The challenger's interface: its claimed trace, and a witness state for
/// any step of it. The witness is *untrusted* — settlement hashes it and
/// compares against the root both sides already agreed on.
pub trait ChallengerSide {
    /// The claimed execution trace.
    fn trace(&self) -> &ExecutionTrace;

    /// The full state after `step` transactions, whose root must equal
    /// `trace().root_at(step)`.
    fn witness(&self, step: usize) -> Option<L2State>;
}

/// A recorded execution that can play either side: it keeps the state
/// after every step, so it can produce witnesses (challenger) and record
/// openings (defender). Cloning one state per transaction is the cost of
/// being able to answer any settlement query; participants that only ever
/// submit traces can use [`ExecutionTrace::record`] instead.
pub struct TracedExecution {
    trace: ExecutionTrace,
    states: Vec<L2State>,
}

impl TracedExecution {
    /// Executes `txs` from a fork of `pre`, snapshotting after every step.
    pub fn record(ovm: &Ovm, pre: &L2State, txs: &[NftTransaction]) -> Self {
        Self::record_with(ovm, pre, txs, |_, _| {})
    }

    /// Like [`TracedExecution::record`], but invokes `tamper(i, state)`
    /// after executing transaction `i` — the forgery model the tests and
    /// benches use: execute honestly up to some step, smuggle in an
    /// off-protocol mutation (a hidden credit, a stolen token), and keep
    /// executing on the tampered state. The resulting defender *can* open
    /// every root it claims — the openings just contradict honest
    /// re-execution at exactly the forged step.
    pub fn record_with(
        ovm: &Ovm,
        pre: &L2State,
        txs: &[NftTransaction],
        mut tamper: impl FnMut(usize, &mut L2State),
    ) -> Self {
        let mut state = pre.clone();
        let mut roots = Vec::with_capacity(txs.len() + 1);
        let mut states = Vec::with_capacity(txs.len() + 1);
        roots.push(state.state_root());
        states.push(state.clone());
        for (i, tx) in txs.iter().enumerate() {
            let _ = ovm.execute(&mut state, tx);
            tamper(i, &mut state);
            roots.push(state.state_root());
            states.push(state.clone());
        }
        TracedExecution {
            trace: ExecutionTrace { roots },
            states,
        }
    }

    /// The recorded trace (inherent, so callers holding a concrete
    /// `TracedExecution` need not pick between the two trait `trace()`s).
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// The final post-execution state (before the block advance).
    pub fn final_state(&self) -> &L2State {
        self.states.last().expect("at least the pre-state")
    }
}

impl DefenderSide for TracedExecution {
    fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    fn defend(&self, step: usize, keys: &BTreeSet<RecordKey>) -> StepDefense {
        let Some(state) = self.states.get(step + 1) else {
            return StepDefense::Default;
        };
        let proofs: Vec<RecordProof> = keys
            .iter()
            .filter_map(|key| state.prove_record(key))
            .collect();
        StepDefense::Proofs(proofs)
    }
}

impl ChallengerSide for TracedExecution {
    fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    fn witness(&self, step: usize) -> Option<L2State> {
        self.states.get(step).cloned()
    }
}

/// How the isolated step settled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SettlementVerdict {
    /// Honest single-step execution reproduced the defender's claimed
    /// root: the challenge fails.
    DefenderWins,
    /// The defender's claimed root is wrong at this step.
    FraudConfirmed {
        /// The root honest execution of the step actually produces.
        honest_root: Hash32,
        /// Touched records whose defender openings are missing, fail
        /// verification, or contradict honest execution — the
        /// token-granular localization of the lie. Empty in two cases:
        /// the disputed step is the block advance (the lie is the
        /// metadata leaf, not a record), or the defender mutated a record
        /// *outside* the transaction's footprint — its openings of the
        /// touched records all agree, and the root mismatch alone
        /// convicts it of an out-of-footprint write.
        diverging: Vec<RecordKey>,
    },
    /// The challenger's witness did not hash to the agreed pre-step root:
    /// the challenger forfeits without the defender proving anything.
    ChallengerForfeit,
}

/// Settles the isolated step with one transaction execution and O(log n)
/// record openings — never by re-executing the batch.
pub fn settle_step(
    ovm: &Ovm,
    batch: &Batch,
    defender: &dyn DefenderSide,
    challenger: &dyn ChallengerSide,
    step: DisputedStep,
) -> SettlementVerdict {
    match step {
        DisputedStep::BlockAdvance => {
            let n = challenger.trace().steps();
            let agreed = challenger.trace().root_at(n);
            let Some(mut witness) = challenger.witness(n) else {
                return SettlementVerdict::ChallengerForfeit;
            };
            if witness.state_root() != agreed {
                return SettlementVerdict::ChallengerForfeit;
            }
            witness.advance_block();
            let honest_root = witness.state_root();
            if honest_root == batch.commitment.post_state_root {
                SettlementVerdict::DefenderWins
            } else {
                SettlementVerdict::FraudConfirmed {
                    honest_root,
                    diverging: Vec::new(),
                }
            }
        }
        DisputedStep::Tx(j) => {
            let agreed = challenger.trace().root_at(j);
            debug_assert_eq!(agreed, defender.trace().root_at(j), "bisection invariant");
            let Some(mut witness) = challenger.witness(j) else {
                return SettlementVerdict::ChallengerForfeit;
            };
            if witness.state_root() != agreed {
                return SettlementVerdict::ChallengerForfeit;
            }

            // The arbiter executes exactly one transaction, journaling it
            // so the touched record set falls out of the undo log.
            witness.begin_recording();
            let cp = witness.checkpoint();
            let _ = ovm.execute(&mut witness, &batch.txs[j]);
            let touched = witness.touched_since(cp);
            let honest_root = witness.state_root();

            let defender_claim = defender.trace().root_at(j + 1);
            if honest_root == defender_claim {
                return SettlementVerdict::DefenderWins;
            }

            // Fraud at this step. Localize: the defender must open its
            // claimed root at every touched record; each opening either
            // fails outright or contradicts the honest post-step state.
            let openings = match defender.defend(j, &touched) {
                StepDefense::Proofs(p) => p,
                StepDefense::Default => {
                    return SettlementVerdict::FraudConfirmed {
                        honest_root,
                        diverging: touched.into_iter().collect(),
                    }
                }
            };
            let mut diverging = Vec::new();
            for key in &touched {
                // `prove_record` answers an operator key with its
                // collection's header opening, so that is the one to match.
                let opened = match *key {
                    RecordKey::Oper(collection, _) => RecordKey::Coll(collection),
                    key => key,
                };
                let opening = openings.iter().find(|p| p.key() == opened);
                let honest = witness.prove_record(key);
                let agrees = match (opening, &honest) {
                    (Some(d), Some(h)) => {
                        parole_telemetry::counter("fraud.record_proofs_verified", 1);
                        parole_telemetry::observe("fraud.proof_bytes", d.encoded_len() as u64);
                        d.verify(defender_claim) && records_agree(d, h)
                    }
                    // Honest execution deleted the record (e.g. a burn)
                    // but the defender still opens it — or vice versa.
                    (Some(d), None) => {
                        parole_telemetry::counter("fraud.record_proofs_verified", 1);
                        !d.verify(defender_claim)
                    }
                    (None, _) => false,
                };
                if !agrees {
                    diverging.push(*key);
                }
            }
            SettlementVerdict::FraudConfirmed {
                honest_root,
                diverging,
            }
        }
    }
}

/// Whether two verified openings claim the same record contents (paths
/// aside — both sides prove against different roots).
fn records_agree(defender: &RecordProof, honest: &RecordProof) -> bool {
    match (defender, honest) {
        (RecordProof::Account(d), RecordProof::Account(h)) => d.account == h.account,
        (RecordProof::Collection(d), RecordProof::Collection(h)) => {
            d.header == h.header && d.sub_root == h.sub_root
        }
        (RecordProof::Token(d), RecordProof::Token(h)) => {
            d.owner == h.owner && d.approved == h.approved && d.header == h.header
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parole_nft::CollectionConfig;
    use parole_ovm::TxKind;
    use parole_primitives::{Address, TokenId, Wei};

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    fn setup(n: u64) -> (L2State, Vec<NftTransaction>) {
        let mut state = L2State::new();
        let pt = state.deploy_collection(CollectionConfig::parole_token());
        for i in 1..=n {
            state.credit(addr(i), Wei::from_eth(2));
        }
        let txs = (0..n)
            .map(|i| {
                NftTransaction::simple(
                    addr(i + 1),
                    TxKind::Mint {
                        collection: pt,
                        token: TokenId::new(i),
                    },
                )
            })
            .collect();
        (state, txs)
    }

    #[test]
    fn identical_traces_dispute_the_block_advance() {
        let (state, txs) = setup(4);
        let ovm = Ovm::new();
        let a = ExecutionTrace::record(&ovm, &state, &txs);
        let b = ExecutionTrace::record(&ovm, &state, &txs);
        assert_eq!(a, b);
        let result = bisect(&a, &b);
        assert_eq!(result.step, DisputedStep::BlockAdvance);
        assert_eq!(result.rounds, 0);
    }

    #[test]
    fn bisection_isolates_every_forged_step_in_log_rounds() {
        let (state, txs) = setup(8);
        let ovm = Ovm::new();
        let honest = ExecutionTrace::record(&ovm, &state, &txs);
        for forged_step in 0..8usize {
            // Forge the trace from `forged_step + 1` on, as a real state
            // tamper at that step would.
            let mut roots = honest.roots().to_vec();
            for root in roots.iter_mut().skip(forged_step + 1) {
                *root = parole_crypto::keccak256(root.as_bytes());
            }
            let forged = ExecutionTrace::from_roots(roots);
            let result = bisect(&forged, &honest);
            assert_eq!(result.step, DisputedStep::Tx(forged_step));
            assert_eq!(result.rounds, 3, "2^3 txs settle in exactly 3 rounds");
        }
    }

    #[test]
    fn traced_execution_can_witness_and_defend() {
        let (state, txs) = setup(4);
        let ovm = Ovm::new();
        let exec = TracedExecution::record(&ovm, &state, &txs);
        assert_eq!(exec.trace().steps(), 4);
        for i in 0..=4 {
            let w = ChallengerSide::witness(&exec, i).unwrap();
            assert_eq!(w.state_root(), exec.trace().root_at(i));
        }
    }
}
