//! The optimistic rollup smart contract (ORSC).
//!
//! The contract keeps one state history. The staged state has every
//! accepted action applied, and each pending action holds the staged state
//! from just before it. So the oldest pending action's snapshot *is* the
//! finalized state, and an action's post-state is the next action's
//! snapshot (or the staged state). A batch executes once, at submission:
//! finalization pops it and indexes the receipts of that execution, and a
//! whole-batch challenge compares the claimed post-root with the state it
//! produced.

use crate::bisection::{
    bisect, settle_step, ChallengerSide, DefenderSide, DisputedStep, SettlementVerdict,
};
use crate::{Batch, BatchId, L1Chain};
use parole_crypto::Hash32;
use parole_ovm::{LogFilter, LogHit, LogIndex, Ovm, Receipt};
use parole_primitives::{Address, AggregatorId, BlockNumber, VerifierId, Wei};
use parole_state::{L2State, RecordKey};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Protocol parameters of the rollup deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupConfig {
    /// How many L1 blocks a batch stays challengeable.
    pub challenge_period: u64,
    /// Bond an aggregator must post before submitting batches.
    pub aggregator_bond: Wei,
    /// Bond a verifier must post before challenging.
    pub verifier_bond: Wei,
    /// Fraction (numerator over 100) of a slashed aggregator bond paid to the
    /// successful challenger.
    pub challenger_reward_pct: u64,
    /// Maximum transactions per batch.
    pub max_batch_size: usize,
}

impl Default for RollupConfig {
    fn default() -> Self {
        RollupConfig {
            challenge_period: 3,
            aggregator_bond: Wei::from_eth(10),
            verifier_bond: Wei::from_eth(5),
            challenger_reward_pct: 50,
            max_batch_size: 256,
        }
    }
}

/// Errors returned by ORSC entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RollupError {
    /// The submitting aggregator has not posted (or has lost) its bond.
    NotBonded(AggregatorId),
    /// The challenging verifier has not posted (or has lost) its bond.
    VerifierNotBonded(VerifierId),
    /// The batch's embedded tx root does not match its transactions.
    MalformedBatch,
    /// The batch's pre-state root does not extend the current staged state.
    StaleBatch {
        /// What the batch claimed.
        claimed: Hash32,
        /// What the contract expected.
        expected: Hash32,
    },
    /// The batch exceeds the configured size limit.
    BatchTooLarge(usize),
    /// No pending batch carries this id (already finalized, reverted or
    /// never submitted).
    UnknownBatch(BatchId),
    /// A deposit of zero is meaningless and rejected.
    ZeroDeposit,
    /// The withdrawer's L2 balance cannot cover the request.
    InsufficientL2Balance,
}

impl fmt::Display for RollupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RollupError::NotBonded(a) => write!(f, "aggregator {a} is not bonded"),
            RollupError::VerifierNotBonded(v) => write!(f, "verifier {v} is not bonded"),
            RollupError::MalformedBatch => write!(f, "batch tx root mismatch"),
            RollupError::StaleBatch { claimed, expected } => write!(
                f,
                "batch pre-state {} does not extend staged state {}",
                claimed.short(),
                expected.short()
            ),
            RollupError::BatchTooLarge(n) => write!(f, "batch of {n} txs exceeds limit"),
            RollupError::UnknownBatch(id) => write!(f, "unknown batch {id}"),
            RollupError::ZeroDeposit => write!(f, "zero deposit"),
            RollupError::InsufficientL2Balance => write!(f, "insufficient L2 balance"),
        }
    }
}

impl std::error::Error for RollupError {}

/// Result of adjudicating a challenge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChallengeOutcome {
    /// The fraud proof was invalid: the aggregator's bond was slashed by the
    /// given amount and the batch (plus everything built on it) reverted.
    FraudProven {
        /// Amount slashed from the aggregator.
        slashed: Wei,
        /// Amount paid to the challenger.
        reward: Wei,
        /// The remainder of the slashed bond (`slashed − reward`),
        /// explicitly destroyed. Only `challenger_reward_pct` of a slash is
        /// paid forward — rewarding the whole bond would let an aggregator
        /// challenge itself through a sock-puppet verifier and recover its
        /// stake. The burn used to be implicit (the Wei simply vanished);
        /// it is now reported here and accumulated in
        /// [`RollupContract::burned_total`] so bond flows stay
        /// conservation-checkable.
        burned: Wei,
    },
    /// The proof was valid: the verifier's bond was slashed.
    ChallengeRejected {
        /// Amount slashed from the verifier.
        slashed: Wei,
    },
}

/// The full record of one interactive (bisection) challenge: the economic
/// outcome plus the protocol evidence — which step was isolated, how many
/// bisection rounds it took, and which records the fraud localized to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteractiveChallenge {
    /// The economic settlement (identical semantics to
    /// [`RollupContract::challenge`]).
    pub outcome: ChallengeOutcome,
    /// The step the bisection isolated; `None` when a side forfeited on a
    /// rule violation before the game started.
    pub step: Option<DisputedStep>,
    /// Midpoint root queries performed — `k` for a `2^k`-transaction
    /// disagreement.
    pub rounds: u32,
    /// Records whose defender openings contradicted honest single-step
    /// execution (empty unless fraud was confirmed at a transaction step).
    pub diverging: Vec<RecordKey>,
}

/// A pending (not yet finalized) L2 action.
#[derive(Debug)]
enum PendingAction {
    /// A bridge deposit, finalized unconditionally (L1-forced inclusion).
    Deposit { user: Address, amount: Wei },
    /// A bridge withdrawal, likewise L1-forced.
    Withdraw { user: Address, amount: Wei },
    /// A submitted batch awaiting its challenge window, with the receipts
    /// of the contract's one execution of it.
    Batch {
        id: BatchId,
        batch: Batch,
        receipts: Vec<Receipt>,
        submitted_at: BlockNumber,
    },
}

/// The L1 smart contract coordinating the rollup (paper §V-A): one L2
/// state history (see the module docs), participant bonds, and the
/// simulated [`L1Chain`].
pub struct RollupContract {
    config: RollupConfig,
    l1: L1Chain,
    /// Every accepted action applied, pending ones included.
    staged: L2State,
    /// Pending actions in submission order, each with the staged state as it
    /// was *before* the action: the front's snapshot is the finalized
    /// state, and an action's post-state is the next one's snapshot (or
    /// `staged`).
    pending: VecDeque<(PendingAction, L2State)>,
    next_batch_id: BatchId,
    aggregator_bonds: BTreeMap<AggregatorId, Wei>,
    verifier_bonds: BTreeMap<VerifierId, Wei>,
    ovm: Ovm,
    /// Count of batches that finalized with a post-root different from
    /// the contract's own honest execution (undetected state forgery — only
    /// possible when no verifier challenged in time).
    undetected_forgeries: u64,
    /// Total Wei destroyed by fraud slashes (the `slashed − reward`
    /// remainders). Part of the bond conservation equation the audit layer
    /// checks: every slashed Wei is either rewarded or burned.
    burned: Wei,
    /// Log index over *finalized* batches: entries are the receipts of the
    /// contract's own execution at submission (never aggregator-claimed
    /// receipts), added at finalization and keyed by batch id. Rolled-back
    /// batches never reach it.
    log_index: LogIndex,
}

impl fmt::Debug for RollupContract {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RollupContract")
            .field("l1_height", &self.l1.height())
            .field("pending", &self.pending.len())
            .field("next_batch_id", &self.next_batch_id)
            .finish()
    }
}

impl RollupContract {
    /// Deploys the contract with the given parameters.
    pub fn new(config: RollupConfig) -> Self {
        RollupContract {
            config,
            l1: L1Chain::new(),
            staged: L2State::new(),
            pending: VecDeque::new(),
            next_batch_id: BatchId::default(),
            aggregator_bonds: BTreeMap::new(),
            verifier_bonds: BTreeMap::new(),
            ovm: Ovm::new(),
            undetected_forgeries: 0,
            burned: Wei::ZERO,
            log_index: LogIndex::new(),
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> &RollupConfig {
        &self.config
    }

    /// The simulated L1 chain.
    pub fn l1(&self) -> &L1Chain {
        &self.l1
    }

    /// The staged L2 state (what the next batch must build on). This is the
    /// state aggregators and the attack machinery read.
    pub fn l2_state(&self) -> &L2State {
        &self.staged
    }

    /// Mutable access to the staged L2 state for *setup only* (deploying
    /// collections, pre-minting fixtures). With nothing pending the staged
    /// state is also the finalized one; panics if called while actions are
    /// pending.
    pub fn l2_state_for_setup(&mut self) -> &mut L2State {
        assert!(
            self.pending.is_empty(),
            "setup mutations are only allowed before batches are pending"
        );
        &mut self.staged
    }

    /// Closes a setup phase. There is nothing to copy, so it only asserts
    /// that nothing is pending.
    pub fn commit_setup(&mut self) {
        assert!(self.pending.is_empty(), "cannot commit setup mid-flight");
    }

    /// The finalized L2 state: the pre-state of the oldest pending action,
    /// or the staged state when nothing is pending.
    pub fn finalized_state(&self) -> &L2State {
        self.state_before(0)
    }

    /// The state just before pending action `idx`: its pre-state snapshot,
    /// or the staged state for `idx == pending.len()`. So action `idx`'s
    /// post-state is `state_before(idx + 1)`.
    fn state_before(&self, idx: usize) -> &L2State {
        self.pending.get(idx).map_or(&self.staged, |(_, pre)| pre)
    }

    /// Number of batches finalized with forged roots nobody challenged.
    pub fn undetected_forgeries(&self) -> u64 {
        self.undetected_forgeries
    }

    /// Total Wei destroyed by fraud slashes so far.
    pub fn burned_total(&self) -> Wei {
        self.burned
    }

    /// The log index over finalized batches (block number = batch id).
    pub fn log_index(&self) -> &LogIndex {
        &self.log_index
    }

    /// Answers a [`LogFilter`] query over the events of every *finalized*
    /// batch, in finalization order. The "block" coordinate of a hit (and
    /// of the filter's range) is the batch id. Pending batches are not
    /// visible: their logs only become queryable — from the contract's own
    /// execution at submission — once the challenge window closes.
    pub fn query_logs(&self, filter: &LogFilter) -> Vec<LogHit> {
        self.log_index.query(filter)
    }

    /// Posts an aggregator bond (idempotent top-up).
    pub fn bond_aggregator(&mut self, id: AggregatorId) {
        *self.aggregator_bonds.entry(id).or_insert(Wei::ZERO) = self.config.aggregator_bond;
    }

    /// Posts a verifier bond (idempotent top-up).
    pub fn bond_verifier(&mut self, id: VerifierId) {
        *self.verifier_bonds.entry(id).or_insert(Wei::ZERO) = self.config.verifier_bond;
    }

    /// Remaining bond of an aggregator.
    pub fn aggregator_bond(&self, id: AggregatorId) -> Wei {
        self.aggregator_bonds.get(&id).copied().unwrap_or(Wei::ZERO)
    }

    /// Remaining bond of a verifier.
    pub fn verifier_bond(&self, id: VerifierId) -> Wei {
        self.verifier_bonds.get(&id).copied().unwrap_or(Wei::ZERO)
    }

    /// Bridges `amount` of L1 ETH into L2 tokens for `user`
    /// (`C^{L1} → t^{L2}`, the paper's User-2 path).
    ///
    /// # Errors
    ///
    /// Rejects zero deposits.
    pub fn deposit(&mut self, user: Address, amount: Wei) -> Result<(), RollupError> {
        if amount.is_zero() {
            return Err(RollupError::ZeroDeposit);
        }
        let pre = self.staged.clone();
        self.staged.credit(user, amount);
        self.pending
            .push_back((PendingAction::Deposit { user, amount }, pre));
        Ok(())
    }

    /// Withdraws `amount` of L2 tokens back to L1 for `user`. Debited from
    /// the staged state immediately (real rollups additionally delay the L1
    /// payout by the challenge period; the delay does not interact with
    /// anything the paper measures).
    ///
    /// # Errors
    ///
    /// Fails when the staged balance cannot cover the withdrawal.
    pub fn withdraw(&mut self, user: Address, amount: Wei) -> Result<(), RollupError> {
        let pre = self.staged.clone();
        self.staged
            .debit(user, amount)
            .map_err(|_| RollupError::InsufficientL2Balance)?;
        self.pending
            .push_back((PendingAction::Withdraw { user, amount }, pre));
        Ok(())
    }

    /// Accepts a batch submission from a bonded aggregator.
    ///
    /// Checks only what the real contract can check: the aggregator's bond,
    /// the batch's well-formedness, its size, and that it extends the staged
    /// state root. **It cannot check the ordering policy** — PAROLE batches
    /// sail through.
    ///
    /// # Errors
    ///
    /// See [`RollupError`].
    pub fn submit_batch(&mut self, batch: Batch) -> Result<BatchId, RollupError> {
        let result = self.submit_batch_inner(batch);
        match &result {
            Ok(_) => parole_telemetry::counter("rollup.batches_submitted", 1),
            Err(_) => parole_telemetry::counter("rollup.batches_rejected", 1),
        }
        result
    }

    fn submit_batch_inner(&mut self, batch: Batch) -> Result<BatchId, RollupError> {
        let bond = self.aggregator_bond(batch.aggregator);
        if bond.is_zero() {
            return Err(RollupError::NotBonded(batch.aggregator));
        }
        if batch.len() > self.config.max_batch_size {
            return Err(RollupError::BatchTooLarge(batch.len()));
        }
        if !batch.tx_root_consistent() {
            return Err(RollupError::MalformedBatch);
        }
        let expected = self.staged.state_root();
        if batch.commitment.pre_state_root != expected {
            return Err(RollupError::StaleBatch {
                claimed: batch.commitment.pre_state_root,
                expected,
            });
        }

        let id = self.next_batch_id;
        self.next_batch_id = self.next_batch_id.next();
        let pre = self.staged.clone();
        // Optimistically advance the staged state by honest execution, the
        // batch's only one. (The claimed post-root may disagree — that is
        // exactly what challenges catch; finalization records the divergence
        // if nobody does.)
        let receipts = self.ovm.execute_sequence(&mut self.staged, &batch.txs);
        self.staged.advance_block();
        #[cfg(feature = "audit")]
        Self::audit_state(&self.staged, "batch submission");
        self.pending.push_back((
            PendingAction::Batch {
                id,
                batch,
                receipts,
                submitted_at: self.l1.height(),
            },
            pre,
        ));
        Ok(id)
    }

    /// The pending batch with the given id, if still challengeable.
    pub fn pending_batch(&self, id: BatchId) -> Option<&Batch> {
        self.find_batch(id).map(|(_, batch)| batch)
    }

    /// The queue position and batch of pending batch `id`.
    fn find_batch(&self, id: BatchId) -> Option<(usize, &Batch)> {
        self.pending
            .iter()
            .enumerate()
            .find_map(|(idx, (action, _))| match action {
                PendingAction::Batch { id: bid, batch, .. } if *bid == id => Some((idx, batch)),
                _ => None,
            })
    }

    /// Ids of all currently pending batches, oldest first.
    pub fn pending_batch_ids(&self) -> Vec<BatchId> {
        self.pending
            .iter()
            .filter_map(|(a, _)| match a {
                PendingAction::Batch { id, .. } => Some(*id),
                _ => None,
            })
            .collect()
    }

    /// The pre-state snapshot of pending batch `id`: the state a verifier
    /// re-executes it from.
    pub fn challenge_pre_state(&self, id: BatchId) -> Option<&L2State> {
        self.find_batch(id).map(|(idx, _)| self.state_before(idx))
    }

    /// What both adjudications check first: `verifier` must be bonded and
    /// `id` pending. Returns the batch's queue position and the batch.
    fn challenged(
        &self,
        verifier: VerifierId,
        id: BatchId,
    ) -> Result<(usize, &Batch), RollupError> {
        if self.verifier_bond(verifier).is_zero() {
            return Err(RollupError::VerifierNotBonded(verifier));
        }
        let found = self.find_batch(id).ok_or(RollupError::UnknownBatch(id))?;
        parole_telemetry::counter("rollup.challenges", 1);
        Ok(found)
    }

    /// Adjudicates a challenge by `verifier` against pending batch `id`.
    ///
    /// The contract compares the batch's claimed post-root with the
    /// post-state of its own execution at submission (the next pending
    /// action's pre-state, or the staged state), so nothing runs again:
    ///
    /// - post-root mismatch → fraud proven: the aggregator's bond is slashed,
    ///   part of it rewarded to the challenger, the batch and every action
    ///   after it are reverted (deposits are re-applied; dependent batches
    ///   are dropped, as on a real rollup where they chained on a bad root);
    /// - post-root match → the challenge was frivolous: the verifier's bond
    ///   is slashed.
    ///
    /// # Errors
    ///
    /// Fails when the verifier is unbonded or the batch is not pending.
    pub fn challenge(
        &mut self,
        verifier: VerifierId,
        id: BatchId,
    ) -> Result<ChallengeOutcome, RollupError> {
        let (idx, batch) = self.challenged(verifier, id)?;
        let aggregator = batch.aggregator;
        if self.state_before(idx + 1).state_root() == batch.commitment.post_state_root {
            // Frivolous challenge.
            return Ok(self.reject_challenge(verifier));
        }

        // Fraud proven: slash, reward, burn, roll back.
        let outcome = self.slash_for_fraud(aggregator, verifier);
        self.rollback_pending_from(idx);
        Ok(outcome)
    }

    /// Settles a challenge against the challenger: the full verifier bond
    /// is slashed.
    fn reject_challenge(&mut self, verifier: VerifierId) -> ChallengeOutcome {
        parole_telemetry::counter("rollup.challenges_rejected", 1);
        let slashed = self.verifier_bond(verifier);
        self.verifier_bonds.insert(verifier, Wei::ZERO);
        ChallengeOutcome::ChallengeRejected { slashed }
    }

    /// Settles a challenge against the aggregator: the full bond is
    /// slashed, `challenger_reward_pct` of it paid to the challenger, and
    /// the remainder burned (tracked in [`RollupContract::burned_total`]).
    fn slash_for_fraud(
        &mut self,
        aggregator: AggregatorId,
        verifier: VerifierId,
    ) -> ChallengeOutcome {
        parole_telemetry::counter("rollup.fraud_proven", 1);
        let slashed = self.aggregator_bond(aggregator);
        let reward = slashed
            .mul_ratio(self.config.challenger_reward_pct, 100)
            .unwrap_or(Wei::ZERO);
        let burned = slashed.saturating_sub(reward);
        self.aggregator_bonds.insert(aggregator, Wei::ZERO);
        if let Some(v) = self.verifier_bonds.get_mut(&verifier) {
            *v += reward;
        }
        self.burned += burned;
        ChallengeOutcome::FraudProven {
            slashed,
            reward,
            burned,
        }
    }

    /// Rolls the staged state back to the pre-state of the pending action
    /// at `idx`, then re-applies the tail: deposits survive (L1-forced
    /// inclusions), withdrawals survive if still coverable, and batches —
    /// which chained on the reverted root — are dropped.
    fn rollback_pending_from(&mut self, idx: usize) {
        let mut tail = self.pending.split_off(idx).into_iter();
        let (_, pre) = tail.next().expect("idx is a pending action");
        self.staged = pre;
        for (action, _) in tail {
            match action {
                PendingAction::Deposit { user, amount } => self
                    .deposit(user, amount)
                    .expect("a pending deposit is non-zero"),
                // A withdrawal funded by the reverted batch may no longer be
                // coverable; `withdraw` then refuses it, as the L1 bridge
                // would refuse the payout.
                PendingAction::Withdraw { user, amount } => {
                    let _ = self.withdraw(user, amount);
                }
                // Dependent batches chained on the fraudulent root and are
                // dropped.
                PendingAction::Batch { .. } => {}
            }
        }
    }

    /// Adjudicates a challenge through the interactive bisection game
    /// instead of a whole-batch verdict (see [`crate::bisection`]).
    ///
    /// Both sides bring an execution trace over the batch's pre-state
    /// snapshot. The contract bisects to one disputed step, then settles it
    /// with a single transaction execution plus stateless record openings —
    /// `O(log n)` root queries and proof bytes, never a batch re-run. The
    /// whole-batch [`RollupContract::challenge`] remains the reference
    /// verdict: `both_adjudications_agree` in `crates/rollup/tests/bisection.rs`
    /// pins that both reach the same outcome and leave the same staged and
    /// finalized roots, on honest batches, on batches forged at a random
    /// step and on forged post-roots.
    ///
    /// Rule violations settle immediately: a defender whose trace does not
    /// start at the batch's pre-state snapshot (or covers the wrong number
    /// of steps) forfeits as fraud; a challenger whose trace does is
    /// rejected as frivolous, as is one whose settlement witness fails to
    /// hash to the agreed root.
    ///
    /// # Errors
    ///
    /// Fails when the verifier is unbonded or the batch is not pending.
    pub fn challenge_interactive(
        &mut self,
        verifier: VerifierId,
        id: BatchId,
        defender: &dyn DefenderSide,
        challenger: &dyn ChallengerSide,
    ) -> Result<InteractiveChallenge, RollupError> {
        let (idx, batch) = self.challenged(verifier, id)?;
        let pre_root = self.state_before(idx).state_root();
        let n = batch.len();
        let aggregator = batch.aggregator;

        parole_telemetry::counter("fraud.bisection_games", 1);

        let ctrace = challenger.trace();
        if ctrace.steps() != n || ctrace.pre_root() != pre_root {
            // The challenger is not playing by the rules — frivolous.
            parole_telemetry::counter("fraud.defender_wins", 1);
            return Ok(InteractiveChallenge {
                outcome: self.reject_challenge(verifier),
                step: None,
                rounds: 0,
                diverging: Vec::new(),
            });
        }
        let dtrace = defender.trace();
        if dtrace.steps() != n || dtrace.pre_root() != pre_root {
            // The defender cannot even trace its own batch — forfeit.
            parole_telemetry::counter("fraud.fraud_confirmed", 1);
            let outcome = self.slash_for_fraud(aggregator, verifier);
            self.rollback_pending_from(idx);
            return Ok(InteractiveChallenge {
                outcome,
                step: None,
                rounds: 0,
                diverging: Vec::new(),
            });
        }

        let result = bisect(dtrace, ctrace);
        parole_telemetry::observe("fraud.bisection_rounds", u64::from(result.rounds));

        let verdict = settle_step(&self.ovm, batch, defender, challenger, result.step);
        match verdict {
            SettlementVerdict::DefenderWins | SettlementVerdict::ChallengerForfeit => {
                parole_telemetry::counter("fraud.defender_wins", 1);
                Ok(InteractiveChallenge {
                    outcome: self.reject_challenge(verifier),
                    step: Some(result.step),
                    rounds: result.rounds,
                    diverging: Vec::new(),
                })
            }
            SettlementVerdict::FraudConfirmed { diverging, .. } => {
                parole_telemetry::counter("fraud.fraud_confirmed", 1);
                parole_telemetry::observe("fraud.diverging_records", diverging.len() as u64);
                let outcome = self.slash_for_fraud(aggregator, verifier);
                self.rollback_pending_from(idx);
                Ok(InteractiveChallenge {
                    outcome,
                    step: Some(result.step),
                    rounds: result.rounds,
                    diverging,
                })
            }
        }
    }

    /// Seals an L1 block: everything pending whose challenge window expired
    /// finalizes, in submission order, and nothing executes. Popping an
    /// action makes its post-state the finalized state; a finalized batch's
    /// held receipts go into the log index, and its post-root decides
    /// whether it was a forgery nobody challenged. Returns the new L1
    /// height.
    pub fn advance_l1_block(&mut self) -> BlockNumber {
        let height_after = self.l1.height().value() + 1;
        let mut finalized = Vec::new();
        while let Some((action, _)) = self.pending.front() {
            if let PendingAction::Batch { submitted_at, .. } = action {
                if height_after < submitted_at.value() + self.config.challenge_period {
                    break;
                }
            }
            let (action, _) = self.pending.pop_front().expect("front checked");
            if let PendingAction::Batch {
                id,
                batch,
                receipts,
                ..
            } = action
            {
                self.log_index.index_block(id.value(), &receipts);
                if self.finalized_state().state_root() != batch.commitment.post_state_root {
                    self.undetected_forgeries += 1;
                    parole_telemetry::counter("rollup.undetected_forgeries", 1);
                }
                parole_telemetry::counter("rollup.batches_finalized", 1);
                finalized.push(id);
            }
        }
        // Cheap always-on (debug builds) sanity: batches finalize strictly in
        // submission order.
        debug_assert!(finalized.windows(2).all(|w| w[0] < w[1]));
        let height = self.l1.seal_block(finalized);

        // Finalization is irreversible: with the audit feature on, sweep the
        // finalized state through the full ERC-721 invariant checker and
        // re-verify the L1 chain's content hashes before letting it stand.
        #[cfg(feature = "audit")]
        {
            Self::audit_state(self.finalized_state(), "finalization");
            assert!(
                self.l1.verify_integrity(),
                "L1 integrity audit failed after sealing block {height}"
            );
        }

        height
    }

    /// Panics with the first invariant violation found in `state`; the audit
    /// layer's policy is fail-stop — a corrupted state must never propagate
    /// into later batches or finalization.
    #[cfg(feature = "audit")]
    fn audit_state(state: &L2State, context: &str) {
        if let Err((collection, violation)) = parole_audit::invariants::check_state(state) {
            // Recorded before the fail-stop panic so a telemetry snapshot
            // taken by a catching harness still shows the trip.
            parole_telemetry::counter("rollup.audit_trips", 1);
            panic!("rollup {context} audit failed for collection {collection}: {violation}");
        }
    }

    /// Convenience: advances L1 until nothing is pending.
    pub fn finalize_all(&mut self) {
        for _ in 0..=self.config.challenge_period + 1 {
            self.advance_l1_block();
            if self.pending.is_empty() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aggregator, TracedExecution, Verifier};
    use parole_nft::CollectionConfig;
    use parole_ovm::{NftTransaction, TxKind};
    use parole_primitives::TokenId;

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    /// Deploys a rollup with a PT collection, two funded users and a bonded
    /// honest aggregator + verifier.
    fn deployed() -> (RollupContract, Address, Aggregator, Verifier) {
        let mut rollup = RollupContract::new(RollupConfig::default());
        let pt = rollup
            .l2_state_for_setup()
            .deploy_collection(CollectionConfig::parole_token());
        rollup.commit_setup();
        rollup.deposit(addr(1), Wei::from_eth(5)).unwrap();
        rollup.deposit(addr(2), Wei::from_eth(5)).unwrap();
        rollup.bond_aggregator(AggregatorId::new(0));
        rollup.bond_verifier(VerifierId::new(0));
        let agg = Aggregator::honest(AggregatorId::new(0), Wei::from_eth(10));
        let ver = Verifier::new(VerifierId::new(0), Wei::from_eth(5));
        (rollup, pt, agg, ver)
    }

    fn mint_txs(pt: Address, n: u64) -> Vec<NftTransaction> {
        (0..n)
            .map(|i| {
                NftTransaction::simple(
                    addr(1 + i % 2),
                    TxKind::Mint {
                        collection: pt,
                        token: TokenId::new(i),
                    },
                )
            })
            .collect()
    }

    /// Batch logs become queryable only at finalization, sourced from the
    /// contract's own execution — pending batches expose nothing.
    #[test]
    fn finalized_batches_answer_log_queries() {
        use parole_ovm::{EventKind, LogFilter};

        let (mut rollup, pt, mut agg, _) = deployed();
        let batch = agg.build_batch(rollup.l2_state(), mint_txs(pt, 3));
        let id = rollup.submit_batch(batch).unwrap();

        // Pending: nothing indexed yet.
        assert!(rollup.log_index().is_empty());
        assert!(rollup.query_logs(&LogFilter::all()).is_empty());

        rollup.finalize_all();
        assert_eq!(rollup.log_index().len(), 1);
        let transfers = rollup.query_logs(&LogFilter::all().of_kind(EventKind::Transfer));
        assert_eq!(transfers.len(), 3, "three finalized mints");
        assert!(transfers.iter().all(|h| h.block == id.value()));
        assert!(transfers
            .iter()
            .all(|h| h.entry.collection == pt && h.entry.event.is_mint()));
        // The curve moved on every mint.
        assert_eq!(
            rollup
                .query_logs(&LogFilter::all().of_kind(EventKind::PriceChanged))
                .len(),
            3
        );
        // Minter-addressed query sees only that minter's transfers.
        let u1 = rollup.query_logs(&LogFilter::all().involving(addr(1)));
        assert_eq!(u1.len(), 2, "addr(1) minted tokens 0 and 2");
    }

    /// Finalization executes nothing, so check it against a replay built
    /// by hand. One lifecycle — a deposit, an honest batch, a forged batch
    /// and a withdrawal — advances one L1 block at a time. After every
    /// advance the finalized state equals the test's own replay of the
    /// finalized prefix (each batch through `Ovm::execute_sequence` plus
    /// `advance_block`), the forgery count steps to 1 exactly when the
    /// forged batch finalizes, and the log index holds exactly the
    /// finalized batches' logs.
    #[test]
    fn finalization_matches_a_replay_of_the_finalized_prefix() {
        enum Step {
            Deposit(Address, Wei),
            Withdraw(Address, Wei),
            Batch {
                id: BatchId,
                txs: Vec<NftTransaction>,
                forged: bool,
            },
        }
        let mut rollup = RollupContract::new(RollupConfig::default());
        let pt = rollup
            .l2_state_for_setup()
            .deploy_collection(CollectionConfig::parole_token());
        rollup.commit_setup();
        rollup.bond_aggregator(AggregatorId::new(0));
        let mut agg = Aggregator::honest(AggregatorId::new(0), Wei::from_eth(10));
        let mut steps = VecDeque::new();

        // At the deployment height: a deposit and an honest batch.
        rollup.deposit(addr(1), Wei::from_eth(5)).unwrap();
        steps.push_back(Step::Deposit(addr(1), Wei::from_eth(5)));
        let txs = mint_txs(pt, 2);
        let batch = agg.build_batch(rollup.l2_state(), txs.clone());
        let id = rollup.submit_batch(batch).unwrap();
        steps.push_back(Step::Batch {
            id,
            txs,
            forged: false,
        });

        // Steps finalized after each advance, counted by hand from the
        // challenge period of 3: the deposit at once, the honest batch
        // three blocks after its submission, the forged batch three blocks
        // after its own, and the withdrawal right behind it.
        let finalized_after = [1, 1, 2, 4, 4];
        let mut replay = rollup.finalized_state().clone();
        let mut index = LogIndex::new();
        let mut forgeries = 0;
        let mut done = 0;
        for (k, want) in finalized_after.into_iter().enumerate() {
            rollup.advance_l1_block();
            if k == 0 {
                // One block later: a forged batch and a withdrawal.
                let txs = vec![NftTransaction::simple(
                    addr(1),
                    TxKind::Mint {
                        collection: pt,
                        token: TokenId::new(7),
                    },
                )];
                let batch = agg.build_forged_batch(rollup.l2_state(), txs.clone());
                let id = rollup.submit_batch(batch).unwrap();
                steps.push_back(Step::Batch {
                    id,
                    txs,
                    forged: true,
                });
                rollup.withdraw(addr(1), Wei::from_eth(1)).unwrap();
                steps.push_back(Step::Withdraw(addr(1), Wei::from_eth(1)));
            }
            for _ in done..want {
                match steps.pop_front().unwrap() {
                    Step::Deposit(user, amount) => replay.credit(user, amount),
                    Step::Withdraw(user, amount) => replay.debit(user, amount).unwrap(),
                    Step::Batch { id, txs, forged } => {
                        let receipts = Ovm::new().execute_sequence(&mut replay, &txs);
                        replay.advance_block();
                        index.index_block(id.value(), &receipts);
                        forgeries += u64::from(forged);
                    }
                }
            }
            done = want;
            assert!(rollup.finalized_state() == &replay);
            assert_eq!(rollup.finalized_state().state_root(), replay.state_root());
            assert_eq!(
                rollup.finalized_state() == rollup.l2_state(),
                steps.is_empty(),
                "the finalized state trails the staged one while anything is pending"
            );
            assert_eq!(rollup.undetected_forgeries(), forgeries);
            assert_eq!(
                rollup.query_logs(&LogFilter::all()),
                index.query(&LogFilter::all())
            );
        }
        assert_eq!(forgeries, 1);
        assert!(steps.is_empty());
        assert!(!index.is_empty());
    }

    #[test]
    fn deposit_credits_staged_state() {
        let (rollup, _, _, _) = deployed();
        assert_eq!(rollup.l2_state().balance_of(addr(1)), Wei::from_eth(5));
    }

    #[test]
    fn zero_deposit_rejected() {
        let mut rollup = RollupContract::new(RollupConfig::default());
        assert_eq!(
            rollup.deposit(addr(1), Wei::ZERO),
            Err(RollupError::ZeroDeposit)
        );
    }

    #[test]
    fn withdraw_roundtrip() {
        let (mut rollup, _, _, _) = deployed();
        rollup.withdraw(addr(1), Wei::from_eth(2)).unwrap();
        assert_eq!(rollup.l2_state().balance_of(addr(1)), Wei::from_eth(3));
        assert!(matches!(
            rollup.withdraw(addr(1), Wei::from_eth(100)),
            Err(RollupError::InsufficientL2Balance)
        ));
    }

    #[test]
    fn honest_batch_lifecycle_finalizes() {
        let (mut rollup, pt, mut agg, _) = deployed();
        let batch = agg.build_batch(rollup.l2_state(), mint_txs(pt, 3));
        let id = rollup.submit_batch(batch).unwrap();
        assert_eq!(rollup.pending_batch_ids(), vec![id]);

        rollup.finalize_all();
        assert!(rollup.pending_batch_ids().is_empty());
        assert_eq!(rollup.undetected_forgeries(), 0);
        // The finalized state caught up with execution.
        assert_eq!(
            rollup
                .finalized_state()
                .collection(pt)
                .unwrap()
                .active_supply(),
            3
        );
        assert_eq!(
            rollup.finalized_state().state_root(),
            rollup.l2_state().state_root()
        );
    }

    /// With the `audit` feature on, an honest mint/transfer/burn lifecycle
    /// must pass the full invariant sweep at every batch submission and at
    /// finalization (the hooks panic on any violation).
    #[cfg(feature = "audit")]
    #[test]
    fn audited_lifecycle_stays_silent() {
        let (mut rollup, pt, mut agg, _) = deployed();
        let mut txs = mint_txs(pt, 3);
        txs.push(NftTransaction::simple(
            addr(1),
            TxKind::Transfer {
                collection: pt,
                token: TokenId::new(0),
                to: addr(2),
            },
        ));
        txs.push(NftTransaction::simple(
            addr(2),
            TxKind::Burn {
                collection: pt,
                token: TokenId::new(0),
            },
        ));
        let batch = agg.build_batch(rollup.l2_state(), txs);
        rollup.submit_batch(batch).unwrap();
        rollup.finalize_all();
        assert_eq!(rollup.undetected_forgeries(), 0);
    }

    #[test]
    fn unbonded_aggregator_rejected() {
        let (mut rollup, pt, _, _) = deployed();
        let mut rogue = Aggregator::honest(AggregatorId::new(99), Wei::from_eth(10));
        let batch = rogue.build_batch(rollup.l2_state(), mint_txs(pt, 1));
        assert_eq!(
            rollup.submit_batch(batch),
            Err(RollupError::NotBonded(AggregatorId::new(99)))
        );
    }

    #[test]
    fn stale_batch_rejected() {
        let (mut rollup, pt, mut agg, _) = deployed();
        let batch = agg.build_batch(rollup.l2_state(), mint_txs(pt, 1));
        // A deposit lands between build and submit: the pre-root is stale.
        rollup.deposit(addr(3), Wei::from_eth(1)).unwrap();
        assert!(matches!(
            rollup.submit_batch(batch),
            Err(RollupError::StaleBatch { .. })
        ));
    }

    #[test]
    fn malformed_batch_rejected() {
        let (mut rollup, pt, mut agg, _) = deployed();
        let mut batch = agg.build_batch(rollup.l2_state(), mint_txs(pt, 2));
        batch.txs.swap(0, 1); // break the tx root
        assert_eq!(rollup.submit_batch(batch), Err(RollupError::MalformedBatch));
    }

    #[test]
    fn oversized_batch_rejected() {
        let (rollup, pt, mut agg, _) = deployed();
        let config = RollupConfig {
            max_batch_size: 2,
            ..Default::default()
        };
        let mut small = RollupContract::new(config);
        small.bond_aggregator(AggregatorId::new(0));
        let _ = pt;
        let batch = agg.build_batch(rollup.l2_state(), mint_txs(pt, 3));
        assert_eq!(
            small.submit_batch(batch),
            Err(RollupError::BatchTooLarge(3))
        );
    }

    #[test]
    fn forged_batch_challenge_slashes_aggregator() {
        let (mut rollup, pt, mut agg, ver) = deployed();
        let batch = agg.build_forged_batch(rollup.l2_state(), mint_txs(pt, 2));
        let pre = rollup.l2_state().clone();
        // Forged batches fail the pre-root check only if forging touched it;
        // ours forges the post root, so submission succeeds.
        let id = rollup.submit_batch(batch).unwrap();

        // The verifier detects the forgery from the snapshot.
        let snapshot = rollup.challenge_pre_state(id).unwrap().clone();
        assert_eq!(snapshot.state_root(), pre.state_root());
        let outcome = rollup.challenge(ver.id(), id).unwrap();
        match outcome {
            ChallengeOutcome::FraudProven {
                slashed,
                reward,
                burned,
            } => {
                assert_eq!(slashed, RollupConfig::default().aggregator_bond);
                assert_eq!(reward, slashed.mul_ratio(50, 100).unwrap());
                assert_eq!(burned, slashed - reward);
            }
            other => panic!("expected fraud proven, got {other:?}"),
        }
        // Aggregator bond gone; verifier rewarded.
        assert_eq!(rollup.aggregator_bond(AggregatorId::new(0)), Wei::ZERO);
        assert_eq!(
            rollup.verifier_bond(VerifierId::new(0)),
            RollupConfig::default().verifier_bond + Wei::from_eth(5)
        );
        // The batch is gone and the staged state rolled back.
        assert!(rollup.pending_batch_ids().is_empty());
        assert_eq!(rollup.l2_state().state_root(), pre.state_root());
    }

    /// Regression pin for the bond-burn bug: a fraud slash used to zero the
    /// aggregator bond but only account for the challenger's cut — the
    /// remaining 50% silently vanished from every balance. The burn is now
    /// explicit: `slashed == reward + burned` and the contract tracks the
    /// cumulative burn.
    #[test]
    fn fraud_slash_burns_the_remainder_and_tracks_it() {
        let (mut rollup, pt, mut agg, ver) = deployed();
        assert_eq!(rollup.burned_total(), Wei::ZERO);
        let batch = agg.build_forged_batch(rollup.l2_state(), mint_txs(pt, 2));
        let id = rollup.submit_batch(batch).unwrap();
        let ChallengeOutcome::FraudProven {
            slashed,
            reward,
            burned,
        } = rollup.challenge(ver.id(), id).unwrap()
        else {
            panic!("expected fraud proven");
        };
        // Every slashed Wei is either rewarded or burned — nothing vanishes.
        assert_eq!(slashed, reward + burned);
        assert!(!burned.is_zero(), "50% reward leaves 50% to burn");
        assert_eq!(rollup.burned_total(), burned);
    }

    /// A batch forged mid-stream (honest execution up to step 5, then a
    /// hidden credit to that transaction's sender) is localized by the
    /// interactive game: exactly `log2(8) = 3` bisection rounds isolate
    /// transaction 5, and the settlement names the inflated account as the
    /// diverging record — without ever re-executing the batch.
    #[test]
    fn interactive_challenge_localizes_forged_step() {
        let (mut rollup, pt, _, ver) = deployed();
        let forged_step = 5usize;
        let txs = mint_txs(pt, 8);
        // Transaction 5's sender (see `mint_txs`): the account whose mint
        // payment the forgery quietly refunds.
        let thief = addr(1 + forged_step as u64 % 2);
        let ovm = parole_ovm::Ovm::new();
        let pre = rollup.l2_state().clone();

        // The dishonest aggregator's side: traced execution with a hidden
        // credit after step 5, commitment derived from the tampered state.
        let defender = TracedExecution::record_with(&ovm, &pre, &txs, |i, st| {
            if i == forged_step {
                st.credit(thief, Wei::from_eth(1));
            }
        });
        let mut post = defender.final_state().clone();
        post.advance_block();
        let batch = Batch {
            aggregator: AggregatorId::new(0),
            commitment: crate::StateCommitment {
                pre_state_root: pre.state_root(),
                post_state_root: post.state_root(),
                tx_root: Batch::compute_tx_root(&txs),
            },
            txs: txs.clone(),
            receipts: vec![],
        };
        let id = rollup.submit_batch(batch).unwrap();

        // The challenger re-executes honestly from the pre-state snapshot.
        let snapshot = rollup.challenge_pre_state(id).unwrap().clone();
        let challenger = TracedExecution::record(&ovm, &snapshot, &txs);

        let report = rollup
            .challenge_interactive(ver.id(), id, &defender, &challenger)
            .unwrap();
        assert!(matches!(
            report.outcome,
            ChallengeOutcome::FraudProven { .. }
        ));
        assert_eq!(report.step, Some(DisputedStep::Tx(forged_step)));
        assert_eq!(report.rounds, 3, "2^3 txs isolate in exactly 3 rounds");
        assert!(
            report.diverging.contains(&RecordKey::Acct(thief)),
            "the smuggled credit must be named: {:?}",
            report.diverging
        );
        // Same economics and rollback as the reference path.
        assert_eq!(rollup.aggregator_bond(AggregatorId::new(0)), Wei::ZERO);
        assert!(rollup.pending_batch_ids().is_empty());
        assert_eq!(rollup.l2_state().state_root(), pre.state_root());
    }

    /// A forgery that mutates a record *outside* the isolated
    /// transaction's footprint (a credit to an uninvolved account) is
    /// still caught and slashed — the defender's openings of the touched
    /// records all agree, so the diverging list is empty, but the
    /// single-step root mismatch alone convicts the out-of-footprint
    /// write.
    #[test]
    fn interactive_challenge_catches_out_of_footprint_forgery() {
        let (mut rollup, pt, _, ver) = deployed();
        let forged_step = 2usize;
        let txs = mint_txs(pt, 4);
        let outsider = addr(66);
        let ovm = parole_ovm::Ovm::new();
        let pre = rollup.l2_state().clone();

        let defender = TracedExecution::record_with(&ovm, &pre, &txs, |i, st| {
            if i == forged_step {
                st.credit(outsider, Wei::from_eth(1));
            }
        });
        let mut post = defender.final_state().clone();
        post.advance_block();
        let batch = Batch {
            aggregator: AggregatorId::new(0),
            commitment: crate::StateCommitment {
                pre_state_root: pre.state_root(),
                post_state_root: post.state_root(),
                tx_root: Batch::compute_tx_root(&txs),
            },
            txs: txs.clone(),
            receipts: vec![],
        };
        let id = rollup.submit_batch(batch).unwrap();
        let snapshot = rollup.challenge_pre_state(id).unwrap().clone();
        let challenger = TracedExecution::record(&ovm, &snapshot, &txs);

        let report = rollup
            .challenge_interactive(ver.id(), id, &defender, &challenger)
            .unwrap();
        assert!(matches!(
            report.outcome,
            ChallengeOutcome::FraudProven { .. }
        ));
        assert_eq!(report.step, Some(DisputedStep::Tx(forged_step)));
        assert!(report.diverging.is_empty());
    }

    /// An honest batch survives the interactive game: the traces agree on
    /// every transaction, the block-advance settlement reproduces the
    /// committed post-root, and the frivolous challenger is slashed.
    #[test]
    fn interactive_challenge_rejects_honest_batch() {
        let (mut rollup, pt, mut agg, ver) = deployed();
        let txs = mint_txs(pt, 4);
        let ovm = parole_ovm::Ovm::new();
        let pre = rollup.l2_state().clone();
        let batch = agg.build_batch(&pre, txs.clone());
        let id = rollup.submit_batch(batch).unwrap();

        let defender = TracedExecution::record(&ovm, &pre, &txs);
        let snapshot = rollup.challenge_pre_state(id).unwrap().clone();
        let challenger = TracedExecution::record(&ovm, &snapshot, &txs);

        let report = rollup
            .challenge_interactive(ver.id(), id, &defender, &challenger)
            .unwrap();
        assert!(matches!(
            report.outcome,
            ChallengeOutcome::ChallengeRejected { .. }
        ));
        assert_eq!(report.step, Some(DisputedStep::BlockAdvance));
        assert_eq!(report.rounds, 0);
        assert_eq!(rollup.verifier_bond(ver.id()), Wei::ZERO);
        // The batch survives and finalizes cleanly.
        rollup.finalize_all();
        assert_eq!(rollup.undetected_forgeries(), 0);
    }

    /// A post-root forged wholesale (the `build_forged_batch` hash tamper)
    /// cannot be defended at any transaction step — the defender's only
    /// consistent trace is the honest one, so the dispute lands on the
    /// block advance and fraud is confirmed there.
    #[test]
    fn interactive_challenge_catches_hash_forged_post_root() {
        let (mut rollup, pt, mut agg, ver) = deployed();
        let txs = mint_txs(pt, 4);
        let ovm = parole_ovm::Ovm::new();
        let pre = rollup.l2_state().clone();
        let batch = agg.build_forged_batch(&pre, txs.clone());
        let id = rollup.submit_batch(batch).unwrap();

        let defender = TracedExecution::record(&ovm, &pre, &txs);
        let snapshot = rollup.challenge_pre_state(id).unwrap().clone();
        let challenger = TracedExecution::record(&ovm, &snapshot, &txs);

        let report = rollup
            .challenge_interactive(ver.id(), id, &defender, &challenger)
            .unwrap();
        assert!(matches!(
            report.outcome,
            ChallengeOutcome::FraudProven { .. }
        ));
        assert_eq!(report.step, Some(DisputedStep::BlockAdvance));
        assert!(rollup.pending_batch_ids().is_empty());
    }

    #[test]
    fn frivolous_challenge_slashes_verifier() {
        let (mut rollup, pt, mut agg, ver) = deployed();
        let batch = agg.build_batch(rollup.l2_state(), mint_txs(pt, 2));
        let id = rollup.submit_batch(batch).unwrap();
        let outcome = rollup.challenge(ver.id(), id).unwrap();
        assert!(matches!(
            outcome,
            ChallengeOutcome::ChallengeRejected { .. }
        ));
        assert_eq!(rollup.verifier_bond(VerifierId::new(0)), Wei::ZERO);
        // The batch survives and finalizes.
        rollup.finalize_all();
        assert_eq!(rollup.undetected_forgeries(), 0);
        assert_eq!(
            rollup
                .finalized_state()
                .collection(pt)
                .unwrap()
                .active_supply(),
            2
        );
    }

    #[test]
    fn unchallenged_forgery_is_counted() {
        let (mut rollup, pt, mut agg, _) = deployed();
        let batch = agg.build_forged_batch(rollup.l2_state(), mint_txs(pt, 1));
        rollup.submit_batch(batch).unwrap();
        rollup.finalize_all();
        assert_eq!(rollup.undetected_forgeries(), 1);
    }

    #[test]
    fn challenge_requires_bonded_verifier() {
        let (mut rollup, pt, mut agg, _) = deployed();
        let batch = agg.build_batch(rollup.l2_state(), mint_txs(pt, 1));
        let id = rollup.submit_batch(batch).unwrap();
        assert_eq!(
            rollup.challenge(VerifierId::new(9), id),
            Err(RollupError::VerifierNotBonded(VerifierId::new(9)))
        );
    }

    #[test]
    fn challenge_unknown_batch_fails() {
        let (mut rollup, _, _, ver) = deployed();
        assert_eq!(
            rollup.challenge(ver.id(), BatchId::new(42)),
            Err(RollupError::UnknownBatch(BatchId::new(42)))
        );
    }

    #[test]
    fn chained_batches_finalize_in_order() {
        let (mut rollup, pt, mut agg, _) = deployed();
        let b1 = agg.build_batch(rollup.l2_state(), mint_txs(pt, 2));
        rollup.submit_batch(b1).unwrap();
        let txs2 = vec![NftTransaction::simple(
            addr(1),
            TxKind::Transfer {
                collection: pt,
                token: TokenId::new(0),
                to: addr(2),
            },
        )];
        let b2 = agg.build_batch(rollup.l2_state(), txs2);
        rollup.submit_batch(b2).unwrap();
        rollup.finalize_all();
        assert_eq!(rollup.undetected_forgeries(), 0);
        let coll = rollup.finalized_state().collection(pt).unwrap();
        assert!(coll.is_owner(addr(2), TokenId::new(0)));
    }

    #[test]
    fn fraud_rollback_drops_dependent_batches_but_keeps_deposits() {
        let (mut rollup, pt, mut agg, ver) = deployed();
        let forged = agg.build_forged_batch(rollup.l2_state(), mint_txs(pt, 1));
        let forged_id = rollup.submit_batch(forged).unwrap();
        // A dependent batch and a deposit arrive afterwards.
        let dep_batch = agg.build_batch(
            rollup.l2_state(),
            vec![NftTransaction::simple(
                addr(2),
                TxKind::Mint {
                    collection: pt,
                    token: TokenId::new(5),
                },
            )],
        );
        let dep_id = rollup.submit_batch(dep_batch).unwrap();
        rollup.deposit(addr(7), Wei::from_eth(3)).unwrap();

        rollup.challenge(ver.id(), forged_id).unwrap();
        // Dependent batch dropped, deposit survived.
        assert!(rollup.pending_batch(dep_id).is_none());
        assert_eq!(rollup.l2_state().balance_of(addr(7)), Wei::from_eth(3));
        rollup.finalize_all();
        assert_eq!(
            rollup.finalized_state().balance_of(addr(7)),
            Wei::from_eth(3)
        );
        assert_eq!(
            rollup
                .finalized_state()
                .collection(pt)
                .unwrap()
                .active_supply(),
            0
        );
    }

    #[test]
    fn l1_chain_grows_with_blocks() {
        let (mut rollup, _, _, _) = deployed();
        let h0 = rollup.l1().height();
        rollup.advance_l1_block();
        rollup.advance_l1_block();
        assert_eq!(rollup.l1().height().value(), h0.value() + 2);
        assert!(rollup.l1().verify_integrity());
    }
}
