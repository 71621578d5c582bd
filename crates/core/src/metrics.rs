//! Per-governor measurement of everything the paper's analysis talks
//! about: losses (realized and expected), screening counts, validation
//! cost, argue outcomes, and the per-(provider, collector) loss tallies
//! behind the regret computation of Theorem 1/4.

use std::collections::HashMap;

/// Counters and accumulators for one governor.
#[derive(Clone, Debug, Default)]
pub struct GovernorMetrics {
    /// Transactions screened (timer fired, decision taken).
    pub screened: u64,
    /// Transactions the governor validated itself.
    pub checked: u64,
    /// Transactions recorded unchecked.
    pub unchecked: u64,
    /// `validate(tx)` calls (screening + argue verification).
    pub validations: u64,
    /// Uploads rejected for bad signatures / forgery (case 1 updates).
    pub forged_detected: u64,
    /// Provider-signature checks answered without verifying: by the
    /// transaction's slot (its screened signature) or open window (the
    /// verdicts delivered to it), or by the memo that keeps the rest.
    pub sig_memo_hits: u64,
    /// Provider-signature checks that ran the real verifier (and seeded
    /// the memo).
    pub sig_memo_misses: u64,
    /// Realized loss: 2 per unchecked transaction whose recorded label
    /// turned out wrong (counted at reveal).
    pub realized_loss: f64,
    /// Expected loss: `Σ L_tx` over revealed unchecked transactions.
    pub expected_loss: f64,
    /// Argues accepted (validated and queued for re-recording).
    pub argue_accepted: u64,
    /// Argues rejected for exceeding the `U` latency bound.
    pub argue_rejected: u64,
    /// Valid transactions permanently lost to the `U` bound.
    pub lost_valid: u64,
    /// Unchecked transactions whose truth was revealed.
    pub revealed: u64,
    /// Blocks this governor appended to its chain.
    pub blocks_appended: u64,
    /// Blocks that failed to append (agreement violations; 0 in any
    /// correct run).
    pub append_failures: u64,
    /// Profit paid out per collector (leader rounds only).
    pub revenue_paid: Vec<f64>,
    /// Rounds this governor led.
    pub rounds_led: u64,
    /// Sync requests this governor answered (crash recovery of peers).
    pub sync_served: u64,
    /// Blocks this governor recovered via sync after its own crash.
    pub sync_applied: u64,
    /// Recoveries started (a chain gap or round gap was observed).
    pub sync_requested: u64,
    /// Recoveries completed (caught up to a peer's head).
    pub sync_recovered: u64,
    /// Recoveries abandoned after exhausting peer rotations.
    pub sync_abandoned: u64,
    /// Ticks each completed recovery took, gap detection → caught up.
    pub recovery_ticks: Vec<u64>,
    /// Retransmitted or slow duplicate blocks discarded on arrival.
    pub duplicate_blocks: u64,
    /// Head blocks rolled back during fork resolution (a provisional
    /// self-proposal lost to a rival with a smaller election key, or was
    /// unwound before refetching the settled chain).
    pub head_rollbacks: u64,
    /// Led rounds skipped because the previous provisional self-proposal
    /// was still unconfirmed (extending it could deepen a fork).
    pub proposals_withheld: u64,
    /// Equivocating proposals this governor deliberately double-signed
    /// (byzantine profiles only).
    pub equivocations_sent: u64,
    /// The first round in which this governor equivocated, if it ever did.
    pub first_equivocation_round: Option<u64>,
    /// Invalid (forged-entry) proposals this governor deliberately sent.
    pub invalid_proposals_sent: u64,
    /// Transactions this governor dropped from its own proposals while
    /// censoring.
    pub censored_txs: u64,
    /// Led or claim-eligible rounds this governor sat out while silent.
    pub silent_rounds: u64,
    /// Equivocation evidence records this governor assembled and broadcast.
    pub evidence_broadcast: u64,
    /// Evidence records received from peers that verified.
    pub evidence_received: u64,
    /// Governors this node expelled from its committee view.
    pub expulsions: u64,
    /// Round each expulsion took effect locally, keyed by culprit.
    pub expulsion_round: HashMap<u32, u64>,
    /// Proposed blocks rejected on arrival for failing authentication.
    pub invalid_blocks_rejected: u64,
    /// Checkpoint shares this governor signed and broadcast.
    pub checkpoint_shares_sent: u64,
    /// Checkpoint certificates this governor assembled from a quorum of
    /// shares.
    pub checkpoint_certs_formed: u64,
    /// Checkpoint shares discarded because their state digest did not
    /// match this governor's own snapshot at that serial (transient
    /// reveal-timing divergence, or a byzantine signer).
    pub checkpoint_digest_mismatches: u64,
    /// Checkpoint certificates offered by sync peers that this governor
    /// verified and adopted, re-anchoring its chain.
    pub checkpoints_adopted: u64,
    /// Serial of the most recently adopted checkpoint (0 = never).
    pub adopted_serial: u64,
    /// Sync pages applied after the most recent checkpoint adoption —
    /// the O(delta) bound: at most `delta / sync_page + 1` where
    /// `delta = head − adopted_serial`.
    pub pages_after_adopt: u64,
    /// Checkpoint certificates offered by peers but rejected (stale
    /// serial, forged or under-quorum signatures). A rejected offer
    /// never rolls the chain back.
    pub checkpoints_rejected: u64,
    /// Sync-page blocks rejected by chain validation, keyed by
    /// [`prb_ledger::chain::ChainError::kind`] label and carrying the
    /// typed import/append diagnostics (satellite of the durable-store
    /// tentpole: corrupted or byzantine sync payloads are visible, not
    /// silent).
    pub sync_rejected: HashMap<&'static str, u64>,
    /// Membership certificates this governor assembled from a quorum of
    /// shares (E17).
    pub member_certs_formed: u64,
    /// Certified membership transitions applied at their effective
    /// round.
    pub member_applied: u64,
    /// Membership certificates the reopened store held that failed their
    /// audit and were not replayed.
    pub member_certs_refused: u64,
    /// Eviction proposals this governor originated (silent or
    /// below-floor collectors).
    pub evictions_proposed: u64,
    /// Silence-decay steps applied to collectors' screening weights.
    pub decay_events: u64,
    /// Reveals per provider (denominator for per-collector quality
    /// estimates under churn).
    pub revealed_by_provider: HashMap<u32, u64>,
    /// Realized loss per provider.
    pub realized_loss_by_provider: HashMap<u32, f64>,
    /// Expected loss per provider.
    pub expected_loss_by_provider: HashMap<u32, f64>,
    /// Cumulative loss per (provider, collector): 2 per wrong label, 1 per
    /// miss, over revealed unchecked transactions — the expert losses of
    /// Theorem 1.
    pub collector_loss: HashMap<(u32, u32), f64>,
}

impl GovernorMetrics {
    /// Fresh metrics for a governor paying `collectors` collectors.
    pub fn new(collectors: usize) -> Self {
        GovernorMetrics {
            revenue_paid: vec![0.0; collectors],
            ..Default::default()
        }
    }

    /// Records the reveal of an unchecked transaction.
    pub fn record_reveal(
        &mut self,
        provider: u32,
        l_tx: f64,
        recorded_label_was_wrong: bool,
        involvements: impl IntoIterator<Item = (u32, f64)>,
    ) {
        self.revealed += 1;
        *self.revealed_by_provider.entry(provider).or_default() += 1;
        self.expected_loss += l_tx;
        *self.expected_loss_by_provider.entry(provider).or_default() += l_tx;
        if recorded_label_was_wrong {
            self.realized_loss += 2.0;
            *self.realized_loss_by_provider.entry(provider).or_default() += 2.0;
        }
        for (collector, loss) in involvements {
            *self
                .collector_loss
                .entry((provider, collector))
                .or_default() += loss;
        }
    }

    /// The best collector's cumulative loss for `provider` — `S^min_T`
    /// over the collectors that oversee it.
    pub fn best_collector_loss(&self, provider: u32, collectors: &[u32]) -> f64 {
        collectors
            .iter()
            .map(|c| {
                self.collector_loss
                    .get(&(provider, *c))
                    .copied()
                    .unwrap_or(0.0)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The governor's regret on `provider`:
    /// expected loss − best collector loss (Theorem 1's `L_T − S^min_T`).
    pub fn regret(&self, provider: u32, collectors: &[u32]) -> f64 {
        let loss = self
            .expected_loss_by_provider
            .get(&provider)
            .copied()
            .unwrap_or(0.0);
        let best = self.best_collector_loss(provider, collectors);
        if best.is_finite() {
            loss - best
        } else {
            loss
        }
    }

    /// Fraction of screened transactions that went unchecked.
    pub fn unchecked_fraction(&self) -> f64 {
        if self.screened == 0 {
            0.0
        } else {
            self.unchecked as f64 / self.screened as f64
        }
    }

    /// Modeled validation time: `validations × cost_per_validation` ticks
    /// (the throughput denominator of experiment E5).
    pub fn validation_ticks(&self, cost_per_validation: u64) -> u64 {
        self.validations * cost_per_validation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reveal_accumulates_all_accounts() {
        let mut m = GovernorMetrics::new(3);
        m.record_reveal(0, 1.0, true, vec![(0, 2.0), (1, 0.0), (2, 1.0)]);
        m.record_reveal(0, 0.5, false, vec![(0, 2.0), (1, 0.0), (2, 1.0)]);
        assert_eq!(m.revealed, 2);
        assert_eq!(m.realized_loss, 2.0);
        assert_eq!(m.expected_loss, 1.5);
        assert_eq!(m.realized_loss_by_provider[&0], 2.0);
        assert_eq!(m.collector_loss[&(0, 0)], 4.0);
        assert_eq!(m.collector_loss[&(0, 2)], 2.0);
    }

    #[test]
    fn best_collector_and_regret() {
        let mut m = GovernorMetrics::new(3);
        m.record_reveal(0, 1.0, true, vec![(0, 2.0), (1, 0.0), (2, 1.0)]);
        m.record_reveal(0, 1.0, true, vec![(0, 2.0), (1, 0.0), (2, 1.0)]);
        assert_eq!(m.best_collector_loss(0, &[0, 1, 2]), 0.0);
        assert_eq!(m.regret(0, &[0, 1, 2]), 2.0);
        // Collector 1 excluded: the best remaining is collector 2.
        assert_eq!(m.best_collector_loss(0, &[0, 2]), 2.0);
        assert_eq!(m.regret(0, &[0, 2]), 0.0);
    }

    #[test]
    fn regret_with_no_collectors_is_plain_loss() {
        let mut m = GovernorMetrics::new(0);
        m.record_reveal(3, 0.7, false, vec![]);
        assert_eq!(m.regret(3, &[]), 0.7);
        assert_eq!(m.regret(9, &[]), 0.0);
    }

    #[test]
    fn unchecked_fraction() {
        let mut m = GovernorMetrics::new(0);
        assert_eq!(m.unchecked_fraction(), 0.0);
        m.screened = 10;
        m.unchecked = 3;
        assert!((m.unchecked_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn validation_ticks() {
        let mut m = GovernorMetrics::new(0);
        m.validations = 7;
        assert_eq!(m.validation_ticks(50), 350);
    }
}
