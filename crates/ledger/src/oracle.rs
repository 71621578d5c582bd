//! The validity oracle: ground truth behind `validate(tx)`.
//!
//! The paper treats `validate(tx)` as an abstract check that reveals a
//! transaction's real status (§3.1). In the simulation, each generated
//! transaction carries a ground-truth bit registered here; collectors and
//! governors call [`ValidityOracle::validate`], which reveals the bit and
//! counts the call — the count is the *validation cost* that experiment E5
//! trades off against governor loss.

use std::cell::Cell;
use std::fmt;

use prb_crypto::fxhash::FxMap;

use crate::transaction::TxId;

/// Ground truth and cost accounting for transaction validation.
#[derive(Default)]
pub struct ValidityOracle {
    // Keyed by a SHA-256 digest and probed once or more per transaction,
    // so the seeded Fx mix (never iterated here) replaces SipHash.
    truth: FxMap<TxId, bool>,
    validations: Cell<u64>,
}

impl fmt::Debug for ValidityOracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ValidityOracle")
            .field("registered", &self.truth.len())
            .field("validations", &self.validations.get())
            .finish()
    }
}

impl ValidityOracle {
    /// An empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the ground-truth validity of a transaction.
    ///
    /// Re-registering the same id keeps the first value (transactions are
    /// immutable once signed).
    pub fn register(&mut self, id: TxId, valid: bool) {
        self.truth.entry(id).or_insert(valid);
    }

    /// The paper's `validate(tx)`: reveals ground truth, counting the call.
    ///
    /// Unregistered transactions (e.g. forged ones that never existed) are
    /// invalid by definition.
    pub fn validate(&self, id: TxId) -> bool {
        self.validations.set(self.validations.get() + 1);
        self.truth.get(&id).copied().unwrap_or(false)
    }

    /// Ground truth *without* paying/counting a validation (for experiment
    /// scoring only — never for protocol decisions).
    pub fn peek(&self, id: TxId) -> Option<bool> {
        self.truth.get(&id).copied()
    }

    /// Number of `validate` calls so far.
    pub fn validations(&self) -> u64 {
        self.validations.get()
    }

    /// Resets the validation counter (e.g. between measurement phases).
    pub fn reset_validations(&self) {
        self.validations.set(0);
    }

    /// Number of registered transactions.
    pub fn registered(&self) -> usize {
        self.truth.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_crypto::sha256::sha256;

    fn id(tag: &str) -> TxId {
        TxId(sha256(tag.as_bytes()))
    }

    #[test]
    fn register_and_validate() {
        let mut oracle = ValidityOracle::new();
        oracle.register(id("a"), true);
        oracle.register(id("b"), false);
        assert!(oracle.validate(id("a")));
        assert!(!oracle.validate(id("b")));
        assert_eq!(oracle.validations(), 2);
        assert_eq!(oracle.registered(), 2);
    }

    #[test]
    fn unregistered_is_invalid() {
        let oracle = ValidityOracle::new();
        assert!(!oracle.validate(id("ghost")));
        assert_eq!(oracle.peek(id("ghost")), None);
    }

    #[test]
    fn peek_does_not_count() {
        let mut oracle = ValidityOracle::new();
        oracle.register(id("a"), true);
        assert_eq!(oracle.peek(id("a")), Some(true));
        assert_eq!(oracle.validations(), 0);
    }

    #[test]
    fn first_registration_wins() {
        let mut oracle = ValidityOracle::new();
        oracle.register(id("a"), true);
        oracle.register(id("a"), false);
        assert_eq!(oracle.peek(id("a")), Some(true));
    }

    #[test]
    fn counter_reset() {
        let mut oracle = ValidityOracle::new();
        oracle.register(id("a"), true);
        oracle.validate(id("a"));
        oracle.reset_validations();
        assert_eq!(oracle.validations(), 0);
    }
}
