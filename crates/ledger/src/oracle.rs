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

use crate::transaction::TxId;
use crate::txindex::TxIndex;

/// Ground truth and cost accounting for transaction validation.
#[derive(Default)]
pub struct ValidityOracle {
    /// Every registered id and its truth bit, in registration order.
    truth: Vec<(TxId, bool)>,
    /// Positions in `truth`, keyed by four bytes of the id; a hit is
    /// confirmed against the id at its position.
    index: TxIndex<u32>,
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
        let next = u32::try_from(self.truth.len()).expect("fewer than 2^32 transactions");
        let truth = &self.truth;
        let (_, new) = self
            .index
            .get_or_insert(id, next, |at| truth[at as usize].0);
        if new {
            self.truth.push((id, valid));
        }
    }

    /// The paper's `validate(tx)`: reveals ground truth, counting the call.
    ///
    /// Unregistered transactions (e.g. forged ones that never existed) are
    /// invalid by definition.
    pub fn validate(&self, id: TxId) -> bool {
        self.validations.set(self.validations.get() + 1);
        self.peek(id).unwrap_or(false)
    }

    /// Ground truth *without* paying/counting a validation (for experiment
    /// scoring only — never for protocol decisions).
    pub fn peek(&self, id: TxId) -> Option<bool> {
        let at = self.index.get(&id, |at| self.truth[at as usize].0)?;
        Some(self.truth[at as usize].1)
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

    /// An id whose first four bytes are `key`, the rest drawn from `tail`.
    fn keyed(key: u32, tail: u64) -> TxId {
        let mut bytes = [0u8; 32];
        bytes[..4].copy_from_slice(&key.to_le_bytes());
        bytes[4..12].copy_from_slice(&tail.to_le_bytes());
        TxId(prb_crypto::sha256::Digest(bytes))
    }

    #[test]
    fn lockstep_with_an_exact_map() {
        use std::collections::HashMap;
        // 40 ids over 3 four-byte keys: every key is shared many times.
        let pool: Vec<TxId> = (0..40u64).map(|n| keyed((n % 3) as u32, n)).collect();
        let mut oracle = ValidityOracle::new();
        let mut exact: HashMap<TxId, bool> = HashMap::new();
        let mut draw = 0x2545_f491_4f6c_dd1du64;
        let mut validated = 0;
        for step in 0..4_000 {
            // xorshift64: the test's own seeded draws.
            draw ^= draw << 13;
            draw ^= draw >> 7;
            draw ^= draw << 17;
            let id = pool[(draw >> 8) as usize % pool.len()];
            match draw % 4 {
                0 => {
                    let valid = draw & 0x10 != 0;
                    oracle.register(id, valid);
                    exact.entry(id).or_insert(valid);
                }
                1 => {
                    validated += 1;
                    let want = exact.get(&id).copied().unwrap_or(false);
                    assert_eq!(oracle.validate(id), want, "validate, step {step}");
                }
                _ => assert_eq!(
                    oracle.peek(id),
                    exact.get(&id).copied(),
                    "peek, step {step}"
                ),
            }
            assert_eq!(oracle.registered(), exact.len(), "registered, step {step}");
        }
        assert_eq!(oracle.validations(), validated, "only validate counts");
        assert_eq!(exact.len(), pool.len(), "every id was registered");
        for id in &pool {
            assert_eq!(oracle.peek(*id), exact.get(id).copied());
        }
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
