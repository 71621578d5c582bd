//! VRF fork choice (§3.4): which block the chain head follows.
//!
//! A governor adopts the block of the round's PoS-VRF leader. Under message
//! loss two governors may each elect themselves, so the head carries a
//! *rank*: the election key of the claim behind it, or none once settled.
//! A same-serial rival with a smaller verified key displaces a ranked head;
//! fork evidence no key can rank sheds the unconfirmed head suffix instead,
//! and recovery refetches the chain the network agreed on.
//!
//! ```text
//!   arriving block ──classify──────▶ Duplicate | Refuse | Contest(key) | Extend | Park
//!   sync-page block ─classify_page──▶ Skip { shed } | Adopt
//!   adopted block  ──adopted───────▶ head rank (Own, Proposal, Contest; Page, Parked settle)
//! ```
//!
//! [`ForkChoice`] holds what the decision reads — the head's rank, the base
//! of this governor's provisional self-proposals, its claim and the claim
//! its election authenticated this round, and the blocks parked past a gap —
//! and its functions are pure over a [`Chain`] and their inputs. This file
//! decides; the governor acts (`GovernorNode::adopt`).

use prb_consensus::election::ElectionClaim;
use prb_consensus::stake::StakeTable;
use prb_crypto::identity::NodeId;
use prb_crypto::sha256::Digest;
use prb_crypto::signer::PublicKey;
use prb_ledger::block::Block;
use prb_ledger::chain::{Chain, ChainError};

/// The election ordering key of the proposal behind a head, plus the round
/// it was won in: `(vrf_output, governor, round)`.
pub(crate) type Priority = (Digest, u32, u64);

/// The committee claims are ranked against: each governor's stake (a
/// claimed unit must be owned) and verification key.
pub(crate) struct Electorate<'a>(pub(crate) &'a StakeTable, pub(crate) &'a [PublicKey]);

/// What a peer's block proposal means for the chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// Held already, below the head, or a rival that does not win; `shed`
    /// unconfirmed head blocks go first.
    Duplicate { shed: u64 },
    /// [`malformed`], refused before it can make the node shed a head.
    Refuse(ChainError),
    /// A same-serial rival that beats the head under this key.
    Contest(Priority),
    /// The next serial; `append` decides whether it links.
    Extend,
    /// Past a gap once `shed` unconfirmed head blocks go: park and recover.
    Park { shed: u64 },
}

/// What a block from a peer's sync page means for the chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Paged {
    /// Not the next serial, or fork evidence: `shed` unconfirmed head blocks
    /// go, which leaves the block past the head.
    Skip { shed: u64 },
    /// The next serial; `append` decides whether it links.
    Adopt,
}

/// Where an adopted block came from, which decides the head's rank.
pub(crate) enum Adoption<'a> {
    /// This governor's own proposal; `informed` when the election that made
    /// it leader saw every claim.
    Own { informed: bool },
    /// A peer's direct proposal, with the claim it carried.
    Proposal(Option<&'a ElectionClaim>),
    /// The rival that won a head contest, under its key; it replaces the
    /// head.
    Contest(Priority),
    /// A block from a peer's sync page: from its settled chain.
    Page,
    /// A parked block the chain takes now that a gap closed: settled too.
    Parked,
}

/// The fault `append` is bound to refuse `block` for wherever it lands —
/// more than `b_limit` entries, else a Merkle root that is not its entries'
/// — read from fields. Only the first is the proposer's to answer for: the
/// hash it signs binds the entry count, but the entries only through the
/// root, so anyone relaying an honest header can put others under it.
pub(crate) fn malformed(chain: &Chain, block: &Block) -> Option<ChainError> {
    if block.tx_count() > chain.b_limit() {
        let (got, limit) = (block.tx_count(), chain.b_limit());
        Some(ChainError::BlockTooLarge { got, limit })
    } else if !block.merkle_consistent() {
        let serial = block.serial;
        Some(ChainError::MerkleMismatch { serial })
    } else {
        None
    }
}

/// One governor's fork-choice state.
#[derive(Debug)]
pub(crate) struct ForkChoice {
    /// This governor's index.
    me: u32,
    /// The round the governor is in.
    round: u64,
    /// Rank of the head; `None` for a settled head (genesis, a checkpoint
    /// anchor, a sync-applied or parked block, or one with a committed
    /// successor), which is never displaced.
    head_priority: Option<Priority>,
    /// Serial of the lowest head block that is this governor's own
    /// proposal elected *without* the full claim set: provisional, since
    /// the true winner's claim may have been lost in transit.
    provisional_base: Option<u64>,
    /// This governor's claim for the round (none without stake), attached
    /// to its proposal.
    pub(crate) my_claim: Option<ElectionClaim>,
    /// The claim this round's election elected, with its VRF output, so
    /// [`claim_key`](Self::claim_key) need not verify it again.
    elected: Option<(ElectionClaim, Digest)>,
    /// Blocks that arrived past a gap, one per serial.
    parked: Vec<Block>,
}

impl ForkChoice {
    /// Governor `me`'s fork choice over a settled genesis head.
    pub(crate) fn new(me: u32) -> Self {
        ForkChoice {
            me,
            round: 0,
            head_priority: None,
            provisional_base: None,
            my_claim: None,
            elected: None,
            parked: Vec::new(),
        }
    }

    /// Round `round` began: last round's elected claim answers nothing.
    pub(crate) fn start_round(&mut self, round: u64) {
        self.round = round;
        self.elected = None;
    }

    /// The head's rank; `None` once it is settled.
    #[cfg(test)]
    pub(crate) fn head_priority(&self) -> Option<Priority> {
        self.head_priority
    }

    /// Remembers the claim the round's election elected, with its output.
    pub(crate) fn remember_election(&mut self, winner: Option<(&ElectionClaim, Digest)>) {
        self.elected = winner.map(|(claim, output)| (claim.clone(), output));
    }

    /// Whether the governor withholds its proposal: building on its
    /// unconfirmed provisional one would deepen a potential fork past what
    /// same-serial contests can undo. The streak resolves via a rival's
    /// key, a foreign successor, or recovery.
    pub(crate) fn withholds(&self) -> bool {
        self.provisional_base.is_some()
    }

    /// The election ordering key of `claim`, verified against `round`;
    /// `None` when the claim does not verify, claims a stake unit the
    /// governor does not own, or names an unknown governor. The VRF binds
    /// governor and round, so a stolen or replayed claim fails here.
    ///
    /// A claim equal in every field to the one this round's election
    /// elected is not verified again: verification is a function of
    /// `(round, claim, key)`, so the remembered output is the one
    /// `claim.verify` would return. Anything else — a claim the election
    /// ranked above the winner and never checked, a variant, another round,
    /// a replay — takes the full verification.
    pub(crate) fn claim_key(
        &self,
        claim: &ElectionClaim,
        round: u64,
        Electorate(stakes, pks): &Electorate<'_>,
    ) -> Option<Priority> {
        if claim.unit >= stakes.stake(claim.governor).unwrap_or(0) {
            return None;
        }
        let pk = pks.get(claim.governor as usize)?;
        let elected = self
            .elected
            .as_ref()
            .filter(|(c, _)| round == self.round && c == claim);
        let out = match elected {
            Some((_, out)) => *out,
            None => claim.verify(b"prb-chain", round, pk)?,
        };
        Some((out, claim.governor, round))
    }

    /// The key of a same-serial rival that beats the head: the head must
    /// still be ranked, both must share a parent, and the rival's claim must
    /// be its proposer's, verify against the round the head was won in, and
    /// carry a strictly smaller key.
    pub(crate) fn rival_priority(
        &self,
        chain: &Chain,
        block: &Block,
        claim: Option<&ElectionClaim>,
        e: &Electorate<'_>,
    ) -> Option<Priority> {
        let (head_out, head_gov, head_round) = self.head_priority?;
        let claim = claim?;
        if claim.governor != block.leader.index {
            return None;
        }
        let parent = chain.retrieve(block.serial.checked_sub(1)?)?;
        if parent.hash() != block.prev_hash {
            return None;
        }
        let (out, gov, round) = self.claim_key(claim, head_round, e)?;
        ((out, gov) < (head_out, head_gov)).then_some((out, gov, round))
    }

    /// Classifies a peer's block proposal carrying `claim`. At the head's
    /// serial it is a duplicate or a rival ranked by key, so every governor
    /// converges on the smallest key it saw, as a fully informed election
    /// would. A rival that disagrees deeper than the head, or a successor
    /// on another head, is fork evidence no key ranks: the unconfirmed
    /// suffix is shed, and a block that then lies past a gap parks.
    pub(crate) fn classify(
        &self,
        chain: &Chain,
        block: &Block,
        claim: Option<&ElectionClaim>,
        e: &Electorate<'_>,
    ) -> Arrival {
        let height = chain.height();
        if block.serial < height {
            return Arrival::Duplicate { shed: 0 };
        }
        if let Some(fault) = malformed(chain, block) {
            return Arrival::Refuse(fault);
        }
        let forked = if block.serial == height {
            if chain.head_hash() == block.hash() {
                return Arrival::Duplicate { shed: 0 };
            }
            let parent_match = chain
                .retrieve(block.serial.saturating_sub(1))
                .is_some_and(|p| p.hash() == block.prev_hash);
            if parent_match {
                return match self.rival_priority(chain, block, claim, e) {
                    Some(key) => Arrival::Contest(key),
                    None => Arrival::Duplicate { shed: 0 },
                };
            }
            true
        } else {
            block.serial == height + 1 && block.prev_hash != chain.head_hash()
        };
        let shed = if forked {
            self.unconfirmed_depth(chain)
        } else {
            0
        };
        if block.serial + shed > height + 1 {
            Arrival::Park { shed }
        } else if block.serial == height {
            Arrival::Duplicate { shed }
        } else {
            Arrival::Extend
        }
    }

    /// Classifies a block from a peer's sync page, which comes from the
    /// peer's settled chain: only the next serial is taken. One that does
    /// not link to the head is fork evidence, and the unconfirmed suffix is
    /// shed; the follow-up request, from the lower height, refetches from
    /// the divergence point. With nothing unconfirmed, `append` refuses it.
    pub(crate) fn classify_page(&self, chain: &Chain, block: &Block) -> Paged {
        if block.serial != chain.height() + 1 {
            return Paged::Skip { shed: 0 };
        }
        let shed = if block.prev_hash == chain.head_hash() {
            0
        } else {
            self.unconfirmed_depth(chain)
        };
        if shed == 0 {
            Paged::Adopt
        } else {
            Paged::Skip { shed }
        }
    }

    /// How many head blocks are provisional self-proposals.
    pub(crate) fn provisional_depth(&self, chain: &Chain) -> u64 {
        self.provisional_base
            .map_or(0, |base| (chain.height() + 1).saturating_sub(base))
    }

    /// How many head blocks fork evidence no key can rank sheds: the
    /// provisional ones, then this governor's own-led streak beneath them
    /// (own blocks with no foreign successor are exactly the ones the
    /// network may have bypassed), and only when neither applies a foreign
    /// head still ranked. Settled blocks never count; recovery refetches a
    /// block shed wrongly.
    pub(crate) fn unconfirmed_depth(&self, chain: &Chain) -> u64 {
        let me = NodeId::governor(self.me);
        let mut depth = self.provisional_depth(chain);
        while chain
            .retrieve(chain.height() - depth)
            .is_some_and(|b| b.serial > 0 && b.leader == me)
        {
            depth += 1;
        }
        let poppable = chain.latest_opt().is_some_and(|b| b.serial > 0);
        if depth == 0 && self.head_priority.is_some() && poppable {
            depth = 1;
        }
        depth
    }

    /// The head block was popped, leaving the chain `height` high.
    pub(crate) fn popped(&mut self, height: u64) {
        self.head_priority = None;
        if self.provisional_base.is_some_and(|b| b > height) {
            self.provisional_base = None;
        }
    }

    /// Ranks `head`, just adopted as `how`.
    pub(crate) fn adopted(&mut self, head: &Block, how: Adoption<'_>, e: &Electorate<'_>) {
        let claim = match how {
            Adoption::Own { informed } => {
                if !informed && self.provisional_base.is_none() {
                    self.provisional_base = Some(head.serial);
                }
                self.my_claim.as_ref()
            }
            // A committed successor settles every block beneath it.
            Adoption::Proposal(claim) => {
                self.provisional_base = None;
                claim.filter(|c| c.governor == head.leader.index)
            }
            // The shed head had the same parent, so nothing provisional is
            // left beneath the winner.
            Adoption::Contest(key) => {
                self.provisional_base = None;
                self.head_priority = Some(key);
                return;
            }
            Adoption::Page | Adoption::Parked => {
                self.provisional_base = None;
                None
            }
        };
        self.head_priority = claim.and_then(|c| self.claim_key(c, self.round, e));
    }

    /// The chain was re-anchored at a checkpoint certified at `serial`: the
    /// anchor is settled, and blocks parked at or below it are moot.
    pub(crate) fn anchored(&mut self, serial: u64) {
        self.head_priority = None;
        self.provisional_base = None;
        self.parked.retain(|b| b.serial > serial);
    }

    /// Parks a block that arrived past a gap, unless its serial is parked.
    pub(crate) fn park(&mut self, block: Block) {
        if !self.parked.iter().any(|b| b.serial == block.serial) {
            self.parked.push(block);
        }
    }

    /// The parked block the chain takes next, if any; blocks the chain has
    /// passed meanwhile are dropped.
    pub(crate) fn unpark(&mut self, chain: &Chain) -> Option<Block> {
        let next = chain.height() + 1;
        self.parked.retain(|b| b.serial >= next);
        let i = self.parked.iter().position(|b| b.serial == next)?;
        Some(self.parked.swap_remove(i))
    }

    /// The lowest parked block: the one past the nearest gap.
    pub(crate) fn first_parked(&self) -> Option<&Block> {
        self.parked.iter().min_by_key(|b| b.serial)
    }
}

#[cfg(test)]
mod tests {
    //! Fork choice on a bare chain: election-key ranking of rival
    //! proposals, and the unconfirmed suffix that fork evidence sheds.

    use super::*;
    use prb_consensus::election::elect_excluding;
    use prb_crypto::signer::{CryptoScheme, KeyPair};

    const TAG: &[u8] = b"prb-chain";

    /// Governor 0's fork choice over a genesis chain, in a committee of
    /// `governors` with four stake units each.
    struct Rig {
        keys: Vec<KeyPair>,
        pks: Vec<PublicKey>,
        stakes: StakeTable,
        chain: Chain,
        fork: ForkChoice,
    }

    impl Rig {
        fn new(governors: u32) -> Self {
            Self::under(CryptoScheme::sim(), governors)
        }

        fn under(scheme: CryptoScheme, governors: u32) -> Self {
            let keys: Vec<KeyPair> = (0..governors)
                .map(|g| scheme.keypair_from_seed(format!("fork-g{g}").as_bytes()))
                .collect();
            Rig {
                pks: keys.iter().map(KeyPair::public_key).collect(),
                keys,
                stakes: StakeTable::uniform(governors as usize, 4),
                chain: Chain::new(TAG, 64),
                fork: ForkChoice::new(0),
            }
        }

        fn electorate(&self) -> Electorate<'_> {
            Electorate(&self.stakes, &self.pks)
        }

        fn claim_key(&self, claim: &ElectionClaim, round: u64) -> Option<Priority> {
            self.fork.claim_key(claim, round, &self.electorate())
        }

        fn claim(&self, g: u32, round: u64) -> ElectionClaim {
            let stake = self.stakes.stake(g).unwrap();
            ElectionClaim::compute(TAG, round, g, stake, &self.keys[g as usize]).unwrap()
        }

        /// Appends an empty block led by `leader`.
        fn push(&mut self, leader: u32, timestamp: u64) {
            let block = Block::build(
                self.chain.next_serial(),
                Vec::new(),
                self.chain.head_hash(),
                NodeId::governor(leader),
                timestamp,
            );
            self.chain.append(block).unwrap();
        }

        /// Sheds the unconfirmed suffix as the governor does, returning how
        /// many blocks went.
        fn shed_unconfirmed(&mut self) -> u64 {
            let depth = self.fork.unconfirmed_depth(&self.chain);
            for _ in 0..depth {
                self.chain.pop().unwrap();
                self.fork.popped(self.chain.height());
            }
            depth
        }
    }

    #[test]
    fn claim_key_enforces_stake_round_and_proof() {
        let rig = Rig::new(2);
        let claim = rig.claim(1, 3);
        assert!(rig.claim_key(&claim, 3).is_some());
        // The VRF proof binds the round it was computed for.
        assert!(rig.claim_key(&claim, 4).is_none());
        // A unit at or past the governor's stake mints no lottery ticket.
        let mut over = claim.clone();
        over.unit = rig.stakes.stake(1).unwrap();
        assert!(rig.claim_key(&over, 3).is_none());
        // A claim evaluated under a foreign key fails verification.
        let stake = rig.stakes.stake(1).unwrap();
        let forged = ElectionClaim::compute(TAG, 3, 1, stake, &rig.keys[0]).unwrap();
        assert!(rig.claim_key(&forged, 3).is_none());
    }

    #[test]
    fn claim_key_answers_from_the_election_batch_only_for_the_same_claim_and_round() {
        // Schnorr, so a claim carries a proof that can differ on its own.
        let scheme = CryptoScheme::schnorr_test_256();
        let mut rig = Rig::under(scheme.clone(), 3);
        let cold = Rig::under(scheme, 3);
        let round = 0;
        let claims: Vec<ElectionClaim> = (0..3).map(|g| rig.claim(g, round)).collect();
        let tally = elect_excluding(
            TAG,
            round,
            &claims,
            rig.stakes.stakes(),
            &rig.pks,
            &[],
            None,
        );
        let (w, output) = tally.winner.unwrap();
        rig.fork.remember_election(Some((&claims[w], output)));
        // Every claim gets the key a governor that never ran the election
        // works out from the proof.
        for claim in &claims {
            let key = rig.claim_key(claim, round);
            assert!(key.is_some());
            assert_eq!(key, cold.claim_key(claim, round));
        }
        // Mark the remembered output to see which calls consult it: the
        // winner's, and only the winner's.
        let marked = Digest::default();
        rig.fork.elected.as_mut().unwrap().1 = marked;
        let genuine = claims[w].clone();
        let g = genuine.governor;
        assert_eq!(rig.claim_key(&genuine, round), Some((marked, g, round)));
        for loser in claims.iter().filter(|c| c.governor != g) {
            assert_eq!(rig.claim_key(loser, round), cold.claim_key(loser, round));
        }
        // One field off, and the claim takes the full verification: the
        // verdict is the cold governor's, never the marked output.
        let stake = rig.stakes.stake(g).unwrap();
        let other_governor = ElectionClaim {
            governor: (g + 1) % 3,
            ..genuine.clone()
        };
        let other_unit = ElectionClaim {
            unit: (genuine.unit + 1) % stake,
            ..genuine.clone()
        };
        let other_proof = ElectionClaim {
            evaluation: rig.claim(g, round + 1).evaluation,
            ..genuine.clone()
        };
        for variant in [&other_governor, &other_unit, &other_proof] {
            assert_eq!(rig.claim_key(variant, round), None);
            assert_eq!(cold.claim_key(variant, round), None);
        }
        // Another round: the genuine claim is verified against that round,
        // as before, and fails there.
        assert_eq!(rig.claim_key(&genuine, round + 1), None);
        let next = rig.claim(g, round + 1);
        assert_eq!(
            rig.claim_key(&next, round + 1),
            cold.claim_key(&next, round + 1)
        );
        assert!(rig.claim_key(&next, round + 1).is_some());
        // Structural checks come first even on a hit: no stake, no key.
        rig.stakes.slash(g);
        assert_eq!(rig.claim_key(&genuine, round), None);
        // A new round forgets the winner.
        rig.fork.start_round(round + 1);
        assert!(rig.fork.elected.is_none());
    }

    #[test]
    fn rival_priority_contests_only_smaller_keys_on_contestable_heads() {
        let mut rig = Rig::new(2);
        let round = 1;
        let claim0 = rig.claim(0, round);
        let claim1 = rig.claim(1, round);
        let key0 = rig.claim_key(&claim0, round).unwrap();
        let key1 = rig.claim_key(&claim1, round).unwrap();
        assert_ne!(key0, key1);
        let parent = rig.chain.head_hash();
        rig.push(0, 10);
        // Orient by the actual VRF ordering so both directions are covered.
        let (small_key, small_claim, small_gov, big_key, big_claim, big_gov) = if key0 < key1 {
            (key0, claim0, 0, key1, claim1, 1)
        } else {
            (key1, claim1, 1, key0, claim0, 0)
        };
        let small_block = Block::build(1, Vec::new(), parent, NodeId::governor(small_gov), 11);
        let big_block = Block::build(1, Vec::new(), parent, NodeId::governor(big_gov), 11);
        let rival = |rig: &Rig, block: &Block, claim: &ElectionClaim| {
            let e = rig.electorate();
            rig.fork.rival_priority(&rig.chain, block, Some(claim), &e)
        };
        // A head held under the larger key loses to the smaller rival...
        rig.fork.head_priority = Some(big_key);
        assert_eq!(rival(&rig, &small_block, &small_claim), Some(small_key));
        // ...but a head already under the smaller key beats the larger rival.
        rig.fork.head_priority = Some(small_key);
        assert!(rival(&rig, &big_block, &big_claim).is_none());
        // A settled head (priority None) is never contested.
        rig.fork.head_priority = None;
        assert!(rival(&rig, &small_block, &small_claim).is_none());
        // A claim by anyone but the block's leader is ignored.
        rig.fork.head_priority = Some(big_key);
        assert!(rival(&rig, &small_block, &big_claim).is_none());
        // A rival built on a different parent cannot be ranked.
        let off_parent = Block::from_parts(
            1,
            Vec::new(),
            Digest::default(),
            small_block.merkle_root,
            small_block.leader,
            small_block.timestamp,
        );
        assert!(rival(&rig, &off_parent, &small_claim).is_none());
        // And what ranks, classifies as a contest.
        let e = rig.electorate();
        assert_eq!(
            rig.fork
                .classify(&rig.chain, &small_block, Some(&small_claim), &e),
            Arrival::Contest(small_key)
        );
    }

    #[test]
    fn rollback_unconfirmed_sheds_provisional_and_own_led_suffix() {
        let mut rig = Rig::new(2);
        // serial 1: foreign block; serials 2-3: own-led, 3 provisional.
        rig.push(1, 5);
        rig.push(0, 6);
        rig.push(0, 7);
        rig.fork.provisional_base = Some(3);
        assert!(rig.fork.withholds());
        assert_eq!(rig.fork.provisional_depth(&rig.chain), 1);
        // The provisional head and the own-led block under it are shed; the
        // foreign block survives as the new head.
        assert_eq!(rig.shed_unconfirmed(), 2);
        assert_eq!(rig.chain.height(), 1);
        assert!(rig.fork.provisional_base.is_none());
    }

    #[test]
    fn rollback_unconfirmed_pops_one_contestable_foreign_head() {
        let mut rig = Rig::new(2);
        rig.push(1, 5);
        // A settled foreign head is left alone: no fork evidence applies.
        assert_eq!(rig.shed_unconfirmed(), 0);
        assert_eq!(rig.chain.height(), 1);
        // A contestable foreign head (priority still tracked) is popped so
        // recovery can refetch whichever proposal the network agreed on.
        let claim = rig.claim(1, 1);
        rig.fork.head_priority = rig.claim_key(&claim, 1);
        assert!(rig.fork.head_priority.is_some());
        assert_eq!(rig.shed_unconfirmed(), 1);
        assert_eq!(rig.chain.height(), 0);
        // Genesis is never counted, ranked or not.
        rig.fork.head_priority = rig.claim_key(&claim, 1);
        assert_eq!(rig.fork.unconfirmed_depth(&rig.chain), 0);
    }

    /// Fork evidence sheds the unconfirmed suffix, and the block parks when
    /// that leaves it past a gap; a block already past one parks as it is.
    #[test]
    fn fork_evidence_parks_the_block_only_past_a_gap() {
        let mut rig = Rig::new(2);
        rig.push(1, 5);
        rig.push(0, 6);
        rig.push(0, 7);
        let e = rig.electorate();
        let block = |serial, prev| Block::build(serial, Vec::new(), prev, NodeId::governor(1), 9);
        let elsewhere = Digest::default();
        // A successor on another head: two own-led blocks go, the block is
        // then two past the new head.
        let successor = block(4, elsewhere);
        assert_eq!(
            rig.fork.classify(&rig.chain, &successor, None, &e),
            Arrival::Park { shed: 2 }
        );
        // A rival at the head on another parent: it parks once at least two
        // blocks go, and is a duplicate otherwise.
        let rival = block(3, elsewhere);
        assert_eq!(
            rig.fork.classify(&rig.chain, &rival, None, &e),
            Arrival::Park { shed: 2 }
        );
        assert_eq!(
            rig.fork
                .classify(&rig.chain, &block(5, elsewhere), None, &e),
            Arrival::Park { shed: 0 }
        );
        assert_eq!(
            rig.fork
                .classify(&rig.chain, &block(2, elsewhere), None, &e),
            Arrival::Duplicate { shed: 0 }
        );
        let next = block(4, rig.chain.head_hash());
        assert_eq!(
            rig.fork.classify(&rig.chain, &next, None, &e),
            Arrival::Extend
        );
        // A settled foreign head sheds nothing: the rival is a duplicate and
        // the mislinked successor is left for `append` to refuse.
        let mut settled = Rig::new(2);
        settled.push(1, 5);
        let e = settled.electorate();
        assert_eq!(
            settled
                .fork
                .classify(&settled.chain, &block(1, elsewhere), None, &e),
            Arrival::Duplicate { shed: 0 }
        );
        assert_eq!(
            settled
                .fork
                .classify(&settled.chain, &block(2, elsewhere), None, &e),
            Arrival::Extend
        );
    }

    #[test]
    fn a_page_block_is_taken_at_the_next_serial_and_fork_evidence_sheds() {
        let mut rig = Rig::new(2);
        rig.push(1, 5);
        rig.push(0, 6);
        rig.push(0, 7);
        let block = |serial, prev| Block::build(serial, Vec::new(), prev, NodeId::governor(1), 9);
        let elsewhere = Digest::default();
        let head = rig.chain.head_hash();
        // Held already, or past a gap: skipped, nothing shed.
        for serial in [2, 3, 5] {
            assert_eq!(
                rig.fork.classify_page(&rig.chain, &block(serial, head)),
                Paged::Skip { shed: 0 }
            );
        }
        assert_eq!(
            rig.fork.classify_page(&rig.chain, &block(4, head)),
            Paged::Adopt
        );
        // The next serial on another head: the own-led suffix goes, which
        // leaves the block two past the new head.
        let forked = block(4, elsewhere);
        assert_eq!(
            rig.fork.classify_page(&rig.chain, &forked),
            Paged::Skip { shed: 2 }
        );
        assert_eq!(rig.shed_unconfirmed(), 2);
        assert_eq!(
            rig.fork.classify_page(&rig.chain, &forked),
            Paged::Skip { shed: 0 }
        );
        // Nothing unconfirmed to shed: taken, for `append` to refuse.
        assert_eq!(
            rig.fork.classify_page(&rig.chain, &block(2, elsewhere)),
            Paged::Adopt
        );
    }

    #[test]
    fn parked_blocks_come_out_in_serial_order_once_they_fit() {
        let mut rig = Rig::new(2);
        let later = |serial| {
            Block::build(
                serial,
                Vec::new(),
                Digest::default(),
                NodeId::governor(1),
                9,
            )
        };
        rig.fork.park(later(3));
        rig.fork.park(later(2));
        rig.fork.park(later(2));
        assert_eq!(rig.fork.parked.len(), 2, "one per serial");
        assert_eq!(rig.fork.first_parked().map(|b| b.serial), Some(2));
        assert!(rig.fork.unpark(&rig.chain).is_none(), "serial 1 is missing");
        rig.push(1, 5);
        assert_eq!(rig.fork.unpark(&rig.chain).map(|b| b.serial), Some(2));
        rig.push(1, 6);
        rig.push(1, 7);
        // Serial 3 is now held: its parked twin is dropped.
        assert!(rig.fork.unpark(&rig.chain).is_none());
        assert!(rig.fork.parked.is_empty());
        rig.fork.park(later(9));
        rig.fork.anchored(9);
        assert!(rig.fork.parked.is_empty());
    }
}
