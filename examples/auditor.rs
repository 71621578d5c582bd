//! The alliance auditor: offline verification of an exported ledger and
//! light-client inclusion checks.
//!
//! ```text
//! cargo run --release --example auditor
//! ```
//!
//! A regulator auditing the alliance (the paper's motivating scenario is
//! that misbehaving members "will be detected and punished afterward")
//! does not participate in the protocol. It receives:
//!
//! 1. a full chain export from any governor — re-verified structurally on
//!    import (hash chain, serials, Merkle roots, size bounds), and
//! 2. for spot checks, only the *headers* plus Merkle proofs from an
//!    untrusted full node.
//!
//! The example runs a deployment with a misreporting driver, exports the
//! ledger, audits it offline, and verifies a disputed transaction's
//! recording with a light client.

#![forbid(unsafe_code)]

use prb::core::behavior::{CollectorProfile, ProviderProfile};
use prb::core::config::ProtocolConfig;
use prb::core::sim::Simulation;
use prb::ledger::chain::Chain;
use prb::ledger::header::HeaderChain;

fn main() -> Result<(), String> {
    // -- Phase 1: the alliance runs normally --------------------------------
    let mut sim = Simulation::builder(ProtocolConfig {
        seed: 404,
        tx_per_provider: 5,
        ..Default::default()
    })
    .collector_profile(2, CollectorProfile::misreporter(0.6))
    .provider_profiles(vec![
        ProviderProfile {
            invalid_rate: 0.3,
            active: true
        };
        8
    ])
    .build()?;
    sim.run(8);
    sim.run_drain_rounds(2);
    let governor_chain = sim.governor(0).chain();
    println!(
        "alliance ran {} rounds; ledger height {} with {} transactions",
        sim.rounds_run(),
        governor_chain.height(),
        governor_chain.tx_count()
    );

    // -- Phase 2: full offline audit from an export -------------------------
    let export = governor_chain.export();
    println!(
        "\nauditor received {} bytes of exported chain",
        export.len()
    );
    let audited = Chain::import(&export).map_err(|e| format!("import failed: {e}"))?;
    assert_eq!(audited.audit(), None);
    println!(
        "import re-verified every link: height {}, head {}…",
        audited.height(),
        &audited.latest().hash().to_hex()[..16]
    );

    // Tampering demonstration: flip one byte, the import fails.
    let mut tampered = export.clone();
    let idx = tampered.len() / 2;
    tampered[idx] ^= 1;
    match Chain::import(&tampered) {
        Err(e) => println!("tampered export rejected: {e}"),
        Ok(_) => panic!("tampered export must not import"),
    }

    // -- Phase 3: light-client spot check ------------------------------------
    // The auditor keeps only headers (~100 bytes/block) ...
    let mut light = HeaderChain::new(b"prb-chain");
    light
        .sync_from(audited.iter())
        .map_err(|e| format!("header sync: {e}"))?;
    println!(
        "\nlight client synced {} headers ({} bytes of export shrunk to headers)",
        light.height(),
        export.len()
    );
    // ... and asks an (untrusted) full node for a proof that a specific
    // transaction was recorded in block 3.
    let block = audited.retrieve(3).expect("block 3 exists");
    let disputed_index = block.tx_count() / 2;
    let proof = block.prove_inclusion(disputed_index).expect("in range");
    let entry = &block.entries[disputed_index];
    let ok = light.verify_inclusion(3, &proof, entry);
    println!(
        "inclusion of tx {} in block 3 (verdict {}): {}",
        entry.tx.id(),
        entry.verdict,
        ok
    );
    assert!(ok);
    // A doctored entry (claiming a different verdict) fails the same proof.
    let mut doctored = entry.clone();
    doctored.verdict = prb::ledger::block::Verdict::ArguedValid;
    assert!(!light.verify_inclusion(3, &proof, &doctored));
    println!("doctored verdict for the same tx: rejected");

    // -- Phase 4: the audit findings -----------------------------------------
    // Reported labels are part of the tamper-evident record, so the
    // auditor can score every driver offline.
    let mut wrong = [0u32; 8];
    let mut total = [0u32; 8];
    let oracle = sim.oracle();
    for block in audited.iter() {
        for entry in &block.entries {
            let Some(truth) = oracle.borrow().peek(entry.tx.id()) else {
                continue;
            };
            for (collector, label) in &entry.reported_labels {
                total[collector.index as usize] += 1;
                if label.is_valid() != truth {
                    wrong[collector.index as usize] += 1;
                }
            }
        }
    }
    println!("\noffline label audit (wrong / reported):");
    for c in 0..8 {
        let marker = if c == 2 {
            "  <- flagged for punishment"
        } else {
            ""
        };
        println!("  c{c}: {:>3} / {:>3}{marker}", wrong[c], total[c]);
    }
    let worst = (0..8)
        .max_by_key(|&c| wrong[c] * 1000 / total[c].max(1))
        .unwrap();
    assert_eq!(worst, 2, "the auditor finds the misreporting collector");
    println!("\naudit complete: member c{worst} detected from the ledger alone.");
    Ok(())
}
