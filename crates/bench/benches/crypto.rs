//! Criterion micro-benchmarks for the cryptographic substrate.
//!
//! Quantifies the cost gap motivating the `SimSigner` substitution
//! (DESIGN.md substitution 3): hash vs Schnorr vs group size.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use prb_crypto::bigint::{self, jacobi, BigUint, CombTable, Montgomery};
use prb_crypto::group::SchnorrGroup;
use prb_crypto::merkle::MerkleTree;
use prb_crypto::schnorr::SigningKey;
use prb_crypto::sha256::{kernel, sha256_on_kernel};
use prb_crypto::signer::CryptoScheme;
use prb_crypto::vrf::VrfKeyPair;

fn bench_sha256(c: &mut Criterion) {
    // The sizes the protocol hashes: a digest-sized field, a Merkle node
    // (0x01 + two digests), a sim tag (two blocks), and bulk input where
    // per-call overhead vanishes. Each on every kernel this CPU can run;
    // `sha256_on_kernel` drives the same streaming code as `sha256`.
    let mut group = c.benchmark_group("sha256");
    println!("sha256: detected kernel = {}", kernel());
    for name in ["portable", "sha-ni"] {
        if sha256_on_kernel(name, &[]).is_none() {
            println!("sha256/{name}: skipped, this CPU cannot run it");
            continue;
        }
        for size in [32usize, 65, 95, 1024, 1 << 20] {
            let data = vec![0xabu8; size];
            group.throughput(Throughput::Bytes(size as u64));
            group.bench_function(format!("{name}/{size}"), |b| {
                b.iter(|| sha256_on_kernel(name, &[std::hint::black_box(&data)]))
            });
        }
    }
    group.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let mut group = c.benchmark_group("sign-verify");
    let msg = b"a labeled transaction upload";
    for scheme in [
        CryptoScheme::sim(),
        CryptoScheme::schnorr_test_256(),
        CryptoScheme::schnorr_test_512(),
    ] {
        let kp = scheme.keypair_from_seed(b"bench");
        let pk = kp.public_key();
        let sig = kp.sign(msg);
        group.bench_function(format!("sign/{}", scheme.name()), |b| {
            b.iter(|| kp.sign(std::hint::black_box(msg)))
        });
        group.bench_function(format!("verify/{}", scheme.name()), |b| {
            b.iter(|| pk.verify(std::hint::black_box(msg), &sig))
        });
    }
    group.finish();
}

fn bench_schnorr_2048(c: &mut Criterion) {
    // Kept separate (and small) — this is the slow secure parameter set.
    let mut group = c.benchmark_group("schnorr-2048");
    group.sample_size(10);
    let sk = SigningKey::from_seed(&SchnorrGroup::rfc3526_2048(), b"bench-2048");
    let msg = b"secure parameter set";
    let sig = sk.sign(msg);
    group.bench_function("sign", |b| b.iter(|| sk.sign(std::hint::black_box(msg))));
    group.bench_function("verify", |b| {
        b.iter(|| sk.verifying_key().verify(std::hint::black_box(msg), &sig))
    });
    // A key's first check, before its comb table trains: a fresh key
    // for each one (clones would share the table), derived outside the
    // timed routine.
    group.bench_function("verify_cold", |b| {
        b.iter_batched(
            || SigningKey::from_seed(sk.group(), b"bench-2048"),
            |fresh| {
                fresh
                    .verifying_key()
                    .verify(std::hint::black_box(msg), &sig)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_kernel_2048(c: &mut Criterion) {
    // The big-integer kernel at the width `closed-crypto` runs it, on each
    // Montgomery kernel this CPU can run (`<name>/portable`,
    // `<name>/ifma52`): one full-width exponentiation, one 4-base Straus
    // product with batch-sized (320-bit) exponents, a response-width
    // (769-bit) comb power with every bit set (24 squarings and 97
    // multiplications), a VRF evaluation's two 512-bit powers over one
    // chain, and squaring in isolation: 2^2047 costs 2044 squarings after
    // the 14-product table and one multiplication.
    // Plus one subgroup-membership test, which uses no kernel: the
    // word-level Jacobi symbol and the binary one it falls back on.
    let mut group = c.benchmark_group("kernel-2048");
    group.sample_size(10);
    let g = SchnorrGroup::rfc3526_2048();
    let element = |seed: &[u8]| g.hash_to_group("bench", seed);
    let base = element(b"base");
    let bases: Vec<BigUint> = (0..4u8).map(|i| element(&[i])).collect();
    let exps: Vec<BigUint> = (0..4u8).map(|i| element(&[i, i]).shr(2048 - 320)).collect();
    let pairs: Vec<(&BigUint, &BigUint)> = bases.iter().zip(&exps).collect();
    let all_ones = BigUint::one().shl(769).sub(&BigUint::one());
    let (x, k) = (exps[0].shr(320 - 256), exps[1].shr(320 - 256));
    let (x, k) = (x.mul(&x), k.mul(&k));
    let top_bit = BigUint::one().shl(2047);
    println!("kernel-2048: detected kernel = {}", bigint::kernel());
    for name in ["portable", "ifma52"] {
        let Some(ctx) = Montgomery::on_kernel(g.p(), name) else {
            println!("kernel-2048/{name}: skipped, this CPU cannot run it");
            continue;
        };
        group.bench_function(format!("modexp_2048/{name}"), |b| {
            b.iter(|| ctx.pow(std::hint::black_box(&base), g.q()))
        });
        group.bench_function(format!("multi_pow_2048x4/{name}"), |b| {
            b.iter(|| ctx.multi_pow(std::hint::black_box(&pairs)))
        });
        let table = CombTable::build(&ctx, &base, &[(769, 4)]);
        group.bench_function(format!("comb_769/{name}"), |b| {
            b.iter(|| table.pow(&ctx, std::hint::black_box(&all_ones)))
        });
        group.bench_function(format!("pow_pair_512/{name}"), |b| {
            b.iter(|| ctx.pow_pair(std::hint::black_box(&base), &x, &k))
        });
        group.bench_function(format!("mont_sqr_x2044/{name}"), |b| {
            b.iter(|| ctx.pow(std::hint::black_box(&base), &top_bit))
        });
    }
    group.bench_function("jacobi_2048", |b| {
        b.iter(|| jacobi(std::hint::black_box(&base), g.p()))
    });
    group.bench_function("jacobi_2048/binary", |b| {
        b.iter(|| bigint::jacobi_binary(std::hint::black_box(&base), g.p()))
    });
    group.finish();
}

fn bench_vrf(c: &mut Criterion) {
    let mut group = c.benchmark_group("vrf");
    let kp = VrfKeyPair::from_seed(&SchnorrGroup::test_256(), b"vrf-bench");
    let (_, proof) = kp.evaluate(b"round-1");
    group.bench_function("evaluate/test-256", |b| {
        b.iter(|| kp.evaluate(std::hint::black_box(b"round-1")))
    });
    group.bench_function("verify/test-256", |b| {
        b.iter(|| proof.verify(kp.public_key(), std::hint::black_box(b"round-1")))
    });
    group.finish();
}

fn bench_vrf_2048(c: &mut Criterion) {
    // One governor's election work per round at the secure parameter set:
    // evaluate its own claim and verify the winner's.
    let mut group = c.benchmark_group("vrf-2048");
    group.sample_size(10);
    let g = SchnorrGroup::rfc3526_2048();
    let kp = VrfKeyPair::from_seed(&g, &[0]);
    let msg = b"round-1";
    let (_, proof) = kp.evaluate(msg);
    group.bench_function("evaluate", |b| {
        b.iter(|| kp.evaluate(std::hint::black_box(msg)))
    });
    group.bench_function("verify", |b| {
        b.iter(|| proof.verify(kp.public_key(), std::hint::black_box(msg)))
    });
    group.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let mut group = c.benchmark_group("merkle");
    for leaves in [64usize, 1024] {
        let data: Vec<Vec<u8>> = (0..leaves)
            .map(|i| format!("leaf-{i}").into_bytes())
            .collect();
        group.bench_function(format!("build/{leaves}"), |b| {
            b.iter(|| MerkleTree::from_leaves(std::hint::black_box(&data)))
        });
        let tree = MerkleTree::from_leaves(&data);
        let proof = tree.prove(leaves / 2).expect("in range");
        let root = tree.root();
        let target = &data[leaves / 2];
        group.bench_function(format!("verify-proof/{leaves}"), |b| {
            b.iter(|| proof.verify(&root, std::hint::black_box(target)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_signatures,
    bench_schnorr_2048,
    bench_kernel_2048,
    bench_vrf,
    bench_vrf_2048,
    bench_merkle
);
criterion_main!(benches);
