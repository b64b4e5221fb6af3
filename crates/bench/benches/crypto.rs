//! Criterion micro-benchmarks for the from-scratch cryptography: these
//! numbers justify the virtual-time cost constants used by the
//! evaluation's modelled-crypto mode (`EngineConfig::sig_cost_us`).

use at_crypto::{verify_batch, KeyStore, PrecomputedKey, Sha256, Sha512, Signature};
use at_model::ProcessId;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_sha2(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha2");
    let data = vec![0xABu8; 1024];
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("sha256_1k", |b| b.iter(|| Sha256::digest(&data)));
    group.bench_function("sha512_1k", |b| b.iter(|| Sha512::digest(&data)));
    group.finish();
}

fn bench_ed25519(c: &mut Criterion) {
    let keys = KeyStore::deterministic(1, 7);
    let signer = ProcessId::new(0);
    let msg = b"transfer acct0 -> acct1 amount 25 seq 1";
    let sig = keys.keypair(signer).sign(msg);

    let mut group = c.benchmark_group("ed25519");
    group.sample_size(20);
    group.bench_function("sign", |b| b.iter(|| keys.keypair(signer).sign(msg)));
    group.bench_function("verify", |b| {
        b.iter(|| keys.public(signer).verify(msg, &sig).unwrap())
    });

    // The T7 hot-path variants: comb-table singles and a certificate
    // batch (q = 3, the echo quorum at n = 4, verified per share). Table builds happen once, outside the timer,
    // matching how EdAuth::warm() stages them in the live runtime.
    let pre = PrecomputedKey::new(*keys.public(signer));
    group.bench_function("verify_comb", |b| b.iter(|| pre.verify(msg, &sig).unwrap()));

    let q = 3usize;
    let qkeys = KeyStore::deterministic(q, 7);
    let msgs: Vec<&[u8]> = (0..q).map(|_| msg.as_slice()).collect();
    let sigs: Vec<Signature> = (0..q)
        .map(|i| qkeys.keypair(ProcessId::new(i as u32)).sign(msg))
        .collect();
    let pres: Vec<PrecomputedKey> = (0..q)
        .map(|i| PrecomputedKey::new(*qkeys.public(ProcessId::new(i as u32))))
        .collect();
    group.bench_function("verify_batch_q3", |b| {
        b.iter(|| {
            let items: Vec<(&PrecomputedKey, &[u8], &Signature)> =
                (0..q).map(|i| (&pres[i], msgs[i], &sigs[i])).collect();
            verify_batch(&items).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sha2, bench_ed25519);
criterion_main!(benches);
