//! Manual timing probe for the verification paths (not a correctness
//! test): run with
//! `cargo test --release -p at-crypto --test timing -- --ignored --nocapture`.

use at_crypto::{verify_batch, KeyStore, PrecomputedKey, Signature};
use at_model::ProcessId;
use std::time::Instant;

#[test]
#[ignore = "manual timing probe, run with --ignored --nocapture"]
fn verify_path_timings() {
    let n = 8usize;
    let keys = KeyStore::deterministic(n, 7);
    let pid = |i: usize| ProcessId::new(i as u32);
    let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 64]).collect();
    let sigs: Vec<Signature> = (0..n)
        .map(|i| keys.keypair(pid(i)).sign(&msgs[i]))
        .collect();
    let pre: Vec<PrecomputedKey> = (0..n)
        .map(|i| PrecomputedKey::new(*keys.public(pid(i))))
        .collect();

    let iters = 200u32;

    let t = Instant::now();
    for _ in 0..iters {
        keys.public(pid(0)).verify(&msgs[0], &sigs[0]).unwrap();
    }
    let generic = t.elapsed() / iters;

    let t = Instant::now();
    for _ in 0..iters {
        pre[0].verify(&msgs[0], &sigs[0]).unwrap();
    }
    let comb = t.elapsed() / iters;

    println!("generic PublicKey::verify: {generic:?}");
    println!("comb PrecomputedKey::verify: {comb:?}");

    for q in [3usize, 8] {
        let items: Vec<(&PrecomputedKey, &[u8], &Signature)> = (0..q)
            .map(|i| (&pre[i], msgs[i].as_slice(), &sigs[i]))
            .collect();
        let t = Instant::now();
        for _ in 0..iters {
            verify_batch(&items).unwrap();
        }
        let batch = t.elapsed() / iters;
        println!(
            "batch q={q}: total {:?}  amortized {:?}",
            batch,
            batch / q as u32
        );
    }
}

/// Mean wall-clock time of one call of `f` over `iters` calls.
fn time_per_call<T>(iters: u32, mut f: impl FnMut() -> T) -> std::time::Duration {
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    t.elapsed() / iters
}

#[test]
#[ignore = "manual timing probe, run with --ignored --nocapture"]
fn primitive_timings() {
    use at_crypto::bigint::U256;
    use at_crypto::edwards::EdwardsPoint;
    use at_crypto::field::FieldElement;
    use at_crypto::Sha512;
    let p = EdwardsPoint::basepoint().double();
    let k = U256::from_le_bytes(&[0xA7; 32]);
    let fe = FieldElement::from_le_bytes(&[0x5C; 32]);
    let keys = KeyStore::deterministic(1, 7);
    let keypair = keys.keypair(ProcessId::new(0));
    let pre = PrecomputedKey::new(*keypair.public());
    let msg = [0x42u8; 64];
    let sig = keypair.sign(&msg);
    let iters = 500u32;

    let mut acc = p;
    let add = time_per_call(iters, || {
        acc = acc.add(p);
        acc
    });
    let double = time_per_call(iters, || {
        acc = acc.double();
        acc
    });
    let mut x = fe;
    let field_mul = time_per_call(iters * 100, || {
        x = x.mul(fe);
        x
    });
    let field_square = time_per_call(iters * 100, || {
        x = x.square();
        x
    });
    let invert = time_per_call(iters, || fe.invert());
    let mul_base = time_per_call(iters, || EdwardsPoint::mul_base(k));
    let generic_mul = time_per_call(iters, || p.mul(k));
    let c = p.compress();
    let decompress = time_per_call(iters, || EdwardsPoint::decompress(&c).unwrap());
    let sign = time_per_call(iters, || keypair.sign(&msg));
    let comb_verify = time_per_call(iters, || pre.verify(&msg, &sig).unwrap());
    let sha = time_per_call(iters, || Sha512::digest(&[0u8; 64]));

    println!("field mul: {field_mul:?}");
    println!("field square: {field_square:?}");
    println!("field invert: {invert:?}");
    println!("point add: {add:?}");
    println!("point double: {double:?}");
    println!("mul_base (comb): {mul_base:?}");
    println!("generic mul: {generic_mul:?}");
    println!("decompress: {decompress:?}");
    println!("sign: {sign:?}");
    println!("comb verify: {comb_verify:?}");
    println!("sha512(64B): {sha:?}");
}
