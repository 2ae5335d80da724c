//! E14 — the crypto substrate: primitive throughput and parallel scaling.
//!
//! §V: "Encryption is applied for all IAM workflows." Every credential in
//! the co-design is really signed and verified, so primitive cost bounds
//! the control plane's capacity. Parallel scaling uses crossbeam scoped
//! threads (per the HPC-parallel guides, results are merged per-thread —
//! no shared mutable state).

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use dri_crypto::ed25519::{Point, PreparedVerifyingKey, Scalar, SigningKey};
use dri_crypto::fe25519::Fe;
use dri_crypto::jwt::{self, Claims, Signer, Validation, Verifier};
use dri_crypto::poly1305::poly1305;
use dri_crypto::{aead, base64, chacha20, hmac, sha2, x25519};

fn print_report() {
    println!("== E14: crypto substrate (all RFC-test-vector verified) ==");
    println!("primitives: SHA-256/512, HMAC, HKDF, Ed25519, X25519, ChaCha20, JWT");

    // Parallel signing scaling demo.
    let sk = SigningKey::from_seed(&[7u8; 32]);
    let msgs: Vec<Vec<u8>> = (0..512u32).map(|i| i.to_le_bytes().to_vec()).collect();
    println!("\nparallel Ed25519 signing of 512 messages:");
    println!("{:>8} {:>12} {:>10}", "threads", "wall(ms)", "speedup");
    let mut base_ms = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let start = std::time::Instant::now();
        let chunk = msgs.len().div_ceil(threads);
        crossbeam::thread::scope(|scope| {
            for part in msgs.chunks(chunk) {
                let sk = &sk;
                scope.spawn(move |_| {
                    for m in part {
                        black_box(sk.sign(m));
                    }
                });
            }
        })
        .unwrap();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if threads == 1 {
            base_ms = ms;
        }
        println!("{:>8} {:>12.1} {:>9.1}x", threads, ms, base_ms / ms);
    }
}

fn benches(c: &mut Criterion) {
    // Hashing throughput.
    let mut group = c.benchmark_group("e14/sha256");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| black_box(sha2::sha256(d)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("e14/sha512");
    for size in [64usize, 16 * 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| black_box(sha2::sha512(d)))
        });
    }
    group.finish();

    c.bench_function("e14/hmac_sha256_1k", |b| {
        let data = vec![1u8; 1024];
        b.iter(|| black_box(hmac::hmac_sha256(b"key", &data)))
    });

    // The two primitives under sign and verify: a field inversion (one
    // per compression) and a fixed-base multiplication [s]B.
    let fe = Fe::from_bytes(&[0x5au8; 32]);
    c.bench_function("e14/fe25519_invert", |b| {
        b.iter(|| black_box(black_box(fe).invert()))
    });
    let s = Scalar::from_bytes(&[0xa5u8; 32]);
    c.bench_function("e14/ed25519_mul_base", |b| {
        b.iter(|| black_box(Point::mul_base(black_box(&s))))
    });

    // Signatures.
    let sk = SigningKey::from_seed(&[1u8; 32]);
    let pk = sk.verifying_key();
    let msg = b"a short RBAC token body for signing benchmarks";
    let sig = sk.sign(msg);
    c.bench_function("e14/ed25519_sign", |b| b.iter(|| black_box(sk.sign(msg))));
    c.bench_function("e14/ed25519_verify", |b| {
        b.iter(|| assert!(pk.verify(msg, &sig)))
    });
    // The one-time cost of a per-key table, paid when a key is trusted.
    c.bench_function("e14/ed25519_prepare", |b| {
        b.iter(|| black_box(PreparedVerifyingKey::new(black_box(&pk))))
    });
    let prepared = PreparedVerifyingKey::new(&pk);
    c.bench_function("e14/ed25519_verify_prepared", |b| {
        b.iter(|| assert!(prepared.verify(msg, &sig)))
    });
    c.bench_function("e14/ed25519_from_seed", |b| {
        b.iter(|| black_box(SigningKey::from_seed(black_box(&[2u8; 32]))))
    });

    // Key agreement.
    let alice = x25519::clamp([5u8; 32]);
    let bob_pub = x25519::public_key(&x25519::clamp([6u8; 32]));
    c.bench_function("e14/x25519_shared_secret", |b| {
        b.iter(|| black_box(x25519::shared_secret(&alice, &bob_pub)))
    });

    // Stream cipher.
    let mut group = c.benchmark_group("e14/chacha20");
    for size in [1024usize, 64 * 1024] {
        let data = vec![9u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| black_box(chacha20::encrypt(&[7u8; 32], &[0u8; 12], 0, d)))
        });
    }
    group.finish();

    // The one-time authenticator alone, over a frame-sized message.
    let mut group = c.benchmark_group("e14/poly1305");
    for size in [64usize, 640] {
        let data = vec![3u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| black_box(poly1305(&[5u8; 32], d)))
        });
    }
    group.finish();

    // A tunnel frame: seal and open 600 bytes under 16 bytes of
    // associated data, as story 6 does twice each per flow.
    let mut group = c.benchmark_group("e14/aead_frame");
    let frame = vec![0x42u8; 600];
    let (key, nonce, aad) = ([8u8; 32], [1u8; 12], [2u8; 16]);
    let sealed = aead::seal(&key, &nonce, &aad, &frame);
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("seal_600", |b| {
        b.iter(|| black_box(aead::seal(&key, &nonce, &aad, &frame)))
    });
    group.bench_function("open_600", |b| {
        b.iter(|| black_box(aead::open(&key, &nonce, &aad, &sealed)))
    });
    group.finish();

    // base64url at token sizes: a 255-byte payload is 340 characters.
    let mut group = c.benchmark_group("e14/base64url");
    let payload = vec![0x5au8; 255];
    let encoded = base64::encode_url(&payload);
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("encode_255", |b| {
        b.iter(|| black_box(base64::encode_url(&payload)))
    });
    group.bench_function("decode_340", |b| {
        b.iter(|| black_box(base64::decode_url(&encoded)))
    });
    group.finish();

    // JWT end-to-end.
    let mut claims = Claims::new("iss", "sub", "aud", 1000, 900);
    claims.roles = vec!["researcher".into()];
    claims.token_id = "jti-1".into();
    let token = jwt::sign(&claims, &Signer::Ed25519(&sk), "kid-1");
    c.bench_function("e14/jwt_sign_eddsa", |b| {
        b.iter(|| black_box(jwt::sign(&claims, &Signer::Ed25519(&sk), "kid-1")))
    });
    c.bench_function("e14/jwt_verify_eddsa", |b| {
        let validation = Validation {
            now: 1100,
            ..Default::default()
        };
        b.iter(|| jwt::verify(&token, &Verifier::Ed25519(&pk), &validation).unwrap())
    });
}

fn main() {
    print_report();
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
}
