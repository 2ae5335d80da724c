//! Property-based tests over the core data structures and invariants.

use isambard_dri::crypto::{base64, ed25519, hex, json, sha2};
use isambard_dri::sshca::SshCertificate;
use isambard_dri::trace::{SpanId, TraceCtx, TraceId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- codecs ---------------------------------------------------------

    #[test]
    fn base64_url_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let encoded = base64::encode_url(&data);
        prop_assert_eq!(base64::decode_url(&encoded).unwrap(), data);
    }

    #[test]
    fn base64_std_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let encoded = base64::encode(&data, base64::Variant::Standard);
        prop_assert_eq!(base64::decode(&encoded, base64::Variant::Standard).unwrap(), data);
    }

    #[test]
    fn hex_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data);
    }

    #[test]
    fn json_string_roundtrip(s in "\\PC{0,64}") {
        let v = json::Value::Str(s.clone());
        let parsed = json::Value::parse(&v.to_json()).unwrap();
        prop_assert_eq!(parsed, json::Value::Str(s));
    }

    #[test]
    fn json_nested_roundtrip(
        keys in proptest::collection::vec("[a-z]{1,8}", 1..6),
        nums in proptest::collection::vec(-1_000_000i64..1_000_000, 1..6),
    ) {
        let mut obj = json::Value::Obj(Default::default());
        for (k, n) in keys.iter().zip(nums.iter()) {
            obj.set(k.clone(), json::Value::i(*n));
        }
        let parsed = json::Value::parse(&obj.to_json()).unwrap();
        prop_assert_eq!(parsed, obj);
    }

    // --- hashing --------------------------------------------------------

    #[test]
    fn sha256_streaming_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        split in 0usize..512,
    ) {
        let split = split.min(data.len());
        let mut h = sha2::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha2::sha256(&data));
    }

    // --- signatures -----------------------------------------------------

    #[test]
    fn ed25519_sign_verify(seed in any::<[u8; 32]>(), msg in proptest::collection::vec(any::<u8>(), 0..128)) {
        let sk = ed25519::SigningKey::from_seed(&seed);
        let sig = sk.sign(&msg);
        prop_assert!(sk.verifying_key().verify(&msg, &sig));
    }

    #[test]
    fn ed25519_rejects_bitflips(
        seed in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 1..64),
        flip_byte in 0usize..64,
        flip_bit in 0u8..8,
    ) {
        let sk = ed25519::SigningKey::from_seed(&seed);
        let mut sig = sk.sign(&msg);
        sig[flip_byte] ^= 1 << flip_bit;
        prop_assert!(!sk.verifying_key().verify(&msg, &sig));
    }

    #[test]
    fn scalar_mul_commutes(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let sa = ed25519::Scalar::from_bytes(&a);
        let sb = ed25519::Scalar::from_bytes(&b);
        prop_assert_eq!(sa.mul(sb), sb.mul(sa));
        prop_assert_eq!(sa.add(sb), sb.add(sa));
    }

    // --- SSH certificates -------------------------------------------------

    #[test]
    fn cert_wire_roundtrip(
        seed in any::<[u8; 32]>(),
        serial in any::<u64>(),
        key_id in "[a-z0-9-]{1,24}",
        principals in proptest::collection::vec("[a-z0-9]{4,12}", 0..5),
        start in 0u64..1_000_000,
        ttl in 1u64..1_000_000,
    ) {
        let ca = ed25519::SigningKey::from_seed(&seed);
        let cert = SshCertificate {
            public_key: [7u8; 32],
            serial,
            key_id: key_id.clone(),
            principals: principals.clone(),
            valid_after: start,
            valid_before: start + ttl,
            critical_options: vec![],
            extensions: vec!["permit-pty".into()],
            signature: [0u8; 64],
        }.signed(&ca);
        let parsed = SshCertificate::from_wire(&cert.to_wire()).unwrap();
        prop_assert_eq!(&parsed, &cert);
        // Verification succeeds inside the window, fails outside.
        prop_assert!(parsed.verify(&ca.verifying_key(), start, None).is_ok());
        prop_assert!(parsed.verify(&ca.verifying_key(), start + ttl, None).is_err());
        // Unlisted principals always rejected.
        prop_assert!(parsed.verify(&ca.verifying_key(), start, Some("not-a-principal")).is_err());
    }

    // --- traceparent (untrusted request header) ---------------------------

    #[test]
    fn traceparent_parsers_never_panic(
        printable in "\\PC{0,80}",
        near in "00-[0-9a-f]{31,33}-[0-9a-fA-F]{15,17}-[0-9a-fz]{2}",
        bytes in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        let lossy = String::from_utf8_lossy(&bytes).into_owned();
        for input in [&printable, &near, &lossy] {
            let _ = TraceId::from_hex(input);
            let _ = TraceId::from_hex(input.get(3..35).unwrap_or(""));
            if let Some(ctx) = TraceCtx::parse(input) {
                // Only the canonical form parses: 55 bytes, lowercase, and
                // identical to the rendering up to the flags.
                prop_assert_eq!(input.len(), 55);
                prop_assert_eq!(&input[..53], &ctx.traceparent()[..53]);
                prop_assert!(!input.bytes().any(|b| b.is_ascii_uppercase()));
            }
        }
    }

    #[test]
    fn traceparent_round_trips(trace in any::<[u8; 16]>(), span in any::<[u8; 8]>()) {
        let ctx = TraceCtx { trace_id: TraceId(trace), span_id: SpanId(span) };
        let valid = trace != [0; 16] && span != [0; 8];
        prop_assert_eq!(TraceCtx::parse(&ctx.traceparent()), valid.then_some(ctx));
        prop_assert_eq!(TraceId::from_hex(&ctx.trace_id.to_hex()), Some(ctx.trace_id));
        prop_assert_eq!(SpanId::from_hex(&ctx.span_id.to_hex()), Some(ctx.span_id));
    }
}

// --- token codec: no panics on hostile input, sign/verify round trip ------

mod token_codec {
    use std::collections::BTreeMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use isambard_dri::crypto::base64;
    use isambard_dri::crypto::ed25519::{PreparedVerifyingKey, SigningKey, VerifyingKey};
    use isambard_dri::crypto::json::Value;
    use isambard_dri::crypto::jwt::{self, Claims, Signer, Validation, Verifier};
    use proptest::prelude::*;

    /// The inputs of a case derive from its seed alone (the vendored
    /// proptest does not shrink), so a failure names the seed to replay.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        pub(crate) fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
            &items[self.below(items.len())]
        }
    }

    const REGISTERED: [&str; 10] = [
        "iss", "sub", "aud", "exp", "nbf", "iat", "jti", "sid", "acr", "roles",
    ];
    const NOW: u64 = 1_000_000;

    /// A string mixing JSON escapes, control characters, non-ASCII and
    /// arbitrary scalar values.
    fn text(rng: &mut Rng) -> String {
        const POOL: [char; 14] = [
            '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '☃', '𝄞', 'a', ' ', '/',
        ];
        (0..rng.below(12))
            .map(|_| {
                if rng.below(4) == 0 {
                    char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('?')
                } else {
                    *rng.pick(&POOL)
                }
            })
            .collect()
    }

    fn value(rng: &mut Rng, depth: u32) -> Value {
        match rng.below(if depth == 0 { 4 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 0),
            2 => Value::i(rng.next() as i64 >> 12),
            3 => Value::Str(text(rng)),
            4 => Value::Arr((0..rng.below(4)).map(|_| value(rng, depth - 1)).collect()),
            _ => Value::Obj(
                (0..rng.below(4))
                    .map(|_| (text(rng), value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Random claims, valid at `NOW`. Extras reuse registered names (with
    /// a value of the registered claim's type) and repeat names, so the
    /// round trip exercises overriding.
    fn claims(rng: &mut Rng) -> Claims {
        let mut c = Claims::new(
            text(rng),
            text(rng),
            text(rng),
            NOW - rng.below(100) as u64,
            900,
        );
        c.token_id = text(rng);
        c.session_id = text(rng);
        c.acr = text(rng);
        c.roles = (0..rng.below(4)).map(|_| text(rng)).collect();
        for _ in 0..rng.below(6) {
            let name = match rng.below(3) {
                0 => rng.pick(&REGISTERED).to_string(),
                1 => rng.pick(&["z", "project", "unix_account", ""]).to_string(),
                _ => text(rng),
            };
            let v = match name.as_str() {
                "exp" => Value::u(NOW + 1 + rng.below(1000) as u64),
                "nbf" | "iat" => Value::u(NOW - rng.below(1000) as u64),
                "roles" => Value::Arr((0..rng.below(3)).map(|_| Value::Str(text(rng))).collect()),
                n if REGISTERED.contains(&n) => Value::Str(text(rng)),
                _ => value(rng, 2),
            };
            c.extra.push((name, v));
        }
        c
    }

    /// What verification must return for `c`: each extra with a
    /// registered name replaces that claim, later extras replace earlier
    /// ones, and the remaining extras come back in name order.
    fn round_tripped(c: &Claims) -> Claims {
        let mut out = c.clone();
        let mut extra = BTreeMap::new();
        for (name, v) in &c.extra {
            let s = || v.as_str().unwrap_or_default().to_string();
            match name.as_str() {
                "iss" => out.issuer = s(),
                "sub" => out.subject = s(),
                "aud" => out.audience = s(),
                "jti" => out.token_id = s(),
                "sid" => out.session_id = s(),
                "acr" => out.acr = s(),
                "exp" => out.expires_at = v.as_u64().unwrap(),
                "nbf" => out.not_before = v.as_u64().unwrap(),
                "iat" => out.issued_at = v.as_u64().unwrap(),
                "roles" => {
                    out.roles = v
                        .as_arr()
                        .unwrap()
                        .iter()
                        .map(|r| r.as_str().unwrap().to_string())
                        .collect()
                }
                _ => {
                    extra.insert(name.clone(), v.clone());
                }
            }
        }
        out.extra = extra.into_iter().collect();
        out
    }

    /// `token` with a few random byte edits (flip, insert, delete,
    /// truncate), read back as text.
    fn mutated(rng: &mut Rng, token: &str) -> String {
        let mut bytes = token.as_bytes().to_vec();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(bytes.len() + 1);
            match rng.below(4) {
                0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
                1 => bytes.insert(at, *rng.pick(b".=-_+/\"{}A0\xff\x00")),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.truncate(at),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Every decoder on the token path, on `input` and on each of its
    /// dot-separated segments decoded.
    fn decode_everything(input: &str, pk: &VerifyingKey, prepared: &PreparedVerifyingKey) {
        let validation = Validation {
            now: NOW,
            ..Default::default()
        };
        let _ = jwt::peek_kid(input);
        let _ = jwt::verify(input, &Verifier::Ed25519(pk), &validation);
        let _ = jwt::verify(input, &Verifier::Ed25519Prepared(prepared), &validation);
        let _ = Value::parse(input);
        let _ = base64::decode_url(input);
        for segment in input.split('.') {
            if let Ok(bytes) = base64::decode_url(segment) {
                let _ = Value::parse(&String::from_utf8_lossy(&bytes));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn token_decoders_never_panic(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let sk = SigningKey::from_seed(&[7u8; 32]);
            let pk = sk.verifying_key();
            let prepared = PreparedVerifyingKey::new(&pk);
            let c = claims(&mut rng);
            let token = jwt::sign(&c, &Signer::Ed25519(&sk), &text(&mut rng));
            let mut inputs = vec![token.clone(), String::new(), "..".into(), "{".into()];
            inputs.extend((0..8).map(|_| mutated(&mut rng, &token)));
            inputs.extend((0..4).map(|_| {
                let junk: Vec<u8> = (0..rng.below(96)).map(|_| rng.next() as u8).collect();
                String::from_utf8_lossy(&junk).into_owned()
            }));
            inputs.push(format!("{}.{}.", base64::encode_url(b"{\"kid\":"), text(&mut rng)));
            for input in &inputs {
                let outcome = catch_unwind(AssertUnwindSafe(|| decode_everything(input, &pk, &prepared)));
                prop_assert!(outcome.is_ok(), "seed {seed}: a decoder panicked on {input:?}");
            }
        }

        #[test]
        fn signed_tokens_verify_to_equal_claims(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let sk = SigningKey::from_seed(&[8u8; 32]);
            let pk = sk.verifying_key();
            let prepared = PreparedVerifyingKey::new(&pk);
            let c = claims(&mut rng);
            let kid = text(&mut rng);
            let expected = round_tripped(&c);
            let validation = Validation {
                now: NOW,
                ..Default::default()
            };
            let token = jwt::sign(&c, &Signer::Ed25519(&sk), &kid);
            prop_assert_eq!(jwt::peek_kid(&token), Some(kid.clone()));
            for verifier in [Verifier::Ed25519(&pk), Verifier::Ed25519Prepared(&prepared)] {
                let got = jwt::verify(&token, &verifier, &validation);
                prop_assert!(got.as_ref() == Ok(&expected), "seed {seed}: {got:?} != {expected:?}");
            }
        }
    }
}

// --- SSH certificates and federation assertions: no panics ---------------

mod untrusted_parsers {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use isambard_dri::crypto::base64;
    use isambard_dri::crypto::ed25519::{PreparedVerifyingKey, SigningKey};
    use isambard_dri::federation::{Assertion, Attribute, LevelOfAssurance};
    use isambard_dri::sshca::SshCertificate;
    use proptest::prelude::*;

    use crate::token_codec::Rng;

    /// `bytes` with a few edits (set, insert, delete, truncate). Edits
    /// favour small values and 0xff, which land in length and count
    /// fields as "empty" and "huge".
    fn edited(rng: &mut Rng, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(out.len() + 1);
            let any = rng.next() as u8;
            let byte = *rng.pick(&[0u8, 1, 4, 0x7f, 0xff, any]);
            match rng.below(4) {
                0 if at < out.len() => out[at] = byte,
                1 => out.insert(at, byte),
                2 if at < out.len() => {
                    out.remove(at);
                }
                _ => out.truncate(at),
            }
        }
        out
    }

    fn junk(rng: &mut Rng, max: usize) -> Vec<u8> {
        (0..rng.below(max)).map(|_| rng.next() as u8).collect()
    }

    fn text(rng: &mut Rng) -> String {
        (0..rng.below(10))
            .map(|_| *rng.pick(&['a', '-', '.', '"', '\\', 'é', '\u{0}']))
            .collect()
    }

    fn check<T>(
        seed: u64,
        input: &str,
        parse: impl FnOnce() -> T,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            parse();
        }));
        prop_assert!(
            outcome.is_ok(),
            "seed {seed}: a parser panicked on {input:?}"
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cert_wire_parser_never_panics(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let ca = SigningKey::from_seed(&[9u8; 32]);
            let cert = SshCertificate {
                public_key: [7u8; 32],
                serial: rng.next(),
                key_id: text(&mut rng),
                principals: (0..rng.below(4)).map(|_| text(&mut rng)).collect(),
                valid_after: 100,
                valid_before: 200,
                critical_options: (0..rng.below(3)).map(|_| (text(&mut rng), text(&mut rng))).collect(),
                extensions: (0..rng.below(3)).map(|_| text(&mut rng)).collect(),
                signature: [0u8; 64],
            }
            .signed(&ca);
            let wire = cert.to_wire();
            prop_assert_eq!(SshCertificate::from_wire(&wire).as_ref(), Ok(&cert));
            let raw = base64::decode_url(&wire["ssh-ed25519-cert ".len()..]).unwrap();
            let encoded = |bytes: &[u8]| format!("ssh-ed25519-cert {}", base64::encode_url(bytes));
            let mut inputs: Vec<String> = (0..raw.len()).map(|n| encoded(&raw[..n])).collect();
            inputs.extend((0..16).map(|_| encoded(&edited(&mut rng, &raw))));
            inputs.extend((0..4).map(|_| encoded(&junk(&mut rng, 160))));
            inputs.extend((0..4).map(|_| {
                String::from_utf8_lossy(&edited(&mut rng, wire.as_bytes())).into_owned()
            }));
            inputs.push("ssh-ed25519-cert ".into());
            for input in &inputs {
                check(seed, input, || SshCertificate::from_wire(input))?;
            }
        }

        #[test]
        fn assertion_verifier_never_panics(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let idp = SigningKey::from_seed(&[10u8; 32]);
            let key = PreparedVerifyingKey::new(&idp.verifying_key());
            let assertion = Assertion {
                issuer: "https://idp.example".into(),
                subject: text(&mut rng),
                audience: "https://proxy.example".into(),
                issued_at: 1000,
                expires_at: 1300,
                authn_context: text(&mut rng),
                loa: *rng.pick(&[LevelOfAssurance::Low, LevelOfAssurance::Medium, LevelOfAssurance::High]),
                attributes: (0..rng.below(3)).map(|_| Attribute::new(text(&mut rng), text(&mut rng))).collect(),
                assertion_id: text(&mut rng),
            };
            let wire = assertion.sign(&idp);
            let verify = |input: &str| Assertion::verify(input, &key, "https://proxy.example", 1100);
            prop_assert_eq!(verify(&wire), Ok(assertion));
            let (payload_b64, _) = wire.split_once('.').unwrap();
            let payload = base64::decode_url(payload_b64).unwrap();
            // Hostile payloads under a good signature reach the JSON and
            // field decoders behind the signature check.
            let signed = |payload: &[u8]| {
                format!("{}.{}", base64::encode_url(payload), base64::encode_url(&idp.sign(payload)))
            };
            let mut inputs: Vec<String> = (0..payload.len()).step_by(7).map(|n| signed(&payload[..n])).collect();
            inputs.extend((0..12).map(|_| signed(&edited(&mut rng, &payload))));
            inputs.extend((0..4).map(|_| signed(&junk(&mut rng, 96))));
            inputs.extend((0..8).map(|_| {
                String::from_utf8_lossy(&edited(&mut rng, wire.as_bytes())).into_owned()
            }));
            inputs.extend((0..4).map(|_| String::from_utf8_lossy(&junk(&mut rng, 96)).into_owned()));
            inputs.extend([String::new(), ".".into(), format!("{payload_b64}.")]);
            for input in &inputs {
                check(seed, input, || verify(input))?;
            }
        }
    }
}

// --- infrastructure invariants (non-proptest: expensive to build) --------

mod infra_invariants {
    use isambard_dri::broker::AuthorizationSource;
    use isambard_dri::core::{InfraConfig, Infrastructure};

    /// Default-deny: the attacker host can never reach any non-Access
    /// service regardless of name, for several seeds.
    #[test]
    fn no_seed_opens_hidden_paths() {
        for seed in [1u64, 7, 42, 1234] {
            let cfg = InfraConfig::builder().seed(seed).build().unwrap();
            let infra = Infrastructure::new(cfg);
            for (src, dst, service, allowed) in infra.reachability_matrix() {
                if src.starts_with("internet") && allowed {
                    assert!(
                        (dst.starts_with("fds/") && service == "https")
                            || (dst == "sws/bastion" && service == "ssh"),
                        "seed {seed}: leak {src}->{dst} {service}"
                    );
                }
            }
        }
    }

    /// No global admin: no single subject holds roles on every audience.
    #[test]
    fn no_subject_has_global_roles() {
        let infra = Infrastructure::new(InfraConfig::default());
        infra.create_federated_user("alice", "pw");
        infra.story1_onboard_pi("p", "alice", 10.0).unwrap();
        infra.story2_register_admin("dave").unwrap();
        let audiences = [
            "ssh-ca",
            "jupyter",
            "slurm",
            "portal",
            "mgmt-tailnet",
            "mgmt-cluster",
        ];
        for subject in [
            infra.subject_of("alice").unwrap(),
            infra.subject_of("dave").unwrap(),
            "admin:ops".to_string(),
        ] {
            let covered = audiences
                .iter()
                .filter(|a| !infra.portal.roles_for(&subject, a).is_empty())
                .count();
            assert!(
                covered < audiences.len(),
                "{subject} holds roles on every audience"
            );
        }
    }
}
