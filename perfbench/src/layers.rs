//! Per-layer measurements: counter deltas from the program's public
//! counters, span self time from `Tracer::all_spans`, and per-call costs
//! timed by calling each layer's public functions directly.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dri_broker::authz::AuthorizationSource;
use dri_clock::SimClock;
use dri_core::Infrastructure;
use dri_crypto::base64::decode_url;
use dri_crypto::ed25519::{PreparedVerifyingKey, SigningKey};
use dri_crypto::json::Value;
use dri_crypto::jwt::{self, Signer, Validation};
use dri_crypto::{aead, sha2};
use dri_policy::trust::{AccessRequest, DevicePosture, PolicyDecisionPoint, SourceZone};
use dri_siem::events::{EventKind, SecurityEvent, Severity};
use dri_siem::siem::{DetectionConfig, Siem};
use dri_sync::ShardMap;
use dri_trace::{SpanId, SpanRecord, Stage, TraceId, Tracer, STAGE_COUNT};

use crate::stats::{median, Rng};
use crate::workloads::Round;

/// The program's public counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub tokens: u64,
    pub token_cache_hits: u64,
    pub token_cache_misses: u64,
    pub token_cache_busts: u64,
    pub pdp_consults: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_busts: u64,
    pub siem_events: u64,
    pub siem_alerts: u64,
    pub retries: u64,
    pub spans: u64,
    /// Requests the edge forwarded (each reaches `jupyter.spawn`).
    pub edge_served: u64,
    /// Successful logins the SIEM saw (one IdP → proxy hop each).
    pub logins: u64,
}

impl Counters {
    pub fn read(infra: &Infrastructure) -> Counters {
        let cache = infra.broker.token_cache();
        Counters {
            tokens: infra.broker.tokens_issued(),
            token_cache_hits: cache.hits(),
            token_cache_misses: cache.misses(),
            token_cache_busts: cache.epoch_busts(),
            pdp_consults: infra.pdp_consultation_count(),
            memo_hits: infra.pdp.hits(),
            memo_misses: infra.pdp.misses(),
            memo_busts: infra.pdp.epoch_busts(),
            siem_events: infra.siem.events_ingested(),
            siem_alerts: infra.siem.alerts().len() as u64,
            retries: infra.resilience.retries(),
            spans: infra.tracer.span_count() as u64,
            edge_served: infra.edge.stats().0,
            logins: infra.siem.events_of_kind(EventKind::AuthnSuccess).len() as u64,
        }
    }

    /// Field-wise `self - before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            tokens: self.tokens - before.tokens,
            token_cache_hits: self.token_cache_hits - before.token_cache_hits,
            token_cache_misses: self.token_cache_misses - before.token_cache_misses,
            token_cache_busts: self.token_cache_busts - before.token_cache_busts,
            pdp_consults: self.pdp_consults - before.pdp_consults,
            memo_hits: self.memo_hits - before.memo_hits,
            memo_misses: self.memo_misses - before.memo_misses,
            memo_busts: self.memo_busts - before.memo_busts,
            siem_events: self.siem_events - before.siem_events,
            siem_alerts: self.siem_alerts - before.siem_alerts,
            retries: self.retries - before.retries,
            spans: self.spans.saturating_sub(before.spans),
            edge_served: self.edge_served - before.edge_served,
            logins: self.logins - before.logins,
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.tokens += o.tokens;
        self.token_cache_hits += o.token_cache_hits;
        self.token_cache_misses += o.token_cache_misses;
        self.token_cache_busts += o.token_cache_busts;
        self.pdp_consults += o.pdp_consults;
        self.memo_hits += o.memo_hits;
        self.memo_misses += o.memo_misses;
        self.memo_busts += o.memo_busts;
        self.siem_events += o.siem_events;
        self.siem_alerts += o.siem_alerts;
        self.retries += o.retries;
        self.spans += o.spans;
        self.edge_served += o.edge_served;
        self.logins += o.logins;
    }

    /// The deterministic counts line: integer totals over `ops` flows.
    pub fn counts_line(&self, ops: u64) -> String {
        format!(
            "ops={ops} tokens={} pdp_consults={} spans={} siem_events={} siem_alerts={} \
             token_cache_hits={} token_cache_misses={} token_cache_busts={} \
             memo_hits={} memo_misses={} memo_busts={} retries={} edge_served={} logins={}",
            self.tokens,
            self.pdp_consults,
            self.spans,
            self.siem_events,
            self.siem_alerts,
            self.token_cache_hits,
            self.token_cache_misses,
            self.token_cache_busts,
            self.memo_hits,
            self.memo_misses,
            self.memo_busts,
            self.retries,
            self.edge_served,
            self.logins,
        )
    }
}

/// The module-named layer each trace stage reports under.
pub const STAGE_LAYERS: [(Stage, &str); 12] = [
    (Stage::Flow, "core"),
    (Stage::Discovery, "federation"),
    (Stage::Broker, "broker"),
    (Stage::Portal, "portal"),
    (Stage::SshCa, "sshca"),
    (Stage::Bastion, "netsim.bastion"),
    (Stage::Edge, "netsim.edge"),
    (Stage::Tunnel, "netsim.tunnel"),
    (Stage::Network, "netsim.network"),
    (Stage::Cluster, "cluster"),
    (Stage::Policy, "policy"),
    (Stage::Siem, "siem"),
];

/// Total self time (µs) per stage: each span's `wall_us` minus the
/// `wall_us` of its direct children.
pub fn self_time_by_stage(spans: &[SpanRecord]) -> [f64; STAGE_COUNT] {
    let mut child_us: HashMap<(TraceId, SpanId), u64> = HashMap::with_capacity(spans.len());
    for s in spans {
        if let Some(parent) = s.parent_id {
            *child_us.entry((s.trace_id, parent)).or_default() += s.wall_us;
        }
    }
    let mut out = [0.0; STAGE_COUNT];
    for s in spans {
        let children = child_us.get(&(s.trace_id, s.span_id)).copied().unwrap_or(0);
        out[s.stage as usize] += s.wall_us.saturating_sub(children) as f64;
    }
    out
}

/// Median nanoseconds per call of `f`, over nine batches sized to take
/// about 5 ms each.
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut batch = 0u32;
    while t.elapsed().as_micros() < 5_000 {
        f();
        batch += 1;
    }
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(batch)
        })
        .collect();
    median(&samples)
}

/// Per-call costs (ns) of the public functions on the flow path, called on
/// the round's own users, tokens and sessions.
pub fn layer_costs(round: &Round, rng: &mut Rng) -> Result<Vec<(&'static str, f64)>, String> {
    let infra = &round.infra;
    let user = &round.users[rng.below(round.users.len())];
    let extra = vec![
        ("unix_account".to_string(), Value::s(user.account.as_str())),
        ("project".to_string(), Value::s(user.project.as_str())),
    ];
    let (token, claims) = infra
        .token_for(&user.label, "jupyter", extra.clone())
        .map_err(|e| format!("token for {}: {e}", user.label))?;
    let kid = jwt::peek_kid(&token).unwrap_or_default();
    let signing_input = &token[..token.rfind('.').unwrap_or(0)];
    let payload = token
        .split('.')
        .nth(1)
        .and_then(|p| decode_url(p).ok())
        .and_then(|b| String::from_utf8(b).ok())
        .ok_or("undecodable token payload")?;
    let payload_value = Value::parse(&payload).map_err(|e| format!("payload: {e:?}"))?;

    let sk = SigningKey::from_seed(&rng.bytes32());
    let vk = sk.verifying_key();
    let prepared = PreparedVerifyingKey::new(&vk);
    let sig = sk.sign(signing_input.as_bytes());
    if !vk.verify(signing_input.as_bytes(), &sig)
        || !prepared.verify(signing_input.as_bytes(), &sig)
    {
        return Err("ed25519 round trip failed".to_string());
    }
    let validation = Validation {
        issuer: claims.issuer.clone(),
        audience: "jupyter".to_string(),
        now: infra.clock.now_secs(),
        leeway: 0,
    };
    jwt::validate_claims(&claims, &validation).map_err(|e| format!("claims: {e:?}"))?;
    let kb: Vec<u8> = (0..1024).map(|_| rng.next_u64() as u8).collect();
    let aead_key = rng.bytes32();

    let labels: Vec<&str> = round.users.iter().map(|u| u.label.as_str()).collect();
    let map: ShardMap<String> = ShardMap::new(16);
    for u in &round.users {
        map.insert(u.label.clone(), u.subject.clone());
    }
    let session_keys: Vec<String> = (0..4096).map(|i| format!("sess-{i:06}")).collect();
    let insert_map: ShardMap<String> = ShardMap::new(16);

    let tracer = Arc::new(Tracer::new(rng.next_u64(), 16, SimClock::new()));
    tracer.set_enabled(true);
    let wall_epoch = Instant::now();
    tracer.install_wall_clock(Arc::new(move || wall_epoch.elapsed().as_micros() as u64));

    let siem = Siem::new(SimClock::new(), DetectionConfig::default());
    let events: Vec<SecurityEvent> = round
        .users
        .iter()
        .take(64)
        .enumerate()
        .map(|(i, u)| {
            let kind = [EventKind::TokenIssued, EventKind::NotebookSpawned][i % 2];
            SecurityEvent::new(
                i as u64,
                "fds/broker",
                kind,
                &u.subject,
                "aud=jupyter",
                Severity::Info,
            )
        })
        .collect();

    let session = infra
        .broker
        .session(
            infra
                .session_of(&user.label)
                .map_err(|e| e.to_string())?
                .as_str(),
        )
        .ok_or("no live session")?;
    let req = AccessRequest {
        subject: session.subject.clone(),
        loa: session.loa,
        acr: session.acr.clone(),
        device: DevicePosture::unknown(),
        source: SourceZone::Internet,
        session_age_secs: infra
            .clock
            .now_secs()
            .saturating_sub(session.established_at),
        resource: "jupyter".to_string(),
        sensitivity: dri_policy::trust::Sensitivity::Standard,
        has_role: !infra
            .portal
            .roles_for(&session.subject, "jupyter")
            .is_empty(),
    };
    if !infra.pdp.decide(&req).allow {
        return Err("the workload's own access request is denied".to_string());
    }
    let full_pdp = PolicyDecisionPoint::default();

    let mut i = 0usize;
    let mut next = || {
        i = i.wrapping_add(1);
        i
    };
    let mut spawn_failed = false;
    let mut login_failed = false;
    let costs = vec![
        (
            "crypto.ed25519_sign_ns",
            ns_per_call(|| {
                black_box(sk.sign(black_box(signing_input.as_bytes())));
            }),
        ),
        (
            "crypto.ed25519_verify_ns",
            ns_per_call(|| {
                black_box(vk.verify(black_box(signing_input.as_bytes()), &sig));
            }),
        ),
        (
            "crypto.ed25519_verify_prepared_ns",
            ns_per_call(|| {
                black_box(prepared.verify(black_box(signing_input.as_bytes()), &sig));
            }),
        ),
        (
            "crypto.jwt_sign_ns",
            ns_per_call(|| {
                black_box(jwt::sign(black_box(&claims), &Signer::Ed25519(&sk), &kid));
            }),
        ),
        (
            "crypto.jwt_validate_claims_ns",
            ns_per_call(|| {
                black_box(jwt::validate_claims(black_box(&claims), &validation)).ok();
            }),
        ),
        (
            "crypto.sha512_1k_ns",
            ns_per_call(|| {
                black_box(sha2::sha512(black_box(&kb)));
            }),
        ),
        (
            "crypto.aead_seal_1k_ns",
            ns_per_call(|| {
                black_box(aead::seal(&aead_key, &[7u8; 12], b"", black_box(&kb)));
            }),
        ),
        (
            "crypto.json_encode_ns",
            ns_per_call(|| {
                black_box(black_box(&payload_value).to_json());
            }),
        ),
        (
            "crypto.json_parse_ns",
            ns_per_call(|| {
                black_box(Value::parse(black_box(&payload)).ok());
            }),
        ),
        (
            "sync.shardmap_get_ns",
            ns_per_call(|| {
                let k = labels[next() % labels.len()];
                black_box(map.get_cloned(black_box(k)));
            }),
        ),
        (
            "sync.shardmap_insert_ns",
            ns_per_call(|| {
                let k = session_keys[next() % session_keys.len()].clone();
                black_box(insert_map.insert(k, user.subject.clone()));
            }),
        ),
        (
            "trace.span_ns",
            ns_per_call(|| {
                let _flow = dri_trace::flow(&tracer, "bench", "bench.flow", Stage::Flow);
                for _ in 0..16 {
                    let _span = dri_trace::span("bench.span", Stage::Cluster);
                }
            }) / 17.0,
        ),
        (
            "siem.ingest_ns_per_event",
            ns_per_call(|| {
                black_box(siem.ingest(events.clone()));
            }) / events.len() as f64,
        ),
        (
            "policy.decide_memo_ns",
            ns_per_call(|| {
                black_box(infra.pdp.decide(black_box(&req)));
            }),
        ),
        (
            "policy.decide_full_ns",
            ns_per_call(|| {
                black_box(full_pdp.decide(black_box(&req)));
            }),
        ),
        (
            "broker.issue_token_ns",
            ns_per_call(|| {
                black_box(infra.broker.issue_token_with_extra(
                    &session.session_id,
                    "jupyter",
                    extra.clone(),
                ))
                .ok();
            }),
        ),
        (
            "cluster.jupyter_spawn_ns",
            ns_per_call(|| {
                match infra
                    .jupyter
                    .spawn(&[("x-auth-token".to_string(), token.clone())])
                {
                    Ok(nb) => {
                        infra.jupyter.stop(&nb.id);
                    }
                    Err(_) => spawn_failed = true,
                }
            }),
        ),
        (
            "federation.proxy_authenticate_ns",
            ns_per_call(|| {
                login_failed |= infra.proxy_authenticate(&user.label).is_err();
            }),
        ),
    ];
    tracer.clear_spans();
    if spawn_failed || login_failed {
        return Err("a timed jupyter spawn or proxy authentication failed".to_string());
    }
    Ok(costs)
}

/// One term of the ledger: a layer call, how often an operation makes it
/// (from a public counter), and what one call costs.
pub struct LedgerTerm {
    pub call: &'static str,
    pub per_op: f64,
    pub ns: f64,
}

/// The ledger's terms for per-operation counts `c / ops` and `costs`.
pub fn ledger_terms(c: &Counters, ops: f64, costs: &[(&'static str, f64)]) -> Vec<LedgerTerm> {
    let cost = |name: &str| {
        costs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let per = |n: u64| n as f64 / ops;
    vec![
        LedgerTerm {
            call: "broker.issue_token",
            per_op: per(c.tokens),
            ns: cost("broker.issue_token_ns"),
        },
        LedgerTerm {
            call: "policy.decide (memo hit)",
            per_op: per(c.memo_hits),
            ns: cost("policy.decide_memo_ns"),
        },
        LedgerTerm {
            call: "policy.decide (full)",
            per_op: per(c.memo_misses),
            ns: cost("policy.decide_full_ns"),
        },
        LedgerTerm {
            call: "siem.ingest (per event)",
            per_op: per(c.siem_events),
            ns: cost("siem.ingest_ns_per_event"),
        },
        LedgerTerm {
            call: "trace.span",
            per_op: per(c.spans),
            ns: cost("trace.span_ns"),
        },
        LedgerTerm {
            call: "cluster.jupyter_spawn+stop",
            per_op: per(c.edge_served),
            ns: cost("cluster.jupyter_spawn_ns"),
        },
        LedgerTerm {
            call: "federation.proxy_authenticate",
            per_op: per(c.logins),
            ns: cost("federation.proxy_authenticate_ns"),
        },
    ]
}
