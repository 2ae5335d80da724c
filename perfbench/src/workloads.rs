//! The three workloads, their operations, and the output checks.
//!
//! Every workload is a closed loop: `clients` threads share one
//! [`Infrastructure`], and each simulated researcher waits for their
//! notebook or shell before acting again. A *pass* gives every user of the
//! population exactly one operation, in a seeded order; the simulated
//! clock advances one second per pass so the edge's per-source rate
//! window and the token lifetimes behave as in a real day.

use std::sync::Barrier;
use std::time::Instant;

use dri_broker::authz::AuthorizationSource;
use dri_cluster::jupyter::{JupyterError, NotebookSession};
use dri_core::{InfraConfig, Infrastructure};
use dri_crypto::base64::{decode_url, encode_url};
use dri_crypto::ed25519::SigningKey;
use dri_crypto::json::Value;
use dri_crypto::jwt::{self, Signer};
use dri_workload::{build_population, run_attack, AttackScenario};

use crate::stats::{quantile_sorted, Rng};

/// Per 64 storm flows, `revocation_churn` kills one seeded subject.
pub const KILL_EVERY: usize = 64;
/// Per 256 storm flows, `revocation_churn` sends a forged-token burst.
pub const FORGE_EVERY: usize = 256;
/// Per 1024 storm flows, `revocation_churn` rotates the broker keys and
/// prunes the old ring.
pub const ROTATE_EVERY: usize = 1024;
/// Forged tokens per `run_attack` burst: the SIEM's default token-abuse
/// threshold, so every burst is detectable on its own.
pub const FORGED_ATTEMPTS: usize = 5;
/// Broker keys kept by `prune_keys` after each rotation.
pub const KEYS_KEPT: usize = 2;
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NotebookStorm,
    SshLoginMix,
    RevocationChurn,
}

pub const ALL_WORKLOADS: [Workload; 3] = [
    Workload::NotebookStorm,
    Workload::SshLoginMix,
    Workload::RevocationChurn,
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL_WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::NotebookStorm => "notebook_storm",
            Workload::SshLoginMix => "ssh_login_mix",
            Workload::RevocationChurn => "revocation_churn",
        }
    }

    /// Salt mixed into the seed so workloads draw different inputs.
    fn salt(self) -> u64 {
        match self {
            Workload::NotebookStorm => 0x6e62,
            Workload::SshLoginMix => 0x7373,
            Workload::RevocationChurn => 0x7263,
        }
    }
}

/// Population and loop sizes of one round.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Projects; each has one PI and `researchers_per` researchers.
    pub projects: usize,
    pub researchers_per: usize,
    /// Client threads.
    pub clients: usize,
    /// Measured passes per round (a fixed operation count, so memory
    /// and counts compare across commits).
    pub passes: usize,
}

impl Shape {
    /// The benchmark's shape: 256 users (32 projects × 8) and two clients.
    pub fn standard(w: Workload) -> Shape {
        Shape {
            projects: 32,
            researchers_per: 7,
            clients: 2,
            passes: match w {
                Workload::NotebookStorm | Workload::RevocationChurn => 32,
                Workload::SshLoginMix => 8,
            },
        }
    }

    pub fn users(&self) -> usize {
        self.projects * (1 + self.researchers_per)
    }
}

/// One onboarded user and what the checks expect of them.
#[derive(Debug, Clone)]
pub struct User {
    pub label: String,
    pub project: String,
    pub subject: String,
    /// The project-scoped UNIX account the portal assigned.
    pub account: String,
    /// A source address unique to the user, so the edge scores each
    /// researcher separately.
    pub source_ip: String,
}

/// A fresh infrastructure with its onboarded population.
pub struct Round {
    pub infra: Infrastructure,
    pub users: Vec<User>,
    /// Wall time of `Infrastructure::new` plus onboarding (stories 1 and 3).
    pub setup_s: f64,
}

impl Round {
    pub fn new(config: InfraConfig, shape: &Shape, rng: &mut Rng) -> Result<Round, String> {
        let t0 = Instant::now();
        let infra = Infrastructure::new(config);
        let pop = build_population(&infra, shape.projects, shape.researchers_per)
            .map_err(|e| format!("onboarding failed: {e}"))?;
        let setup_s = t0.elapsed().as_secs_f64();

        let offset = rng.below(1 << 16);
        let mut users = Vec::with_capacity(pop.user_count());
        for p in &pop.projects {
            for label in std::iter::once(&p.pi_label).chain(&p.researcher_labels) {
                let subject = infra
                    .subject_of(label)
                    .ok_or_else(|| format!("{label} has no subject after onboarding"))?;
                let account = infra
                    .portal
                    .unix_accounts(&subject)
                    .into_iter()
                    .find(|(proj, _)| *proj == p.name)
                    .map(|(_, a)| a)
                    .ok_or_else(|| format!("{label} has no account in {}", p.name))?;
                let k = offset + users.len();
                users.push(User {
                    label: label.clone(),
                    project: p.name.clone(),
                    subject,
                    account,
                    source_ip: format!("198.{}.{}.{}", 18 + (k >> 16), (k >> 8) & 255, k & 255),
                });
            }
        }
        Ok(Round {
            infra,
            users,
            setup_s,
        })
    }
}

/// What a phase attempted, what failed, and how long operations took.
#[derive(Debug, Default)]
pub struct Tally {
    /// Workload steps attempted (flows, kill-switch steps, forged tokens,
    /// rotations).
    pub attempted: u64,
    /// Steps that failed unexpectedly or whose output check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Completed flows: (completion time since the phase began in s,
    /// wall latency in µs).
    pub done: Vec<(f64, f64)>,
    /// `kill_user` wall latency (µs).
    pub revoke_us: Vec<f64>,
}

impl Tally {
    fn step(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(msg);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.done.extend(other.done);
        self.revoke_us.extend(other.revoke_us);
    }

    pub fn flows(&self) -> u64 {
        self.done.len() as u64
    }
}

/// Flows per slice: the unit over which throughput and latency quantiles
/// are taken, so that a burst of host interference spoils a few slices
/// rather than a whole round. 1024 flows leave ten beyond the p99.
pub const SLICE_FLOWS: usize = 1024;

/// Throughput and latency of one slice of consecutive completions.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub flows_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
}

/// One phase's result: what happened and its wall time.
pub struct Phase {
    pub tally: Tally,
    pub wall_s: f64,
}

impl Phase {
    pub fn flows_per_s(&self) -> f64 {
        self.tally.flows() as f64 / self.wall_s
    }

    /// The phase's completions in order, cut into `SLICE_FLOWS`-flow
    /// slices (a trailing partial slice is dropped, unless it is the only
    /// one). A slice's throughput runs from the previous slice's last
    /// completion, or the phase start, to its own last completion.
    pub fn slices(&self) -> Vec<Slice> {
        let mut done = self.tally.done.clone();
        done.sort_by(|a, b| a.0.total_cmp(&b.0));
        let size = SLICE_FLOWS.min(done.len()).max(1);
        let mut start = 0.0;
        done.chunks_exact(size)
            .map(|chunk| {
                let end = chunk[chunk.len() - 1].0;
                let mut lat: Vec<f64> = chunk.iter().map(|d| d.1).collect();
                lat.sort_by(f64::total_cmp);
                let slice = Slice {
                    flows_per_s: chunk.len() as f64 / (end - start),
                    p50_us: quantile_sorted(&lat, 0.50),
                    p95_us: quantile_sorted(&lat, 0.95),
                    p99_us: quantile_sorted(&lat, 0.99),
                };
                start = end;
                slice
            })
            .collect()
    }
}

/// Run `passes` passes of the workload's operation over the round's
/// population. With `writes`, `revocation_churn` interleaves its SOC and
/// admin steps; the warm-up pass runs without them.
///
/// Each client owns a fixed share of the users for the whole phase and
/// walks it in a fresh seeded order every pass, advancing the simulated
/// clock by its share of a second after each pass. Clients never wait
/// for each other, except that a key rotation happens while every client
/// is between flows (as a rotation runbook would), so that no token is
/// minted under a key its relying service has not been sent yet.
pub fn run_phase(
    round: &Round,
    w: Workload,
    shape: &Shape,
    passes: usize,
    writes: bool,
    rng: &mut Rng,
) -> Phase {
    let n = round.users.len();
    let clients = shape.clients.max(1);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let phase_seed = rng.next_u64();
    let churn = writes && w == Workload::RevocationChurn;
    let quiesce = Barrier::new(clients);
    let rotate_every = (ROTATE_EVERY / clients).max(1);
    // Own-flow counts every client reaches; rotating only below it means
    // no client waits at the barrier for one that has finished.
    let common = n / clients * passes;
    let infra = &round.infra;

    let t0 = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let mine: Vec<&User> = order
                    .iter()
                    .skip(t)
                    .step_by(clients)
                    .map(|&i| &round.users[i])
                    .collect();
                let (quiesce, t0) = (&quiesce, &t0);
                scope.spawn(move || {
                    let mut r = Rng::new(phase_seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
                    let mut tally = Tally::default();
                    let mut pass_order: Vec<usize> = (0..mine.len()).collect();
                    let mut own_flows = 0usize;
                    for _ in 0..passes {
                        r.shuffle(&mut pass_order);
                        for &i in &pass_order {
                            let user = mine[i];
                            if churn
                                && own_flows % rotate_every == rotate_every / 2
                                && own_flows < common
                            {
                                quiesce.wait();
                                if t == 0 {
                                    tally.step(rotate_keys(infra, r.bytes32()));
                                }
                                quiesce.wait();
                            }
                            let t_op = Instant::now();
                            let result = match w {
                                Workload::SshLoginMix => ssh_op(infra, user),
                                _ => storm_op(infra, user),
                            };
                            let us = t_op.elapsed().as_secs_f64() * 1e6;
                            if result.is_ok() {
                                tally.done.push((t0.elapsed().as_secs_f64(), us));
                            }
                            tally.step(result);
                            own_flows += 1;
                            if !churn {
                                continue;
                            }
                            // Each client keeps the cadences over its own
                            // flows, so together they make one kill per
                            // KILL_EVERY and one burst per FORGE_EVERY flows.
                            // Victims are this client's users, so no other
                            // client acts for them meanwhile.
                            if own_flows % KILL_EVERY == KILL_EVERY / 2 {
                                kill_cycle(infra, mine[r.below(mine.len())], &mut tally);
                            }
                            if own_flows % FORGE_EVERY == FORGE_EVERY / 2 {
                                let victim = mine[r.below(mine.len())];
                                forgery_burst(infra, victim, &round.users, &mut r, &mut tally);
                            }
                        }
                        infra.clock.advance(1_000 / clients as u64);
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    for t in tallies {
        tally.merge(t);
    }
    Phase { tally, wall_s }
}

/// `notebook_storm` step: story 6, then stop the new notebook.
pub fn storm_op(infra: &Infrastructure, user: &User) -> Result<(), String> {
    let out = infra
        .story6_jupyter(user.label.as_str(), &user.project, &user.source_ip)
        .map_err(|e| format!("story6 {}: {e}", user.label))?;
    let nb = &out.notebook;
    if nb.subject != user.subject || nb.unix_account != user.account || nb.project != user.project {
        return Err(format!(
            "notebook {} runs as {}/{} in {}, expected {}/{} in {}",
            nb.id,
            nb.subject,
            nb.unix_account,
            nb.project,
            user.subject,
            user.account,
            user.project
        ));
    }
    if !infra.jupyter.stop(&nb.id) {
        return Err(format!("notebook {} vanished before stop", nb.id));
    }
    Ok(())
}

/// `ssh_login_mix` step: federated login, story 4, close the shell.
pub fn ssh_op(infra: &Infrastructure, user: &User) -> Result<(), String> {
    infra
        .federated_login(&user.label)
        .map_err(|e| format!("login {}: {e}", user.label))?;
    let out = infra
        .story4_ssh_connect(user.label.as_str(), &user.project)
        .map_err(|e| format!("story4 {}: {e}", user.label))?;
    if out.shell.account != user.account
        || out.shell.project != user.project
        || out.relay.principal != user.account
    {
        return Err(format!(
            "shell {} is {} in {} via relay as {}, expected {} in {}",
            out.shell.id,
            out.shell.account,
            out.shell.project,
            out.relay.principal,
            user.account,
            user.project
        ));
    }
    if !infra.login_node.close_session(&out.shell.id) {
        return Err(format!("shell {} vanished before close", out.shell.id));
    }
    Ok(())
}

fn jupyter_token(infra: &Infrastructure, user: &User) -> Result<(String, jwt::Claims), String> {
    infra
        .token_for(
            &user.label,
            "jupyter",
            vec![
                ("unix_account".to_string(), Value::s(user.account.as_str())),
                ("project".to_string(), Value::s(user.project.as_str())),
            ],
        )
        .map_err(|e| format!("token for {}: {e}", user.label))
}

fn present(infra: &Infrastructure, token: String) -> Result<NotebookSession, JupyterError> {
    infra.jupyter.spawn(&[("x-auth-token".to_string(), token)])
}

/// The stale-allow oracle: a token minted before the kill switch must be
/// refused once `kill_user` has returned.
pub fn check_refused(
    what: &str,
    replay: Result<NotebookSession, JupyterError>,
) -> Result<(), String> {
    match replay {
        Err(_) => Ok(()),
        Ok(nb) => Err(format!(
            "stale allow: {what} opened notebook {} as {}",
            nb.id, nb.subject
        )),
    }
}

/// Kill switch on `victim`: mint a Jupyter token, `kill_user` (timed),
/// replay the token (must be refused), reinstate, log in again (must
/// succeed).
pub fn kill_cycle(infra: &Infrastructure, victim: &User, tally: &mut Tally) {
    let token = match jupyter_token(infra, victim) {
        Ok((token, _)) => token,
        Err(e) => return tally.step(Err(e)),
    };
    let t0 = Instant::now();
    let report = infra.kill_user(&victim.subject);
    tally.revoke_us.push(t0.elapsed().as_secs_f64() * 1e6);
    tally.step(if report.broker_revoked {
        Ok(())
    } else {
        Err(format!(
            "kill_user {} left the broker session",
            victim.label
        ))
    });

    let replay = present(infra, token);
    if let Ok(nb) = &replay {
        infra.jupyter.stop(&nb.id);
    }
    tally.step(check_refused(
        &format!("pre-kill token of {}", victim.label),
        replay,
    ));

    infra.reinstate_user(&victim.subject);
    tally.step(
        infra
            .federated_login(&victim.label)
            .map(|_| ())
            .map_err(|e| format!("login after reinstating {}: {e}", victim.label)),
    );
}

/// A forged-token burst at the Jupyter authenticator: `run_attack`'s
/// rogue-key tokens, plus two seeded forgeries built from a live token of
/// `victim` (a rogue signature under the live key id, and the live
/// signature over a payload re-pointed at another user's account). All
/// must be refused and the SIEM must hold a live token-abuse alert.
fn forgery_burst(
    infra: &Infrastructure,
    victim: &User,
    users: &[User],
    r: &mut Rng,
    tally: &mut Tally,
) {
    let outcome = run_attack(
        infra,
        AttackScenario::TokenForgery {
            attempts: FORGED_ATTEMPTS,
        },
    );
    for i in 0..outcome.attempted {
        tally.step(if i < outcome.rejected {
            Ok(())
        } else {
            Err("run_attack: a forged token was accepted".to_string())
        });
    }

    let (live, mut claims) = match jupyter_token(infra, victim) {
        Ok(t) => t,
        Err(e) => return tally.step(Err(e)),
    };
    let kid = jwt::peek_kid(&live).unwrap_or_default();
    claims.token_id = format!("forged-{:016x}", r.next_u64());
    let rogue = SigningKey::from_seed(&r.bytes32());
    let resigned = jwt::sign(&claims, &Signer::Ed25519(&rogue), &kid);
    tally.step(check_refused(
        "rogue-signed token",
        present(infra, resigned),
    ));

    // Re-point at a different user's account: re-encoding the victim's own
    // claims would rebuild the live token itself.
    let mut other = &users[r.below(users.len())];
    while other.account == victim.account {
        other = &users[r.below(users.len())];
    }
    let tampered = retarget(&live, &other.account);
    tally.step(match tampered {
        Some(t) => check_refused("re-pointed token", present(infra, t)),
        None => Err("could not decode a live token".to_string()),
    });

    // The SIEM raises one alert per subject per window, so a burst is
    // covered by a new alert or by one raised at most a window before it
    // began. The other client's bursts move the shared clock meanwhile,
    // so the burst's start, not the clock now, anchors the window.
    //
    // `Siem::alerts` drains the ingest queue first, but a batch the other
    // client dequeued a moment ago may still be being processed, so the
    // check gives that drain up to a second to land.
    let window = infra.config.detection.token_window_ms;
    let covered = || {
        infra.siem.alerts().iter().any(|a| {
            a.rule == outcome.expected_rule
                && a.subject == outcome.expected_alert_subject
                && a.at_ms + window >= outcome.started_at_ms
        })
    };
    let alerted = (0..1000).any(|attempt| {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        covered()
    });
    tally.step(if alerted {
        Ok(())
    } else {
        Err("forged-token burst raised no token-abuse alert".to_string())
    });
}

/// `token` with its payload's `unix_account` replaced, signature kept.
fn retarget(token: &str, account: &str) -> Option<String> {
    let mut parts = token.split('.');
    let (h, p, s) = (parts.next()?, parts.next()?, parts.next()?);
    let payload = String::from_utf8(decode_url(p).ok()?).ok()?;
    let mut value = Value::parse(&payload).ok()?;
    value.set("unix_account", Value::s(account));
    Some(format!(
        "{h}.{}.{s}",
        encode_url(value.to_json().as_bytes())
    ))
}

/// Rotate the broker's signing key, republish the JWKS to every relying
/// service, prune the ring, and republish again.
fn rotate_keys(infra: &Infrastructure, seed: [u8; 32]) -> Result<(), String> {
    let republish = || {
        let jwks = infra.broker.jwks();
        infra.jupyter.update_jwks(jwks.clone());
        infra.ssh_ca.update_jwks(jwks.clone());
        infra.tailnet.update_jwks(jwks.clone());
        infra.mgmt.update_jwks(jwks);
    };
    infra.broker.rotate_keys(seed);
    republish();
    infra.broker.prune_keys(KEYS_KEPT);
    republish();
    let (held, published) = (infra.jupyter.jwks_epoch(), infra.broker.jwks_epoch());
    let keys = infra.broker.jwks().key_count();
    if held == published && keys == KEYS_KEPT {
        Ok(())
    } else {
        Err(format!(
            "after rotation Jupyter trusts JWKS epoch {held} of {published} with {keys} keys"
        ))
    }
}

/// The workload's seed stream.
pub fn workload_rng(w: Workload, seed: u64) -> Rng {
    Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ w.salt())
}
