//! Zenith-style reverse tunnels.
//!
//! Web services on the cluster are published through tunnels that are
//! dialled *outbound* from the MDC to the Zenith server in FDS, so no MDC
//! host ever listens for inbound internet traffic. Each tunnel is bound
//! to a path (`/jupyter`), carries an X25519-derived session key, and
//! frames are ChaCha20-Poly1305 AEAD protected in both directions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dri_clock::{SimClock, SimRng};
use dri_crypto::aead;
use dri_crypto::hkdf;
use dri_crypto::x25519;
use parking_lot::RwLock;

use crate::topology::{NetError, Network};

/// A simplified HTTP-ish request forwarded through a tunnel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request path (`/jupyter/lab`).
    pub path: String,
    /// Headers, notably the broker token header.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Fetch a header value.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn to_bytes(&self) -> Vec<u8> {
        let headers: usize = self
            .headers
            .iter()
            .map(|(k, v)| k.len() + v.len() + 2)
            .sum();
        let mut out = Vec::with_capacity(self.path.len() + headers + self.body.len() + 2);
        out.extend_from_slice(self.path.as_bytes());
        out.push(0);
        for (k, v) in &self.headers {
            out.extend_from_slice(k.as_bytes());
            out.push(1);
            out.extend_from_slice(v.as_bytes());
            out.push(2);
        }
        out.push(0);
        out.extend_from_slice(&self.body);
        out
    }

    fn from_bytes(data: &[u8]) -> Option<HttpRequest> {
        let mut parts = data.splitn(2, |b| *b == 0);
        let path = String::from_utf8(parts.next()?.to_vec()).ok()?;
        let rest = parts.next()?;
        let mut headers = Vec::new();
        let mut pos = 0;
        while pos < rest.len() && rest[pos] != 0 {
            let kend = rest[pos..].iter().position(|b| *b == 1)? + pos;
            let vend = rest[kend..].iter().position(|b| *b == 2)? + kend;
            headers.push((
                String::from_utf8(rest[pos..kend].to_vec()).ok()?,
                String::from_utf8(rest[kend + 1..vend].to_vec()).ok()?,
            ));
            pos = vend + 1;
        }
        if pos >= rest.len() {
            return None;
        }
        let body = rest[pos + 1..].to_vec();
        Some(HttpRequest {
            path,
            headers,
            body,
        })
    }
}

/// A response from the published service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Tunnel failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TunnelError {
    /// No tunnel registered for the path.
    NoRoute(String),
    /// The outbound registration was refused by the fabric.
    Network(NetError),
    /// Tunnel closed by kill switch.
    Closed,
    /// Frame authentication failed.
    DecryptFailed,
}

impl std::fmt::Display for TunnelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TunnelError::NoRoute(p) => write!(f, "no tunnel for path {p}"),
            TunnelError::Network(e) => write!(f, "network refused: {e}"),
            TunnelError::Closed => write!(f, "tunnel closed"),
            TunnelError::DecryptFailed => write!(f, "tunnel frame authentication failed"),
        }
    }
}

impl std::error::Error for TunnelError {}

/// The backend handler a tunnel client exposes (e.g. the Jupyter
/// authenticator on a login node).
pub type Backend = Arc<dyn Fn(HttpRequest) -> HttpResponse + Send + Sync>;

struct Route {
    client_host: String,
    session_key: [u8; 32],
    backend: Backend,
    open: bool,
    /// Shared with in-flight requests, so counting one needs no write lock.
    requests_served: Arc<AtomicU64>,
}

/// The Zenith server (runs in FDS, Access zone).
pub struct TunnelServer {
    /// Fabric host id of the server.
    pub host_id: String,
    clock: SimClock,
    server_private: [u8; 32],
    /// The server's X25519 public key (clients use it in the handshake).
    pub server_public: [u8; 32],
    routes: RwLock<HashMap<String, Route>>,
    nonce_counter: AtomicU64,
}

impl TunnelServer {
    /// Create a server with a deterministic key.
    pub fn new(host_id: impl Into<String>, rng: &mut SimRng, clock: SimClock) -> TunnelServer {
        let server_private = x25519::clamp(rng.seed32());
        let server_public = x25519::public_key(&server_private);
        TunnelServer {
            host_id: host_id.into(),
            clock,
            server_private,
            server_public,
            routes: RwLock::new(HashMap::new()),
            nonce_counter: AtomicU64::new(0),
        }
    }

    /// A client in the MDC dials out and registers `path`. The fabric
    /// must allow `client_host -> server` on service `zenith`; the
    /// handshake derives the tunnel session key.
    pub fn register_tunnel(
        &self,
        network: &Network,
        client_host: &str,
        client_private: &[u8; 32],
        path: &str,
        backend: Backend,
    ) -> Result<(), TunnelError> {
        network
            .connect(client_host, &self.host_id, "zenith")
            .map_err(TunnelError::Network)?;
        let client_public = x25519::public_key(client_private);
        let shared = x25519::shared_secret(&self.server_private, &client_public);
        let mut session_key = [0u8; 32];
        hkdf::hkdf(b"dri-zenith-v1", &shared, path.as_bytes(), &mut session_key);
        self.routes.write().insert(
            path.to_string(),
            Route {
                client_host: client_host.to_string(),
                session_key,
                backend,
                open: true,
                requests_served: Arc::default(),
            },
        );
        Ok(())
    }

    /// Route an inbound request down the tunnel: encrypt the request
    /// frame, "transport" it, decrypt at the client end, call the
    /// backend, and return the response the same way. The encryption
    /// round-trip is executed for real so a corrupted frame fails.
    pub fn handle(&self, request: HttpRequest) -> Result<HttpResponse, TunnelError> {
        let _span = dri_trace::span_with(
            "tunnel.handle",
            dri_trace::Stage::Tunnel,
            &[("path", &request.path)],
        );
        let (key, backend, served) = {
            let routes = self.routes.read();
            // Longest-prefix route match.
            let route = routes
                .iter()
                .filter(|(p, _)| request.path.starts_with(p.as_str()))
                .max_by_key(|(p, _)| p.len())
                .map(|(_, r)| r)
                .ok_or_else(|| TunnelError::NoRoute(request.path.clone()))?;
            if !route.open {
                return Err(TunnelError::Closed);
            }
            (
                route.session_key,
                route.backend.clone(),
                route.requests_served.clone(),
            )
        };
        let mut nonce = [0u8; 12];
        let counter = self.nonce_counter.fetch_add(1, Ordering::Relaxed) + 1;
        nonce[..8].copy_from_slice(&counter.to_le_bytes());
        // Server -> client frame: ChaCha20-Poly1305 with the route path
        // bound as associated data.
        let frame = aead::seal(&key, &nonce, b"zenith-req", &request.to_bytes());

        // Client end: authenticate + decrypt + dispatch.
        let plain =
            aead::open(&key, &nonce, b"zenith-req", &frame).ok_or(TunnelError::DecryptFailed)?;
        let decoded = HttpRequest::from_bytes(&plain).ok_or(TunnelError::DecryptFailed)?;
        let response = backend(decoded);

        // Response returns over the same keyed channel.
        let mut resp_nonce = nonce;
        resp_nonce[11] ^= 0x80; // distinct nonce for the reverse direction
        let resp_frame = aead::seal(&key, &resp_nonce, b"zenith-resp", &response.body);
        let resp_plain = aead::open(&key, &resp_nonce, b"zenith-resp", &resp_frame)
            .ok_or(TunnelError::DecryptFailed)?;

        served.fetch_add(1, Ordering::Relaxed);
        let _ = self.clock.now_ms();
        Ok(HttpResponse {
            status: response.status,
            body: resp_plain,
        })
    }

    /// Kill switch: close one tunnel.
    pub fn close_tunnel(&self, path: &str) -> bool {
        match self.routes.write().get_mut(path) {
            Some(r) => {
                r.open = false;
                true
            }
            None => false,
        }
    }

    /// Reopen a tunnel (client re-dial).
    pub fn reopen_tunnel(&self, path: &str) {
        if let Some(r) = self.routes.write().get_mut(path) {
            r.open = true;
        }
    }

    /// Kill switch: close everything.
    pub fn close_all(&self) -> usize {
        let mut routes = self.routes.write();
        let n = routes.values().filter(|r| r.open).count();
        for r in routes.values_mut() {
            r.open = false;
        }
        n
    }

    /// Requests served through a path so far.
    pub fn requests_served(&self, path: &str) -> u64 {
        self.routes
            .read()
            .get(path)
            .map_or(0, |r| r.requests_served.load(Ordering::Relaxed))
    }

    /// Which MDC host terminates a path.
    pub fn client_host(&self, path: &str) -> Option<String> {
        self.routes.read().get(path).map(|r| r.client_host.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Domain, Selector, Zone};

    fn fabric(clock: &SimClock) -> Network {
        let net = Network::new(clock.clone());
        net.add_host("mdc/login01", Domain::Mdc, Zone::Hpc, &["jupyter-auth"]);
        net.add_host(
            "fds/zenith",
            Domain::Fds,
            Zone::Access,
            &["zenith", "https"],
        );
        net.allow(
            "mdc outbound zenith",
            Selector::DomainZone(Domain::Mdc, Zone::Hpc),
            Selector::Host("fds/zenith".into()),
            "zenith",
        );
        net
    }

    fn backend_echo() -> Backend {
        Arc::new(|req: HttpRequest| HttpResponse {
            status: 200,
            body: format!("served {}", req.path).into_bytes(),
        })
    }

    #[test]
    fn request_roundtrip_through_tunnel() {
        let clock = SimClock::new();
        let net = fabric(&clock);
        let mut rng = SimRng::seed_from_u64(1);
        let server = TunnelServer::new("fds/zenith", &mut rng, clock.clone());
        let client_private = x25519::clamp(rng.seed32());
        server
            .register_tunnel(
                &net,
                "mdc/login01",
                &client_private,
                "/jupyter",
                backend_echo(),
            )
            .unwrap();

        let resp = server
            .handle(HttpRequest {
                path: "/jupyter/lab".into(),
                headers: vec![("x-auth-token".into(), "tok".into())],
                body: b"hello".to_vec(),
            })
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"served /jupyter/lab");
        assert_eq!(server.requests_served("/jupyter"), 1);
        assert_eq!(
            server.client_host("/jupyter").as_deref(),
            Some("mdc/login01")
        );
    }

    #[test]
    fn registration_respects_fabric() {
        let clock = SimClock::new();
        let net = fabric(&clock);
        // A host with no outbound allow rule.
        net.add_host("mdc/mgmt01", Domain::Mdc, Zone::Management, &[]);
        let mut rng = SimRng::seed_from_u64(2);
        let server = TunnelServer::new("fds/zenith", &mut rng, clock);
        let pk = x25519::clamp(rng.seed32());
        assert_eq!(
            server.register_tunnel(&net, "mdc/mgmt01", &pk, "/x", backend_echo()),
            Err(TunnelError::Network(NetError::Denied))
        );
    }

    #[test]
    fn unrouted_path_404s() {
        let clock = SimClock::new();
        let mut rng = SimRng::seed_from_u64(3);
        let server = TunnelServer::new("fds/zenith", &mut rng, clock.clone());
        assert_eq!(
            server.handle(HttpRequest {
                path: "/nope".into(),
                headers: vec![],
                body: vec![]
            }),
            Err(TunnelError::NoRoute("/nope".into()))
        );
    }

    #[test]
    fn kill_switch_closes_and_reopens() {
        let clock = SimClock::new();
        let net = fabric(&clock);
        let mut rng = SimRng::seed_from_u64(4);
        let server = TunnelServer::new("fds/zenith", &mut rng, clock);
        let pk = x25519::clamp(rng.seed32());
        server
            .register_tunnel(&net, "mdc/login01", &pk, "/jupyter", backend_echo())
            .unwrap();
        assert!(server.close_tunnel("/jupyter"));
        assert_eq!(
            server.handle(HttpRequest {
                path: "/jupyter".into(),
                headers: vec![],
                body: vec![]
            }),
            Err(TunnelError::Closed)
        );
        server.reopen_tunnel("/jupyter");
        assert!(server
            .handle(HttpRequest {
                path: "/jupyter".into(),
                headers: vec![],
                body: vec![]
            })
            .is_ok());
        // close_all counts open tunnels.
        assert_eq!(server.close_all(), 1);
    }

    #[test]
    fn longest_prefix_routing() {
        let clock = SimClock::new();
        let net = fabric(&clock);
        let mut rng = SimRng::seed_from_u64(5);
        let server = TunnelServer::new("fds/zenith", &mut rng, clock);
        let pk1 = x25519::clamp(rng.seed32());
        let pk2 = x25519::clamp(rng.seed32());
        let backend_a: Backend = Arc::new(|_| HttpResponse {
            status: 200,
            body: b"A".to_vec(),
        });
        let backend_b: Backend = Arc::new(|_| HttpResponse {
            status: 200,
            body: b"B".to_vec(),
        });
        server
            .register_tunnel(&net, "mdc/login01", &pk1, "/app", backend_a)
            .unwrap();
        server
            .register_tunnel(&net, "mdc/login01", &pk2, "/app/deep", backend_b)
            .unwrap();
        assert_eq!(
            server
                .handle(HttpRequest {
                    path: "/app/deep/page".into(),
                    headers: vec![],
                    body: vec![]
                })
                .unwrap()
                .body,
            b"B"
        );
        assert_eq!(
            server
                .handle(HttpRequest {
                    path: "/app/other".into(),
                    headers: vec![],
                    body: vec![]
                })
                .unwrap()
                .body,
            b"A"
        );
    }

    #[test]
    fn request_codec_roundtrip() {
        let req = HttpRequest {
            path: "/jupyter".into(),
            headers: vec![
                ("x-auth-token".into(), "abc.def.ghi".into()),
                ("host".into(), "example.com".into()),
            ],
            body: vec![1, 2, 3, 0, 255],
        };
        let encoded = req.to_bytes();
        assert_eq!(HttpRequest::from_bytes(&encoded), Some(req));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The frame decoder sees whatever a peer put in an authenticated
        /// frame: arbitrary, truncated and near-valid bytes must decode or
        /// be refused, never panic. The inputs derive from the seed alone
        /// (the vendored proptest does not shrink), so a failure names the
        /// seed to replay.
        #[test]
        fn request_decoder_never_panics(seed in proptest::prelude::any::<u64>()) {
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as usize
            };
            // The separators and a few bytes around them are the ones
            // that matter to the decoder.
            const POOL: [u8; 8] = [0, 1, 2, b'a', b'/', 0xc3, 0xa9, 0xff];
            let text = |next: &mut dyn FnMut() -> usize| -> String {
                (0..next() % 12).map(|_| ['a', '/', 'é', '-', '\u{1}'][next() % 5]).collect()
            };
            let req = HttpRequest {
                path: text(&mut next),
                headers: (0..next() % 4).map(|_| (text(&mut next), text(&mut next))).collect(),
                body: (0..next() % 24).map(|_| POOL[next() % POOL.len()]).collect(),
            };
            let valid = req.to_bytes();
            let mut inputs = vec![valid.clone(), Vec::new()];
            // Every truncation of the valid encoding.
            inputs.extend((0..valid.len()).map(|n| valid[..n].to_vec()));
            // Near-valid: a few byte edits drawn from the separator pool.
            for _ in 0..8 {
                let mut edited = valid.clone();
                for _ in 0..1 + next() % 3 {
                    let at = next() % (edited.len() + 1);
                    let byte = POOL[next() % POOL.len()];
                    match next() % 3 {
                        0 if at < edited.len() => edited[at] = byte,
                        1 if at < edited.len() => {
                            edited.remove(at);
                        }
                        _ => edited.insert(at, byte),
                    }
                }
                inputs.push(edited);
            }
            // Arbitrary bytes.
            inputs.extend((0..4).map(|_| (0..next() % 48).map(|_| next() as u8).collect()));
            for input in &inputs {
                let outcome = std::panic::catch_unwind(|| HttpRequest::from_bytes(input));
                proptest::prop_assert!(outcome.is_ok(), "seed {seed}: panicked on {input:?}");
            }
            // A request whose text has no separator bytes round-trips.
            let plain = |s: &str| !s.bytes().any(|b| b <= 2);
            if plain(&req.path) && req.headers.iter().all(|(k, v)| plain(k) && plain(v)) {
                proptest::prop_assert_eq!(HttpRequest::from_bytes(&valid), Some(req));
            }
        }
    }
}
