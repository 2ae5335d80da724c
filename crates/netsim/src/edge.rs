//! The Cloudflare-style zero-trust edge in front of the tunnel server.
//!
//! Provides what the paper leans on Cloudflare tunnels for: the origin
//! (FDS Kubernetes VPC) is never directly internet-accessible; the edge
//! absorbs and blocks DDoS traffic via per-source rate scoring and a
//! manual blocklist, and only clean requests are forwarded to the tunnel
//! server.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dri_clock::SimClock;
use dri_sync::{ShardMap, ShardSet};

use crate::tunnel::{HttpRequest, HttpResponse, TunnelError, TunnelServer};

/// Shard count for the per-source rate windows and blocklists.
const EDGE_SHARDS: usize = 16;

/// Edge failures returned to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeError {
    /// Source exceeded the rate threshold (DDoS mitigation).
    RateLimited,
    /// Source is on the blocklist.
    Blocked,
    /// The origin tunnel failed.
    Origin(TunnelError),
    /// Edge disabled (maintenance kill switch).
    Down,
}

impl std::fmt::Display for EdgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeError::RateLimited => write!(f, "rate limited"),
            EdgeError::Blocked => write!(f, "source blocked"),
            EdgeError::Origin(e) => write!(f, "origin error: {e}"),
            EdgeError::Down => write!(f, "edge disabled"),
        }
    }
}

impl std::error::Error for EdgeError {}

/// The edge proxy.
///
/// Rate windows and blocklists are sharded by source address, so a login
/// storm arriving from many sources scores rates under many different
/// locks; the served/rejected counters are atomics.
pub struct EdgeProxy {
    clock: SimClock,
    /// Window length for rate scoring (ms).
    pub window_ms: u64,
    /// Requests per window per source before mitigation kicks in.
    pub threshold: usize,
    /// Sliding-window request timestamps per source.
    windows: ShardMap<VecDeque<u64>>,
    blocklist: ShardSet,
    auto_blocked: ShardSet,
    down: AtomicBool,
    served: AtomicU64,
    rejected: AtomicU64,
    faults: dri_fault::FaultHook,
}

impl EdgeProxy {
    /// Create an edge with a rate threshold of `threshold` requests per
    /// `window_ms` per source. Outages of component `edge` on `faults` make
    /// [`handle`](EdgeProxy::handle) fail with [`EdgeError::Down`], as if
    /// the maintenance kill switch were on.
    pub fn new(
        clock: SimClock,
        window_ms: u64,
        threshold: usize,
        faults: dri_fault::FaultHook,
    ) -> EdgeProxy {
        EdgeProxy {
            clock,
            window_ms,
            threshold,
            windows: ShardMap::new(EDGE_SHARDS),
            blocklist: ShardSet::new(EDGE_SHARDS),
            auto_blocked: ShardSet::new(EDGE_SHARDS),
            down: AtomicBool::new(false),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            faults,
        }
    }

    /// Handle a request from `source` (an IP-like identifier), forwarding
    /// to the tunnel-server origin when clean.
    pub fn handle(
        &self,
        origin: &TunnelServer,
        source: &str,
        request: HttpRequest,
    ) -> Result<HttpResponse, EdgeError> {
        let _span = dri_trace::span("edge.handle", dri_trace::Stage::Edge);
        if self.faults.check("edge").is_err() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(EdgeError::Down);
        }
        let now = self.clock.now_ms();
        if self.down.load(Ordering::Acquire) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(EdgeError::Down);
        }
        if self.blocklist.contains(source) || self.auto_blocked.contains(source) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(EdgeError::Blocked);
        }
        // Rate scoring holds only this source's shard lock.
        let over_rate = self.windows.upsert(source, |window| {
            while window
                .front()
                .is_some_and(|t| now.saturating_sub(*t) > self.window_ms)
            {
                window.pop_front();
            }
            window.push_back(now);
            window.len() > self.threshold
        });
        if over_rate {
            // Automatic mitigation: block the source outright.
            self.auto_blocked.insert(source.to_string());
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(EdgeError::RateLimited);
        }
        self.served.fetch_add(1, Ordering::Relaxed);
        origin.handle(request).map_err(EdgeError::Origin)
    }

    /// Manually block a source.
    pub fn block(&self, source: &str) {
        self.blocklist.insert(source.to_string());
    }

    /// Unblock a source (manual or automatic block).
    pub fn unblock(&self, source: &str) {
        self.blocklist.remove(source);
        self.auto_blocked.remove(source);
    }

    /// Maintenance kill switch.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::Release);
    }

    /// (served, rejected) counters.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.served.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
        )
    }

    /// Sources currently auto-blocked by the rate scorer.
    pub fn auto_blocked_count(&self) -> usize {
        self.auto_blocked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Domain, Network, Selector, Zone};
    use dri_clock::SimRng;
    use dri_crypto::x25519;
    use std::sync::Arc;

    fn setup() -> (SimClock, EdgeProxy, TunnelServer) {
        let clock = SimClock::new();
        let net = Network::new(clock.clone());
        net.add_host("mdc/login01", Domain::Mdc, Zone::Hpc, &[]);
        net.add_host("fds/zenith", Domain::Fds, Zone::Access, &["zenith"]);
        net.allow(
            "mdc->zenith",
            Selector::InDomain(Domain::Mdc),
            Selector::Host("fds/zenith".into()),
            "zenith",
        );
        let mut rng = SimRng::seed_from_u64(1);
        let server = TunnelServer::new("fds/zenith", &mut rng);
        let pk = x25519::clamp(rng.seed32());
        server
            .register_tunnel(
                &net,
                "mdc/login01",
                &pk,
                "/jupyter",
                Arc::new(|_| HttpResponse {
                    status: 200,
                    body: b"ok".to_vec(),
                }),
            )
            .unwrap();
        let edge = EdgeProxy::new(clock.clone(), 1000, 10, dri_fault::FaultHook::default());
        (clock, edge, server)
    }

    fn req() -> HttpRequest {
        HttpRequest {
            path: "/jupyter".into(),
            headers: vec![],
            body: vec![],
        }
    }

    #[test]
    fn clean_traffic_flows() {
        let (_clock, edge, server) = setup();
        let resp = edge.handle(&server, "198.51.100.7", req()).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(edge.stats(), (1, 0));
    }

    #[test]
    fn ddos_source_gets_auto_blocked() {
        let (clock, edge, server) = setup();
        // 10 requests within the window are fine.
        for _ in 0..10 {
            clock.advance(10);
            edge.handle(&server, "203.0.113.9", req()).unwrap();
        }
        // The 11th trips mitigation.
        assert_eq!(
            edge.handle(&server, "203.0.113.9", req()),
            Err(EdgeError::RateLimited)
        );
        // And the source stays blocked even after the window passes.
        clock.advance(10_000);
        assert_eq!(
            edge.handle(&server, "203.0.113.9", req()),
            Err(EdgeError::Blocked)
        );
        assert_eq!(edge.auto_blocked_count(), 1);
        // Other sources are unaffected.
        assert!(edge.handle(&server, "198.51.100.7", req()).is_ok());
        // Until an operator unblocks.
        edge.unblock("203.0.113.9");
        assert!(edge.handle(&server, "203.0.113.9", req()).is_ok());
    }

    #[test]
    fn slow_traffic_never_trips() {
        let (clock, edge, server) = setup();
        for _ in 0..50 {
            clock.advance(200); // 5 rps, under 10-per-second threshold
            edge.handle(&server, "198.51.100.8", req()).unwrap();
        }
        assert_eq!(edge.auto_blocked_count(), 0);
    }

    #[test]
    fn manual_blocklist() {
        let (_clock, edge, server) = setup();
        edge.block("192.0.2.1");
        assert_eq!(
            edge.handle(&server, "192.0.2.1", req()),
            Err(EdgeError::Blocked)
        );
        let (_, rejected) = edge.stats();
        assert_eq!(rejected, 1);
    }

    #[test]
    fn down_edge_rejects_everything() {
        let (_clock, edge, server) = setup();
        edge.set_down(true);
        assert_eq!(
            edge.handle(&server, "198.51.100.7", req()),
            Err(EdgeError::Down)
        );
        edge.set_down(false);
        assert!(edge.handle(&server, "198.51.100.7", req()).is_ok());
    }

    #[test]
    fn origin_errors_propagate() {
        let (_clock, edge, server) = setup();
        server.close_tunnel("/jupyter");
        assert_eq!(
            edge.handle(&server, "198.51.100.7", req()),
            Err(EdgeError::Origin(TunnelError::Closed))
        );
    }
}
