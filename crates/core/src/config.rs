//! Configuration for the assembled infrastructure.

use dri_siem::DetectionConfig;

/// TTL of `ssh-ca` tokens (seconds).
pub const SSH_TOKEN_TTL_SECS: u64 = 900;
/// TTL of `jupyter` and `slurm` tokens (seconds).
pub const JUPYTER_TOKEN_TTL_SECS: u64 = 900;
/// TTL of admin tokens (`mgmt-tailnet`, `mgmt-cluster`) (seconds).
pub const ADMIN_TOKEN_TTL_SECS: u64 = 600;
/// Tailnet enrolment lease (seconds).
pub const TAILNET_LEASE_SECS: u64 = 4 * 3600;
/// Compute partition size (nodes): Isambard-AI phase 1, 168 GH200 nodes.
pub const COMPUTE_NODES: u32 = 168;

/// Validation failures from [`InfraConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A field that must be at least 1 was zero.
    MustBeNonZero(&'static str),
    /// `broker_shards` outside the supported `1..=1024` range.
    ShardsOutOfRange(usize),
    /// `broker_shards` must be a power of two so the subject-hash
    /// routing is a mask, and so `shard_count()` reports exactly what
    /// was requested (the shard maps round up otherwise).
    ShardsNotPowerOfTwo(usize),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::MustBeNonZero(field) => write!(f, "{field} must be at least 1"),
            ConfigError::ShardsOutOfRange(n) => {
                write!(f, "broker_shards {n} outside 1..=1024")
            }
            ConfigError::ShardsNotPowerOfTwo(n) => {
                write!(f, "broker_shards {n} is not a power of two")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Tunable parameters of the co-design. `Default` matches the deployment
/// the paper describes; experiments vary individual fields, either
/// directly or through the validating [`InfraConfig::builder`]. Values
/// no experiment varies are the constants of this module.
#[derive(Debug, Clone)]
pub struct InfraConfig {
    /// Master determinism seed.
    pub seed: u64,
    /// Interactive broker-session lifetime (seconds).
    pub session_ttl_secs: u64,
    /// SSH certificate lifetime (seconds).
    pub cert_ttl_secs: u64,
    /// Bastion HA instances.
    pub bastion_instances: usize,
    /// Jupyter concurrent-session capacity.
    pub jupyter_capacity: usize,
    /// Interactive partition size (nodes).
    pub interactive_nodes: u32,
    /// Edge requests-per-window threshold per source.
    pub edge_threshold: usize,
    /// Shards for the broker's session/token maps (rounded to a power of
    /// two; 1 reproduces a single coarse lock).
    pub broker_shards: usize,
    /// SIEM detection thresholds.
    pub detection: DetectionConfig,
    /// Enable flow tracing (trace-id minting and span collection, from
    /// which the per-stage latency summaries are read). On in the paper's
    /// deployment; E9 toggles it off to measure the tracing overhead.
    pub tracing: bool,
    /// Enable the verification caches (verified-token cache and PDP
    /// decision memo). On in the paper's deployment; the login-storm
    /// benchmark toggles it off for the cold baseline. Off, every
    /// token validation pays the full Ed25519 verify and every PDP
    /// consultation re-runs the trust algorithm.
    pub verification_cache: bool,
}

impl Default for InfraConfig {
    fn default() -> Self {
        InfraConfig {
            seed: 42,
            session_ttl_secs: 8 * 3600,
            cert_ttl_secs: 8 * 3600,
            bastion_instances: 3,
            jupyter_capacity: 256,
            interactive_nodes: 64,
            edge_threshold: 50,
            broker_shards: 16,
            detection: DetectionConfig::default(),
            tracing: true,
            verification_cache: true,
        }
    }
}

impl InfraConfig {
    /// Start a validating builder seeded with the paper-deployment
    /// defaults.
    pub fn builder() -> InfraConfigBuilder {
        InfraConfigBuilder {
            cfg: InfraConfig::default(),
        }
    }
}

/// Builder for [`InfraConfig`] that validates the experiment-tuned
/// fields before the infrastructure is assembled, so a bad sweep value
/// fails with a typed error instead of a mid-run panic.
#[derive(Debug, Clone)]
pub struct InfraConfigBuilder {
    cfg: InfraConfig,
}

impl InfraConfigBuilder {
    /// Set the determinism seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Set the Jupyter concurrent-session capacity.
    pub fn jupyter_capacity(mut self, capacity: usize) -> Self {
        self.cfg.jupyter_capacity = capacity;
        self
    }

    /// Set the interactive partition size.
    pub fn interactive_nodes(mut self, nodes: u32) -> Self {
        self.cfg.interactive_nodes = nodes;
        self
    }

    /// Set the edge requests-per-window threshold.
    pub fn edge_threshold(mut self, threshold: usize) -> Self {
        self.cfg.edge_threshold = threshold;
        self
    }

    /// Set the broker shard count (1 = coarse-lock baseline).
    pub fn broker_shards(mut self, shards: usize) -> Self {
        self.cfg.broker_shards = shards;
        self
    }

    /// Toggle the verification caches (the login-storm benchmark's cold
    /// baseline turns them off).
    pub fn verification_cache(mut self, enabled: bool) -> Self {
        self.cfg.verification_cache = enabled;
        self
    }

    /// Toggle flow tracing (E9's overhead experiment turns it off).
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.cfg.tracing = enabled;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<InfraConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.jupyter_capacity == 0 {
            return Err(ConfigError::MustBeNonZero("jupyter_capacity"));
        }
        if cfg.interactive_nodes == 0 {
            return Err(ConfigError::MustBeNonZero("interactive_nodes"));
        }
        if cfg.edge_threshold == 0 {
            return Err(ConfigError::MustBeNonZero("edge_threshold"));
        }
        if cfg.broker_shards == 0 || cfg.broker_shards > 1024 {
            return Err(ConfigError::ShardsOutOfRange(cfg.broker_shards));
        }
        if !cfg.broker_shards.is_power_of_two() {
            return Err(ConfigError::ShardsNotPowerOfTwo(cfg.broker_shards));
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_deployment() {
        let c = InfraConfig::default();
        assert_eq!(COMPUTE_NODES, 168);
        assert_eq!(c.bastion_instances, 3);
        const { assert!(SSH_TOKEN_TTL_SECS <= 3600, "tokens are short-lived") };
        assert!(c.cert_ttl_secs <= 24 * 3600, "certs are short-lived");
    }

    #[test]
    fn builder_defaults_build_cleanly() {
        let c = InfraConfig::builder().build().unwrap();
        assert_eq!(c.seed, InfraConfig::default().seed);
        assert_eq!(c.broker_shards, 16);
    }

    #[test]
    fn builder_applies_settings() {
        let c = InfraConfig::builder()
            .seed(7)
            .jupyter_capacity(4096)
            .interactive_nodes(4096)
            .edge_threshold(usize::MAX / 2)
            .broker_shards(1)
            .tracing(false)
            .build()
            .unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(c.jupyter_capacity, 4096);
        assert_eq!(c.interactive_nodes, 4096);
        assert_eq!(c.broker_shards, 1);
        assert!(!c.tracing);
    }

    #[test]
    fn builder_rejects_bad_values() {
        assert_eq!(
            InfraConfig::builder()
                .jupyter_capacity(0)
                .build()
                .unwrap_err(),
            ConfigError::MustBeNonZero("jupyter_capacity")
        );
        assert_eq!(
            InfraConfig::builder()
                .interactive_nodes(0)
                .build()
                .unwrap_err(),
            ConfigError::MustBeNonZero("interactive_nodes")
        );
        assert_eq!(
            InfraConfig::builder()
                .edge_threshold(0)
                .build()
                .unwrap_err(),
            ConfigError::MustBeNonZero("edge_threshold")
        );
        assert_eq!(
            InfraConfig::builder()
                .broker_shards(2048)
                .build()
                .unwrap_err(),
            ConfigError::ShardsOutOfRange(2048)
        );
        assert_eq!(
            InfraConfig::builder().broker_shards(3).build().unwrap_err(),
            ConfigError::ShardsNotPowerOfTwo(3)
        );
    }
}
