//! # dri-cluster — the supercomputer substrate
//!
//! Enough of an HPC system that every user story terminates in a real
//! resource action rather than a stub:
//!
//! * [`slurm`] — a miniature batch scheduler: partitions, FIFO + backfill
//!   scheduling, walltime enforcement, per-project usage accounting (an
//!   sreport-style summary);
//! * [`login`] — login nodes: provisioned per-project UNIX accounts, SSH
//!   sessions authenticated by CA-signed certificates *and* a live
//!   challenge against the user's key (possession proof);
//! * [`jupyter`] — the notebook service: an authenticator that validates
//!   broker JWTs from the `x-auth-token` header against the broker JWKS,
//!   and a spawner that places notebook sessions on compute nodes;
//! * [`mgmt`] — the management plane: privileged operations require an
//!   admin token *and* arrival via the admin tailnet (transport check),
//!   modelling the paper's layered enforcement in user story 5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jupyter;
pub mod login;
pub mod mgmt;
pub mod slurm;

pub use jupyter::{JupyterError, JupyterService, NotebookSession};
pub use login::{LoginError, LoginNode, ShellSession};
pub use mgmt::{ManagementPlane, MgmtError, MgmtOp, TransportPath};
pub use slurm::{Job, JobState, Partition, ProjectAccounting, Scheduler, SubmitError};
