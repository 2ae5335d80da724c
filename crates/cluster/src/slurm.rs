//! A miniature Slurm: partitions, job queue, FIFO + backfill scheduling,
//! walltime enforcement, and per-project usage accounting.
//!
//! The job table holds live jobs only, as Slurm's does: a job leaves it
//! when it completes or is cancelled, and lives on only in the
//! per-project accounting that [`Scheduler::accounting_report`] reads
//! (Slurm's `sacct`).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use dri_clock::{IdGen, SimClock};
use parking_lot::RwLock;

/// Lifecycle of a job in the table; a finished job leaves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Queued, awaiting nodes.
    Pending,
    /// Running on allocated nodes.
    Running,
}

/// A batch job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Job id (`job-000001`).
    pub id: String,
    /// UNIX account that submitted.
    pub user: String,
    /// Project charged.
    pub project: String,
    /// Partition name.
    pub partition: String,
    /// Nodes requested.
    pub nodes: u32,
    /// Maximum runtime in seconds.
    pub walltime_secs: u64,
    /// State.
    pub state: JobState,
    /// Submit time (seconds).
    pub submitted_at: u64,
    /// Start time (seconds), when running.
    pub started_at: Option<u64>,
}

/// A partition (named pool of nodes).
#[derive(Debug, Clone)]
pub struct Partition {
    /// Partition name (`gh-grace-hopper`).
    pub name: String,
    /// Total nodes.
    pub total_nodes: u32,
    /// Nodes currently allocated.
    pub allocated_nodes: u32,
    /// Max nodes a single job may request.
    pub max_nodes_per_job: u32,
    /// Drained partitions accept submissions but start no new jobs.
    pub drained: bool,
}

/// Submission failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No such partition.
    UnknownPartition(String),
    /// More nodes than the partition allows per job.
    TooManyNodes,
    /// Zero nodes or zero walltime.
    InvalidRequest,
    /// The scheduler daemon is unreachable (fault-plane outage). New
    /// submissions fail closed; already-running jobs are unaffected.
    SchedulerUnavailable,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownPartition(p) => write!(f, "unknown partition {p}"),
            SubmitError::TooManyNodes => write!(f, "request exceeds per-job node limit"),
            SubmitError::InvalidRequest => write!(f, "invalid request"),
            SubmitError::SchedulerUnavailable => write!(f, "scheduler unavailable"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Default)]
struct SchedState {
    partitions: HashMap<String, Partition>,
    /// Pending and running jobs only.
    jobs: HashMap<String, Job>,
    queue: Vec<String>,
    /// What each project's finished jobs consumed over the scheduler's
    /// life, read by `accounting_report`.
    usage: HashMap<String, ProjectUsage>,
    /// Walltime expiry min-heap of `(deadline_secs, job_id)` for running
    /// jobs, so `tick` completes jobs in O(expired log n) instead of
    /// scanning every job. A cancelled job's entry goes stale: it is
    /// discarded on pop, or when stale entries outnumber the running jobs
    /// (`purge_stale_deadlines`).
    deadlines: BinaryHeap<Reverse<(u64, String)>>,
    /// Entries of `deadlines` whose job was cancelled while running.
    stale_deadlines: usize,
}

/// One project's finished jobs, folded in as each one leaves the table.
#[derive(Default)]
struct ProjectUsage {
    node_secs: u64,
    completed: usize,
    cancelled: usize,
}

impl SchedState {
    /// Take a finished job out of the table, freeing its nodes when it
    /// ran `ran_secs`, and fold it into its project's usage.
    fn finish(&mut self, job_id: &str, ran_secs: Option<u64>, completed: bool) {
        let Some(job) = self.jobs.remove(job_id) else {
            return;
        };
        if ran_secs.is_some() {
            if let Some(p) = self.partitions.get_mut(&job.partition) {
                p.allocated_nodes -= job.nodes;
            }
        }
        // The removed job's project string becomes the key, so folding
        // in never allocates.
        let usage = self.usage.entry(job.project).or_default();
        usage.node_secs += ran_secs.unwrap_or(0) * job.nodes as u64;
        if completed {
            usage.completed += 1;
        } else {
            usage.cancelled += 1;
        }
    }

    /// Drop the stale walltime entries once they outnumber the running
    /// jobs, so the heap holds at most twice the running jobs.
    fn purge_stale_deadlines(&mut self) {
        let running = self.deadlines.len() - self.stale_deadlines;
        if self.stale_deadlines > running {
            let jobs = &self.jobs;
            self.deadlines
                .retain(|Reverse((_, id))| jobs.contains_key(id));
            self.stale_deadlines = 0;
        }
    }
}

/// Per-project accounting row (sreport-like).
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectAccounting {
    /// Project name.
    pub project: String,
    /// Lifetime node-hours consumed.
    pub node_hours: f64,
    /// Completed job count.
    pub completed: usize,
    /// Cancelled job count.
    pub cancelled: usize,
    /// Running job count.
    pub running: usize,
    /// Pending job count.
    pub pending: usize,
}

/// The scheduler daemon.
pub struct Scheduler {
    clock: SimClock,
    state: RwLock<SchedState>,
    ids: IdGen,
    /// Fault-plane hook consulted on submission (component `slurm`). An
    /// active fault makes *new* submissions fail closed; `tick`/`cancel`
    /// stay fault-free so running jobs survive a scheduler outage.
    faults: dri_fault::FaultHook,
}

impl Scheduler {
    /// Create a scheduler consulting `faults` on submission.
    pub fn new(clock: SimClock, faults: dri_fault::FaultHook) -> Scheduler {
        Scheduler {
            clock,
            state: RwLock::new(SchedState::default()),
            ids: IdGen::new("job"),
            faults,
        }
    }

    /// Add a partition.
    pub fn add_partition(&self, name: &str, total_nodes: u32, max_nodes_per_job: u32) {
        self.state.write().partitions.insert(
            name.to_string(),
            Partition {
                name: name.to_string(),
                total_nodes,
                allocated_nodes: 0,
                max_nodes_per_job,
                drained: false,
            },
        );
    }

    /// Submit a job (authentication/authorisation already happened at the
    /// login node / Jupyter layer).
    pub fn submit(
        &self,
        user: &str,
        project: &str,
        partition: &str,
        nodes: u32,
        walltime_secs: u64,
    ) -> Result<String, SubmitError> {
        let _span = dri_trace::span_with(
            "slurm.submit",
            dri_trace::Stage::Cluster,
            &[("partition", partition)],
        );
        self.faults
            .check("slurm")
            .map_err(|_| SubmitError::SchedulerUnavailable)?;
        if nodes == 0 || walltime_secs == 0 {
            return Err(SubmitError::InvalidRequest);
        }
        let mut state = self.state.write();
        let part = state
            .partitions
            .get(partition)
            .ok_or_else(|| SubmitError::UnknownPartition(partition.to_string()))?;
        if nodes > part.max_nodes_per_job || nodes > part.total_nodes {
            return Err(SubmitError::TooManyNodes);
        }
        let job = Job {
            id: self.ids.next(),
            user: user.to_string(),
            project: project.to_string(),
            partition: partition.to_string(),
            nodes,
            walltime_secs,
            state: JobState::Pending,
            submitted_at: self.clock.now_secs(),
            started_at: None,
        };
        let id = job.id.clone();
        state.queue.push(id.clone());
        state.jobs.insert(id.clone(), job);
        Ok(id)
    }

    /// One scheduling pass: complete jobs past walltime, then start
    /// pending jobs FIFO with backfill (a later job may start if the head
    /// doesn't fit but it does).
    pub fn tick(&self) {
        let now = self.clock.now_secs();
        let mut state = self.state.write();

        // Completions first (frees nodes): pop expired deadlines from the
        // min-heap; stale entries (cancelled jobs) are skipped.
        while state
            .deadlines
            .peek()
            .is_some_and(|Reverse((deadline, _))| *deadline <= now)
        {
            let Reverse((_, job_id)) = state.deadlines.pop().expect("peeked");
            match state.jobs.get(&job_id) {
                Some(job) => {
                    let walltime = job.walltime_secs;
                    state.finish(&job_id, Some(walltime), true);
                }
                None => state.stale_deadlines -= 1,
            }
        }
        state.purge_stale_deadlines();

        // Starts: FIFO with backfill.
        let queue = std::mem::take(&mut state.queue);
        let mut still_queued = Vec::with_capacity(queue.len());
        for job_id in queue {
            // The queue holds pending jobs only: `cancel` takes a
            // cancelled one out of both.
            let (partition, nodes) = {
                let job = &state.jobs[&job_id];
                (job.partition.clone(), job.nodes)
            };
            let fits = state
                .partitions
                .get(&partition)
                .map(|p| !p.drained && p.allocated_nodes + nodes <= p.total_nodes)
                .unwrap_or(false);
            if fits {
                if let Some(p) = state.partitions.get_mut(&partition) {
                    p.allocated_nodes += nodes;
                }
                let deadline = {
                    let job = state.jobs.get_mut(&job_id).expect("exists");
                    job.state = JobState::Running;
                    job.started_at = Some(now);
                    now + job.walltime_secs
                };
                state.deadlines.push(Reverse((deadline, job_id)));
            } else {
                still_queued.push(job_id);
            }
        }
        state.queue = still_queued;
    }

    /// Cancel a job (user or kill switch). Frees nodes when running.
    pub fn cancel(&self, job_id: &str) -> bool {
        let now = self.clock.now_secs();
        let mut state = self.state.write();
        let Some(started_at) = state.jobs.get(job_id).map(|j| j.started_at) else {
            return false;
        };
        state.finish(job_id, started_at.map(|s| now.saturating_sub(s)), false);
        match started_at {
            Some(_) => {
                state.stale_deadlines += 1;
                state.purge_stale_deadlines();
            }
            None => state.queue.retain(|id| id != job_id),
        }
        true
    }

    /// Cancel every job belonging to a UNIX account (kill switch).
    pub fn cancel_user_jobs(&self, user: &str) -> usize {
        let ids: Vec<String> = {
            let state = self.state.read();
            state
                .jobs
                .values()
                .filter(|j| j.user == user)
                .map(|j| j.id.clone())
                .collect()
        };
        ids.iter().filter(|id| self.cancel(id)).count()
    }

    /// A pending or running job. A job that completed or was cancelled
    /// has left the table: it is `None` here and counted in
    /// [`Scheduler::accounting_report`].
    pub fn job(&self, id: &str) -> Option<Job> {
        self.state.read().jobs.get(id).cloned()
    }

    /// Entries in the job table and in the walltime heap. The table holds
    /// only pending and running jobs; the heap at most twice the running
    /// jobs.
    pub fn table_sizes(&self) -> (usize, usize) {
        let state = self.state.read();
        (state.jobs.len(), state.deadlines.len())
    }

    /// Partition snapshot.
    pub fn partition(&self, name: &str) -> Option<Partition> {
        self.state.read().partitions.get(name).cloned()
    }

    /// Drain or undrain a partition (admin operation): drained partitions
    /// keep running jobs but start no new ones. Returns false for an
    /// unknown partition.
    pub fn set_drained(&self, name: &str, drained: bool) -> bool {
        match self.state.write().partitions.get_mut(name) {
            Some(p) => {
                p.drained = drained;
                true
            }
            None => false,
        }
    }

    /// An sreport-style accounting summary: per project, lifetime
    /// node-hours plus (completed, cancelled, running, pending) job
    /// counts, sorted by project name. Finished jobs are read from the
    /// per-project usage they were folded into, live ones from the table.
    pub fn accounting_report(&self) -> Vec<ProjectAccounting> {
        let state = self.state.read();
        let mut by_project: HashMap<&str, ProjectAccounting> = HashMap::new();
        let empty = |project: &str| ProjectAccounting {
            project: project.to_string(),
            node_hours: 0.0,
            completed: 0,
            cancelled: 0,
            running: 0,
            pending: 0,
        };
        for (project, usage) in &state.usage {
            let row = by_project.entry(project).or_insert_with(|| empty(project));
            row.node_hours = usage.node_secs as f64 / 3600.0;
            row.completed = usage.completed;
            row.cancelled = usage.cancelled;
        }
        for job in state.jobs.values() {
            let row = by_project
                .entry(&job.project)
                .or_insert_with(|| empty(&job.project));
            match job.state {
                JobState::Running => row.running += 1,
                JobState::Pending => row.pending += 1,
            }
        }
        let mut out: Vec<ProjectAccounting> = by_project.into_values().collect();
        out.sort_by(|a, b| a.project.cmp(&b.project));
        out
    }

    /// Counts of (pending, running) jobs.
    pub fn queue_depth(&self) -> (usize, usize) {
        let state = self.state.read();
        let running = state
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .count();
        (state.jobs.len() - running, running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> (Scheduler, SimClock) {
        let clock = SimClock::starting_at(0);
        let s = Scheduler::new(clock.clone(), dri_fault::FaultHook::default());
        s.add_partition("gh", 8, 4);
        (s, clock)
    }

    #[test]
    fn submit_and_run_to_completion() {
        let (s, clock) = sched();
        let id = s.submit("u123", "climate-llm", "gh", 2, 3600).unwrap();
        assert_eq!(s.job(&id).unwrap().state, JobState::Pending);
        s.tick();
        assert_eq!(s.job(&id).unwrap().state, JobState::Running);
        assert_eq!(s.partition("gh").unwrap().allocated_nodes, 2);
        clock.advance_secs(3600);
        s.tick();
        // The finished job left the table for the accounting.
        assert!(s.job(&id).is_none());
        assert_eq!(s.table_sizes(), (0, 0));
        assert_eq!(s.partition("gh").unwrap().allocated_nodes, 0);
        // Usage: 2 nodes * 1 hour.
        let report = s.accounting_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].project, "climate-llm");
        assert_eq!(report[0].node_hours, 2.0);
        assert_eq!((report[0].completed, report[0].cancelled), (1, 0));
        assert_eq!((report[0].running, report[0].pending), (0, 0));
    }

    #[test]
    fn scheduler_outage_fails_submission_closed_while_running_jobs_survive() {
        let clock = SimClock::starting_at(0);
        let hook = dri_fault::FaultHook::default();
        let s = Scheduler::new(clock.clone(), hook.clone());
        s.add_partition("gh", 8, 4);
        let running = s.submit("u123", "climate-llm", "gh", 2, 3600).unwrap();
        s.tick();
        assert_eq!(s.job(&running).unwrap().state, JobState::Running);
        let plan = dri_fault::FaultPlan::new(5).outage("slurm", 0, u64::MAX);
        let plane = std::sync::Arc::new(dri_fault::FaultPlane::new(plan, clock.clone()));
        hook.install(plane.clone());
        assert_eq!(
            s.submit("u123", "climate-llm", "gh", 1, 60),
            Err(SubmitError::SchedulerUnavailable)
        );
        // The running job keeps running and completes on schedule —
        // tick and cancel never consult the fault plane.
        clock.advance_secs(3600);
        s.tick();
        assert!(s.job(&running).is_none());
        let report = s.accounting_report();
        assert_eq!((report[0].completed, report[0].running), (1, 0));
        assert_eq!(report[0].node_hours, 2.0);
        plane.set_enabled(false);
        assert!(s.submit("u123", "climate-llm", "gh", 1, 60).is_ok());
    }

    #[test]
    fn validation_errors() {
        let (s, _) = sched();
        assert_eq!(
            s.submit("u", "p", "nope", 1, 10),
            Err(SubmitError::UnknownPartition("nope".into()))
        );
        assert_eq!(
            s.submit("u", "p", "gh", 5, 10),
            Err(SubmitError::TooManyNodes)
        );
        assert_eq!(
            s.submit("u", "p", "gh", 0, 10),
            Err(SubmitError::InvalidRequest)
        );
        assert_eq!(
            s.submit("u", "p", "gh", 1, 0),
            Err(SubmitError::InvalidRequest)
        );
    }

    #[test]
    fn fifo_with_backfill() {
        let (s, _clock) = sched();
        // Fill 6 of 8 nodes.
        let a = s.submit("u1", "p", "gh", 3, 100).unwrap();
        let b = s.submit("u2", "p", "gh", 3, 100).unwrap();
        // Head of queue wants 4 (doesn't fit: only 2 free), but a later
        // 2-node job can backfill.
        let big = s.submit("u3", "p", "gh", 4, 100).unwrap();
        let small = s.submit("u4", "p", "gh", 2, 100).unwrap();
        s.tick();
        assert_eq!(s.job(&a).unwrap().state, JobState::Running);
        assert_eq!(s.job(&b).unwrap().state, JobState::Running);
        assert_eq!(s.job(&big).unwrap().state, JobState::Pending);
        assert_eq!(s.job(&small).unwrap().state, JobState::Running);
        assert_eq!(s.partition("gh").unwrap().allocated_nodes, 8);
    }

    #[test]
    fn cancel_pending_and_running() {
        let (s, clock) = sched();
        let a = s.submit("u1", "p", "gh", 2, 1000).unwrap();
        let b = s.submit("u1", "p", "gh", 2, 1000).unwrap();
        s.tick();
        // Cancel running job after 600s: usage accrues pro rata.
        clock.advance_secs(600);
        assert!(s.cancel(&a));
        assert!(s.job(&a).is_none());
        // Cancel a pending job: it leaves the table and the queue.
        let c = s.submit("u1", "p", "gh", 2, 1000).unwrap();
        assert!(s.cancel(&c));
        assert!(s.job(&c).is_none());
        assert_eq!(s.queue_depth(), (0, 1));
        // Double cancel fails.
        assert!(!s.cancel(&a));
        let report = s.accounting_report();
        assert_eq!(report.len(), 1);
        assert_eq!((report[0].cancelled, report[0].completed), (2, 0));
        assert_eq!((report[0].running, report[0].pending), (1, 0));
        let hours = report[0].node_hours;
        assert!(
            (hours - 2.0 * 600.0 / 3600.0).abs() < 1e-9,
            "pro-rata usage, got {hours}"
        );
        assert_eq!(s.job(&b).unwrap().state, JobState::Running);
    }

    #[test]
    fn cancelled_jobs_leave_the_table_and_the_walltime_heap() {
        let (s, clock) = sched();
        let ids: Vec<String> = (0..8)
            .map(|_| s.submit("u1", "p", "gh", 1, 4 * 3600).unwrap())
            .collect();
        s.tick();
        assert_eq!(s.table_sizes(), (8, 8));
        // Each cancel leaves a stale heap entry until stale entries
        // outnumber the running jobs; then they are dropped.
        for (n, id) in ids[1..].iter().enumerate() {
            assert!(s.cancel(id));
            let (jobs, heap) = s.table_sizes();
            assert_eq!(jobs, 8 - (n + 1));
            assert!(heap <= 2 * jobs, "{heap} heap entries for {jobs} jobs");
        }
        assert_eq!(s.table_sizes(), (1, 1));
        assert!(s.cancel(&ids[0]));
        assert_eq!(s.table_sizes(), (0, 0));
        // Nothing is left for the walltime pass to complete.
        clock.advance_secs(4 * 3600);
        s.tick();
        let report = s.accounting_report();
        assert_eq!((report[0].completed, report[0].cancelled), (0, 8));
        assert_eq!(s.partition("gh").unwrap().allocated_nodes, 0);
    }

    #[test]
    fn cancel_user_jobs_kill_switch() {
        let (s, _) = sched();
        s.submit("mallory", "p", "gh", 1, 100).unwrap();
        s.submit("mallory", "p", "gh", 1, 100).unwrap();
        s.submit("alice", "p", "gh", 1, 100).unwrap();
        s.tick();
        assert_eq!(s.cancel_user_jobs("mallory"), 2);
        let (pending, running) = s.queue_depth();
        assert_eq!(pending + running, 1);
    }

    #[test]
    fn drained_partition_starts_no_jobs() {
        let (s, clock) = sched();
        let running = s.submit("u1", "p", "gh", 2, 1000).unwrap();
        s.tick();
        assert_eq!(s.job(&running).unwrap().state, JobState::Running);
        assert!(s.set_drained("gh", true));
        let queued = s.submit("u2", "p", "gh", 1, 1000).unwrap();
        s.tick();
        // Existing job unaffected, new job stays pending.
        assert_eq!(s.job(&running).unwrap().state, JobState::Running);
        assert_eq!(s.job(&queued).unwrap().state, JobState::Pending);
        // Undrain: the queued job starts.
        s.set_drained("gh", false);
        s.tick();
        assert_eq!(s.job(&queued).unwrap().state, JobState::Running);
        assert!(!s.set_drained("nope", true));
        let _ = clock;
    }

    #[test]
    fn accounting_report_summarises_projects() {
        let (s, clock) = sched();
        let a = s.submit("u1", "alpha", "gh", 2, 3600).unwrap();
        let b = s.submit("u2", "beta", "gh", 1, 3600).unwrap();
        s.tick();
        clock.advance_secs(3600);
        s.tick();
        let _ = (a, b);
        s.submit("u2", "beta", "gh", 1, 50).unwrap();
        s.tick();
        let report = s.accounting_report();
        assert_eq!(report.len(), 2);
        let alpha = report.iter().find(|r| r.project == "alpha").unwrap();
        assert_eq!(alpha.completed, 1);
        assert!((alpha.node_hours - 2.0).abs() < 1e-9);
        let beta = report.iter().find(|r| r.project == "beta").unwrap();
        assert_eq!(beta.completed, 1);
        assert_eq!(beta.running, 1);
        assert!((beta.node_hours - 1.0).abs() < 1e-9);
    }

    #[test]
    fn walltime_is_exact() {
        let (s, clock) = sched();
        let id = s.submit("u", "p", "gh", 1, 100).unwrap();
        s.tick();
        clock.advance_secs(99);
        s.tick();
        assert_eq!(s.job(&id).unwrap().state, JobState::Running);
        assert_eq!(s.accounting_report()[0].node_hours, 0.0);
        clock.advance_secs(1);
        s.tick();
        assert!(s.job(&id).is_none());
        // Charged for exactly its 100 node-seconds.
        let report = s.accounting_report();
        assert!((report[0].node_hours * 3600.0 - 100.0).abs() < 1e-9);
        assert_eq!((report[0].completed, report[0].running), (1, 0));
    }
}
