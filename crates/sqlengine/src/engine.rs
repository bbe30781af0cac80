//! The public database facade.
//!
//! [`Database`] owns the catalog behind a poison-recovering `RwLock`. Queries
//! plan under a read lock and execute on `Arc` row snapshots after the lock
//! is released; DML takes the write lock for its duration.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLockWriteGuard};
use std::time::{Duration, Instant};

use crate::ast::{ConflictAction, Expr, InsertSource, Query, Statement};
use crate::catalog::{Catalog, Column, InsertOutcome, ResolvedConflict, Schema, Table};
use crate::error::{EngineError, Result, Span};
use crate::exec::{ExecContext, MemoryBudget, OpStats, WorkerPool};
use crate::expr::{bind_expr, ColLabel, Scope};
use crate::parser::{parse_script_spanned, parse_statement};
use crate::plan::{PlannedQuery, Planner, PlannerConfig, VirtualTables};
use crate::sync::{Mutex, RwLock};
use crate::telemetry::{
    sys, Histogram, Phase, QueryLogEntry, QueryStatus, StatementClock, Telemetry,
};
use crate::trace::{
    AttrValue, StatementTrace, TraceCtx, TraceSampling, TraceScope, WaitClass, WaitTotals,
};
use crate::value::{DataType, Row, Value};
use crate::verify::{ParamDiscipline, SnapshotGuarantee, VerifyReport, VerifyRule};
use crate::wal::{self, push_insert, StorageIo, SyncPolicy, Wal, WalOp};

/// Engine configuration. The three profiles used by the benchmark harness to
/// emulate distinct DBMS behaviours are built from these knobs (see
/// [`EngineConfig::profile_a`] etc.).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Algorithm for detected equi-joins.
    pub join_algo: crate::plan::JoinAlgo,
    /// Materialize CTEs once instead of inlining their plans.
    pub materialize_ctes: bool,
    /// Number of executor worker threads. `1` (the default, and what every
    /// benchmark profile uses) runs the exact serial interpreter path;
    /// `>= 2` enables the morsel-parallel operators backed by a persistent
    /// worker pool owned by the [`Database`].
    pub parallelism: usize,
    /// Match equality / `IN`-list predicates and join keys against table
    /// indexes, planning `IndexScan` / index-nested-loop joins instead of
    /// full scans. Disable to force full-scan plans.
    pub use_indexes: bool,
    /// Cache physical plans keyed by SQL text + catalog version, so repeated
    /// serving calls skip parse + plan. Parameterized statements are cached
    /// as *templates*: `?` markers stay symbolic in the plan and each
    /// execution binds its parameter values into a fresh copy of the tree.
    pub plan_cache: bool,
    /// Abort statements whose execution exceeds this wall-clock budget with
    /// [`EngineError::Timeout`]. Checked at operator and morsel boundaries,
    /// so a pathological plan (e.g. an unconstrained cross join) cannot run
    /// unbounded. `None` (the default) disables the check.
    pub statement_timeout: Option<Duration>,
    /// Fsync policy for the write-ahead log of durable databases (ignored
    /// by purely in-memory databases).
    pub wal_sync: SyncPolicy,
    /// Group commit: under [`SyncPolicy::Always`], coalesce the WAL appends
    /// of overlapping writers into a single fsync. Each statement enqueues
    /// its frame while holding the catalog lock and blocks for durability
    /// after releasing it, so concurrent commits share one fsync while the
    /// acknowledgement guarantee is unchanged (a statement returns only
    /// after its frame is on disk). No effect under other sync policies.
    pub wal_group_commit: bool,
    /// Fold the log into a checkpoint once it exceeds this many bytes
    /// (0 disables the automatic trigger; [`Database::checkpoint`] still
    /// works). Ignored by purely in-memory databases.
    pub checkpoint_after_bytes: u64,
    /// Collect runtime telemetry (statement phase timings, the
    /// `sys.query_log` ring, WAL and serving metrics). Disabling turns every
    /// recording site into a cheap branch; the `sys.*` tables stay queryable
    /// but report empty/zero data.
    pub telemetry: bool,
    /// Statements whose total duration reaches this threshold are flagged
    /// `slow = 1` in `sys.query_log`.
    pub slow_query_threshold: Duration,
    /// Number of statements retained by the `sys.query_log` ring buffer.
    pub query_log_capacity: usize,
    /// Attach columnar chunk caches to base-table scans so eligible
    /// Filter/Project/Aggregate chains run on the vectorized kernels.
    /// Disable to force the row-at-a-time path everywhere — the executor
    /// produces identical results either way, which is what the
    /// differential test suites assert.
    pub vectorized: bool,
    /// Run the post-planning static plan verifier (see [`crate::verify`]) on
    /// every plan — freshly planned or served from the cache — and fail the
    /// statement with a spanned [`EngineError::Verify`] when any of the five
    /// invariant classes is violated. Defaults to on in debug builds (tests,
    /// CI) and off in release builds, keeping the serving hot path free of
    /// the walk; `EXPLAIN (VERIFY)` runs the verifier on demand regardless.
    pub verify_plans: bool,
    /// Per-statement memory budget in bytes for pipeline-breaking operator
    /// state (hash-join builds, aggregate hash tables, sort runs,
    /// `DISTINCT`/`UNION` dedup sets, materialized `UNION ALL` output). A
    /// statement that exceeds the budget aborts with the retryable
    /// [`EngineError::ResourceExhausted`] instead of driving the process
    /// toward OOM. `None` (the default) disables enforcement; peak usage is
    /// still tracked and surfaced in `sys.query_log`.
    pub memory_budget: Option<u64>,
    /// Maximum statements executing concurrently. When set, every statement
    /// entry point passes an admission gate: beyond this many running
    /// statements, up to [`EngineConfig::admission_queue_depth`] statements
    /// wait for a slot and the rest are shed immediately with the retryable
    /// [`EngineError::Overloaded`]. `None` (the default) disables admission
    /// control entirely.
    pub max_concurrent_statements: Option<usize>,
    /// Bounded wait-queue depth for the admission gate (only meaningful with
    /// [`EngineConfig::max_concurrent_statements`]). A queued statement whose
    /// `statement_timeout` deadline expires before a slot frees is shed.
    pub admission_queue_depth: usize,
    /// Retry policy for transient WAL storage failures (see
    /// [`crate::wal::WalRetry`]). The default retries nothing: a failed
    /// append wedges the WAL into degraded read-only mode exactly as before.
    pub wal_retry: crate::wal::WalRetry,
    /// Per-statement hierarchical trace capture (see [`TraceSampling`] and
    /// [`crate::trace`]). `Off` (the default) adds zero clock reads to any
    /// statement path; `On` tentatively records every statement's span tree
    /// and keeps errors and slow statements always, the rest under a
    /// deterministic seeded sampler. Kept traces are queryable through
    /// `sys.trace_spans`. Requires [`EngineConfig::telemetry`].
    pub trace_sampling: TraceSampling,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            join_algo: crate::plan::JoinAlgo::Hash,
            materialize_ctes: false,
            parallelism: 1,
            use_indexes: true,
            plan_cache: true,
            statement_timeout: None,
            wal_sync: SyncPolicy::OnCommit,
            wal_group_commit: false,
            checkpoint_after_bytes: 4 << 20,
            telemetry: true,
            slow_query_threshold: Duration::from_millis(100),
            query_log_capacity: 256,
            vectorized: true,
            verify_plans: cfg!(debug_assertions),
            memory_budget: None,
            max_concurrent_statements: None,
            admission_queue_depth: 16,
            wal_retry: crate::wal::WalRetry::default(),
            trace_sampling: TraceSampling::default(),
        }
    }
}

impl EngineConfig {
    /// Profile A — hash joins, pipelined CTEs (PostgreSQL-like behaviour).
    pub fn profile_a() -> Self {
        EngineConfig {
            join_algo: crate::plan::JoinAlgo::Hash,
            materialize_ctes: false,
            ..EngineConfig::default()
        }
    }

    /// Profile B — hash joins, materialized CTEs (MySQL-like behaviour).
    pub fn profile_b() -> Self {
        EngineConfig {
            join_algo: crate::plan::JoinAlgo::Hash,
            materialize_ctes: true,
            ..EngineConfig::default()
        }
    }

    /// Profile C — sort-merge joins, pipelined CTEs (an engine without hash
    /// joins; SQLite's B-tree-driven plans behave like this on these
    /// shapes).
    pub fn profile_c() -> Self {
        EngineConfig {
            join_algo: crate::plan::JoinAlgo::SortMerge,
            materialize_ctes: false,
            ..EngineConfig::default()
        }
    }

    /// Builder-style override of the executor parallelism (clamped to ≥ 1).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Builder-style toggle of index-aware planning.
    pub fn with_index_scans(mut self, on: bool) -> Self {
        self.use_indexes = on;
        self
    }

    /// Builder-style toggle of the physical-plan cache.
    pub fn with_plan_cache(mut self, on: bool) -> Self {
        self.plan_cache = on;
        self
    }

    /// Builder-style statement timeout.
    pub fn with_statement_timeout(mut self, limit: Duration) -> Self {
        self.statement_timeout = Some(limit);
        self
    }

    /// Builder-style WAL fsync policy.
    pub fn with_wal_sync(mut self, sync: SyncPolicy) -> Self {
        self.wal_sync = sync;
        self
    }

    /// Builder-style toggle of WAL group commit (see
    /// [`EngineConfig::wal_group_commit`]).
    pub fn with_wal_group_commit(mut self, on: bool) -> Self {
        self.wal_group_commit = on;
        self
    }

    /// Builder-style automatic-checkpoint threshold (bytes of WAL).
    pub fn with_checkpoint_after_bytes(mut self, bytes: u64) -> Self {
        self.checkpoint_after_bytes = bytes;
        self
    }

    /// Builder-style toggle of telemetry collection.
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Builder-style slow-query threshold for `sys.query_log`.
    pub fn with_slow_query_threshold(mut self, threshold: Duration) -> Self {
        self.slow_query_threshold = threshold;
        self
    }

    /// Builder-style `sys.query_log` ring capacity (clamped to ≥ 1).
    pub fn with_query_log_capacity(mut self, capacity: usize) -> Self {
        self.query_log_capacity = capacity.max(1);
        self
    }

    /// Builder-style toggle of columnar/vectorized execution.
    pub fn with_vectorized(mut self, on: bool) -> Self {
        self.vectorized = on;
        self
    }

    /// Builder-style toggle of the static plan verifier (see
    /// [`EngineConfig::verify_plans`]).
    pub fn with_verify_plans(mut self, on: bool) -> Self {
        self.verify_plans = on;
        self
    }

    /// Builder-style per-statement memory budget in bytes (see
    /// [`EngineConfig::memory_budget`]).
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Builder-style admission-control concurrency cap (clamped to ≥ 1; see
    /// [`EngineConfig::max_concurrent_statements`]).
    pub fn with_max_concurrent_statements(mut self, max: usize) -> Self {
        self.max_concurrent_statements = Some(max.max(1));
        self
    }

    /// Builder-style admission wait-queue depth (see
    /// [`EngineConfig::admission_queue_depth`]).
    pub fn with_admission_queue_depth(mut self, depth: usize) -> Self {
        self.admission_queue_depth = depth;
        self
    }

    /// Builder-style WAL transient-failure retry policy (see
    /// [`EngineConfig::wal_retry`]).
    pub fn with_wal_retry(mut self, retry: crate::wal::WalRetry) -> Self {
        self.wal_retry = retry;
        self
    }

    /// Builder-style trace sampling policy (see
    /// [`EngineConfig::trace_sampling`]).
    pub fn with_trace_sampling(mut self, sampling: TraceSampling) -> Self {
        self.trace_sampling = sampling;
        self
    }

    fn planner(&self) -> PlannerConfig {
        PlannerConfig {
            join_algo: self.join_algo,
            materialize_ctes: self.materialize_ctes,
            use_indexes: self.use_indexes,
            vectorized: self.vectorized,
        }
    }
}

/// The result of a `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Position of an output column by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// First value of the first row, if any.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    Rows(QueryResult),
    /// Number of rows inserted / updated / deleted (DDL reports 0).
    Affected(usize),
}

impl StatementResult {
    pub fn into_rows(self) -> Result<QueryResult> {
        match self {
            StatementResult::Rows(r) => Ok(r),
            StatementResult::Affected(_) => Err(EngineError::exec("statement did not return rows")),
        }
    }

    pub fn affected(&self) -> usize {
        match self {
            StatementResult::Rows(r) => r.rows.len(),
            StatementResult::Affected(n) => *n,
        }
    }
}

/// Upper bound on cached plans. Serving workloads cycle through a handful of
/// statement texts; the bound only guards against unbounded ad-hoc traffic.
const PLAN_CACHE_CAPACITY: usize = 128;

/// Normalize a statement's text into its plan-cache key: runs of whitespace
/// collapse to one space and keywords lowercase, while identifiers and
/// string literals keep their exact spelling (identifier case shows up in
/// output column names, so it is significant). Differently formatted copies
/// of the same statement thus share one cached plan template.
fn normalize_cache_key(sql: &str) -> String {
    let bytes = sql.as_bytes();
    let mut out = String::with_capacity(sql.len());
    let mut pending_space = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            pending_space = !out.is_empty();
            i += 1;
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        if b == b'\'' {
            // String literal: copied verbatim through the closing quote,
            // with '' staying an escaped quote.
            let start = i;
            i += 1;
            while i < bytes.len() {
                if bytes[i] == b'\'' {
                    if bytes.get(i + 1) == Some(&b'\'') {
                        i += 2;
                        continue;
                    }
                    i += 1;
                    break;
                }
                i += 1;
            }
            out.push_str(&sql[start..i]);
        } else if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &sql[start..i];
            if crate::lexer::is_keyword(word) {
                for c in word.chars() {
                    out.push(c.to_ascii_lowercase());
                }
            } else {
                out.push_str(word);
            }
        } else {
            let len = sql[i..].chars().next().map_or(1, char::len_utf8);
            out.push_str(&sql[i..i + len]);
            i += len;
        }
    }
    out
}

/// A cached physical plan tagged with the catalog version it was planned
/// against; served only while the version still matches.
#[derive(Clone)]
struct CachedPlan {
    version: u64,
    planned: Arc<PlannedQuery>,
    /// The plan is a *template*: `?` markers were kept symbolic
    /// ([`crate::expr::PhysExpr::Param`] nodes) and must be bound with
    /// [`crate::plan::bind_plan_params`] before execution.
    has_params: bool,
    /// Catalog version at the last *successful* verifier walk of this entry
    /// ([`UNVERIFIED`] when none). The plan tree behind the `Arc` is
    /// immutable and verification is deterministic in (plan, catalog
    /// version), so a hit at the same version can skip the walk — this is
    /// what keeps the verifier's cost off the cached serving hot path.
    /// Shared (not copied) with in-flight executions so a successful walk
    /// marks the entry itself.
    verified_version: Arc<AtomicU64>,
}

/// Sentinel for [`CachedPlan::verified_version`]: the entry has not passed a
/// verifier walk (never verified, or deliberately reset by the corruption
/// test seam).
const UNVERIFIED: u64 = u64::MAX;

/// The verifier's parameter discipline for a plan that is, or is not, a
/// template with symbolic `?` markers.
fn discipline(template: bool) -> ParamDiscipline {
    if template {
        ParamDiscipline::Template
    } else {
        ParamDiscipline::Bound
    }
}

/// An embedded, in-memory relational database.
pub struct Database {
    catalog: RwLock<Catalog>,
    config: EngineConfig,
    /// Executor worker pool, spawned once when `config.parallelism >= 2` so
    /// individual queries never pay thread-spawn latency.
    pool: Option<Arc<WorkerPool>>,
    /// Snapshot of the catalog taken at `BEGIN`, restored on `ROLLBACK`.
    txn_backup: Mutex<Option<Catalog>>,
    /// Monotonic version bumped *before* any catalog write (DDL, DML, and
    /// `ROLLBACK` restores). Cached plans embed row/index snapshots, so any
    /// change to data or schema must invalidate them; the counter never goes
    /// backwards, which keeps a rolled-back catalog from aliasing a future
    /// version number.
    catalog_version: AtomicU64,
    /// Physical plans of parameterless queries, keyed by SQL text.
    plan_cache: Mutex<HashMap<String, CachedPlan>>,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    plan_cache_evictions: AtomicU64,
    /// Write-ahead log of committed logical changes; `None` for purely
    /// in-memory databases (`Database::new`).
    wal: Option<Wal>,
    /// Engine-wide observability registry, shared (`Arc`) with the WAL and
    /// with BornSQL model handles; queryable through the `sys.*` tables.
    telemetry: Arc<Telemetry>,
    /// Bounded statement admission gate; `None` unless
    /// [`EngineConfig::max_concurrent_statements`] is set.
    admission: Option<Arc<crate::admission::AdmissionGate>>,
}

/// Per-statement execution state: the statement's clock and tentative
/// trace, the wall-clock deadline (derived from `statement_timeout` when the
/// statement entered the engine, so time spent queued for admission counts
/// against it), the memory budget shared with every operator the statement
/// runs, and the admission permit held for the statement's whole lifetime.
struct StatementCtx {
    /// `Some` only for statements that report to enabled telemetry.
    clock: Option<StatementClock>,
    /// Tentative span recorder on the clock's origin; `Some` only when the
    /// engine's [`TraceSampling`] is on (and telemetry enabled). The
    /// keep/drop decision happens in `finish_statement`.
    trace: Option<TraceCtx>,
    deadline: Option<Instant>,
    budget: Arc<MemoryBudget>,
    permit: Option<crate::admission::AdmissionPermit>,
}

impl StatementCtx {
    /// Scope under which WAL spans (fsync wait, retries) recorded while this
    /// statement executes are parented: the pre-reserved exec span.
    fn wal_scope(&self) -> Option<TraceScope<'_>> {
        self.trace.as_ref().map(|ctx| TraceScope {
            ctx,
            parent: crate::trace::EXEC_SPAN,
        })
    }

    /// End the running phase on the statement's clock, crediting it to
    /// `phase`, and record the same interval as the phase's span when
    /// traced. No-op without a clock.
    fn lap(&mut self, phase: Phase) {
        self.lap_with(phase, Vec::new);
    }

    /// [`StatementCtx::lap`] for the plan phase, whose span carries
    /// `cache=hit|miss` and the plan's operator count.
    fn lap_plan(&mut self, plan: &crate::plan::PhysPlan) {
        let cache = match &self.clock {
            Some(clock) if clock.cache_hit => "hit",
            _ => "miss",
        };
        self.lap_with(Phase::Plan, || {
            vec![
                ("cache", AttrValue::Text(cache)),
                ("nodes", AttrValue::Int(plan.node_count() as i64)),
            ]
        });
    }

    fn lap_with(&mut self, phase: Phase, attrs: impl FnOnce() -> Vec<(&'static str, AttrValue)>) {
        let Some(clock) = &mut self.clock else {
            return;
        };
        let interval = clock.lap(Some(phase));
        if let Some(trace) = &self.trace {
            trace.record_phase(phase.name(), interval, None, attrs());
        }
    }
}

/// How a statement reaches the funnel ([`Database::run_statement`]).
#[derive(Clone, Copy)]
enum Entry<'a> {
    /// Bare text (`execute_with`): plan-cache lookup, then parse and sema
    /// on a miss.
    Text,
    /// A statement of `execute_script`, parsed with the script: sema runs,
    /// the plan cache is skipped.
    Script(&'a Statement),
    /// A statement parsed and analyzed by `prepare`: plan-cache lookup, no
    /// parse or sema.
    Prepared(&'a Statement),
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    pub fn with_config(config: EngineConfig) -> Self {
        let telemetry = Arc::new(Telemetry::new(
            config.telemetry,
            config.slow_query_threshold,
            config.query_log_capacity,
        ));
        let admission = config.max_concurrent_statements.map(|max| {
            Arc::new(crate::admission::AdmissionGate::new(
                max,
                config.admission_queue_depth,
                Arc::clone(&telemetry),
            ))
        });
        Database {
            catalog: RwLock::new(Catalog::new()),
            pool: (config.parallelism > 1).then(|| Arc::new(WorkerPool::new(config.parallelism))),
            config,
            txn_backup: Mutex::new(None),
            catalog_version: AtomicU64::new(0),
            plan_cache: Mutex::new(HashMap::new()),
            plan_cache_hits: AtomicU64::new(0),
            plan_cache_misses: AtomicU64::new(0),
            plan_cache_evictions: AtomicU64::new(0),
            wal: None,
            telemetry,
            admission,
        }
    }

    /// Open a durable database rooted at `dir`: load the latest checkpoint,
    /// replay the write-ahead log (truncating any torn tail), and attach a
    /// WAL so every committed change is persisted. The directory is created
    /// if it does not exist.
    pub fn open(dir: impl AsRef<std::path::Path>, config: EngineConfig) -> Result<Database> {
        Self::open_with_io(Arc::new(wal::FileIo::new(dir)?), config)
    }

    /// [`Database::open`] with the default configuration.
    pub fn persistent(dir: impl AsRef<std::path::Path>) -> Result<Database> {
        Self::open(dir, EngineConfig::default())
    }

    /// Open a durable database over an injectable storage backend. This is
    /// how the fault-injection tests drive the WAL against in-memory and
    /// failpoint-instrumented storage; applications normally use
    /// [`Database::open`].
    pub fn open_with_io(io: Arc<dyn StorageIo>, config: EngineConfig) -> Result<Database> {
        let recovered = wal::recover(io.as_ref())?;
        let mut db = Database::with_config(config);
        let wal = Wal::new(
            io,
            config.wal_sync,
            config.wal_group_commit,
            config.checkpoint_after_bytes,
            config.wal_retry,
            recovered.next_seq,
            recovered.wal_len,
            Arc::clone(&db.telemetry),
        );
        db.catalog = RwLock::new(recovered.catalog);
        db.wal = Some(wal);
        Ok(db)
    }

    /// Fold the current state into a checkpoint and truncate the WAL.
    /// Errors on in-memory databases and inside explicit transactions.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(wal) = &self.wal else {
            return Err(EngineError::wal(
                "checkpoint requires a durable database (Database::open)",
            ));
        };
        if self.in_transaction() {
            return Err(EngineError::exec("cannot checkpoint inside a transaction"));
        }
        let catalog = self.catalog.write();
        wal.checkpoint(&catalog)
    }

    /// Bytes currently in the write-ahead log; `None` for in-memory
    /// databases. Exposed for checkpoint-trigger tests and benches.
    pub fn wal_bytes(&self) -> Option<u64> {
        self.wal.as_ref().map(|w| w.wal_bytes())
    }

    /// Log one statement's ops to the WAL (no-op for in-memory databases).
    /// Must be called while still holding the catalog write lock so WAL
    /// order equals catalog mutation order. Under group commit the returned
    /// ticket must be passed to [`Database::wal_wait`] *after* the lock
    /// drops; the statement is durable only once that returns.
    fn wal_log(
        &self,
        catalog: &Catalog,
        ops: Vec<WalOp>,
        deadline: Option<Instant>,
        trace: Option<TraceScope<'_>>,
    ) -> Result<Option<u64>> {
        match &self.wal {
            Some(wal) => wal.log_traced(catalog, ops, deadline, trace.as_ref()),
            None => Ok(None),
        }
    }

    /// Block until a group-commit ticket is durable (no-op for `None`
    /// tickets, i.e. non-group writes). Callers must have released the
    /// catalog lock — overlapping writers blocking here concurrently is
    /// exactly what lets the flush leader coalesce their fsyncs. Also runs
    /// the automatic checkpoint trigger, which the group path defers until
    /// the catalog lock is available again.
    fn wal_wait(
        &self,
        ticket: Option<u64>,
        deadline: Option<Instant>,
        trace: Option<TraceScope<'_>>,
    ) -> Result<()> {
        let (Some(wal), Some(seq)) = (&self.wal, ticket) else {
            return Ok(());
        };
        wal.wait_durable_traced(seq, deadline, trace.as_ref())?;
        if wal.wants_checkpoint() && !self.in_transaction() {
            // Plain `write()` (no version bump): the catalog is not mutated.
            let catalog = self.catalog.write();
            wal.checkpoint(&catalog)?;
        }
        Ok(())
    }

    /// Take the catalog write lock, bumping the catalog version first so any
    /// plan cached from here on is tagged with a version that postdates the
    /// upcoming mutation (see `plan_query` for the ordering argument).
    fn write_catalog(&self) -> Result<RwLockWriteGuard<'_, Catalog>> {
        // Degraded read-only mode is enforced here, before any mutation:
        // every write statement funnels through this lock, so a wedged WAL
        // refuses the statement while the in-memory state is still intact.
        if let Some(wal) = &self.wal {
            wal.check_writable()?;
        }
        self.catalog_version.fetch_add(1, Ordering::Release);
        Ok(self.catalog.write())
    }

    /// Current catalog version (bumped by every DDL/DML write).
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version.load(Ordering::Acquire)
    }

    /// Plan-cache counters as `(hits, misses)` since the last
    /// [`Database::reset_plan_cache_stats`] (process lifetime otherwise).
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (
            self.plan_cache_hits.load(Ordering::Relaxed),
            self.plan_cache_misses.load(Ordering::Relaxed),
        )
    }

    /// Plan-cache counters as `(hits, misses, evictions)`. Evictions count
    /// entries dropped by the capacity bound ([`PLAN_CACHE_CAPACITY`]) —
    /// both stale-entry reaping and full clears.
    pub fn plan_cache_metrics(&self) -> (u64, u64, u64) {
        (
            self.plan_cache_hits.load(Ordering::Relaxed),
            self.plan_cache_misses.load(Ordering::Relaxed),
            self.plan_cache_evictions.load(Ordering::Relaxed),
        )
    }

    /// Zero the plan-cache hit/miss/eviction counters (cached plans stay).
    /// Lets tests and monitoring windows measure deltas instead of
    /// process-lifetime totals.
    pub fn reset_plan_cache_stats(&self) {
        self.plan_cache_hits.store(0, Ordering::Relaxed);
        self.plan_cache_misses.store(0, Ordering::Relaxed);
        self.plan_cache_evictions.store(0, Ordering::Relaxed);
    }

    /// The engine's telemetry registry (shared with the WAL and BornSQL
    /// model handles).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Whether `sql` may use the plan cache. `sys.*` statements never do:
    /// their plans embed point-in-time telemetry snapshots. (A false
    /// positive, e.g. `'sys.'` inside a literal, only bypasses the cache;
    /// `Planner::used_virtual` backstops any miss.)
    fn cacheable(&self, sql: &str) -> bool {
        self.config.plan_cache && !sys::mentions_sys(sql)
    }

    /// Look `sql` up in the plan cache (under its normalized key); a hit
    /// requires the entry's catalog version to match the current one.
    /// `count` bumps the hit/miss counters (serving traffic does, the
    /// diagnostic `query_analyzed` does not).
    fn cached_plan(&self, sql: &str, count: bool) -> Option<CachedPlan> {
        let version = self.catalog_version.load(Ordering::Acquire);
        let key = normalize_cache_key(sql);
        let hit = self
            .plan_cache
            .lock()
            .get(&key)
            .filter(|c| c.version == version)
            .cloned();
        if count {
            let counter = if hit.is_some() {
                &self.plan_cache_hits
            } else {
                &self.plan_cache_misses
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Plan `query` under the catalog read lock and, with `verify` set, run
    /// the verifier under that same lock, so its snapshot-identity checks
    /// compare against the exact catalog state the plan captured. A
    /// `template` plan keeps its `?` markers symbolic. Returns the plan, the
    /// verifier's report, and whether the plan reads a `sys.*` table.
    fn plan_verified(
        &self,
        query: &Query,
        params: &[Value],
        template: bool,
        verify: bool,
    ) -> Result<(PlannedQuery, Option<VerifyReport>, bool)> {
        let catalog = self.catalog.read();
        let mut planner = Planner::new(&catalog, params, self.config.planner()).with_virtuals(self);
        if template {
            planner = planner.symbolic();
        }
        let planned = planner.plan_query(query)?;
        let report = verify.then(|| {
            crate::verify::verify_planned(
                &planned,
                Some(&catalog),
                SnapshotGuarantee::Current,
                discipline(template),
            )
        });
        Ok((planned, report, planner.used_virtual()))
    }

    /// Plan a query for execution, verifying it when `verify_plans` is set.
    /// A `cacheable` query is constant-folded once — so the cached plan, the
    /// serving hot path, embeds pre-evaluated literals — and stored in the
    /// plan cache; when it has parameters it plans as a template (see
    /// [`EngineConfig::plan_cache`]) unless a parameter's value is needed at
    /// plan time. Every other query plans with its parameter values
    /// inlined. Returns the plan and whether it is a template.
    ///
    /// The version is read *before* planning and writers bump it *before*
    /// taking the write lock, so a plan that raced a writer is tagged with
    /// the pre-write version and can never be served against the post-write
    /// catalog — the stale-side error is always a harmless replan.
    fn plan_query(
        &self,
        sql: &str,
        query: &Query,
        params: &[Value],
        cacheable: bool,
    ) -> Result<(Arc<PlannedQuery>, bool)> {
        let has_params = crate::plan::query_contains_params(query);
        let cache = cacheable
            && (!has_params
                || !crate::plan::params_unsupported(query, self.config.materialize_ctes));
        let template = cache && has_params;
        let version = self.catalog_version.load(Ordering::Acquire);
        let folded;
        let (query, params) = if cache {
            let mut query = query.clone();
            crate::sema::fold::fold_query(&mut query);
            folded = query;
            (&folded, &[][..])
        } else {
            (query, params)
        };
        let (planned, report, used_virtual) =
            self.plan_verified(query, params, template, self.config.verify_plans)?;
        if let Some(report) = report {
            self.verify_outcome(report, template, sql)?;
        }
        let planned = Arc::new(planned);
        // Plans over `sys.*` embed point-in-time telemetry rows; caching one
        // would freeze the metrics. (`cacheable` already skips `sys.*` text;
        // this is the backstop.)
        if !cache || used_virtual {
            return Ok((planned, template));
        }
        let key = normalize_cache_key(sql);
        let mut cache = self.plan_cache.lock();
        if cache.len() >= PLAN_CACHE_CAPACITY && !cache.contains_key(&key) {
            // Evict stale entries first; fall back to dropping everything
            // (plans embed table snapshots, so a full clear also releases
            // pinned row memory).
            let before = cache.len();
            cache.retain(|_, c| c.version == version);
            if cache.len() >= PLAN_CACHE_CAPACITY {
                cache.clear();
            }
            self.plan_cache_evictions
                .fetch_add((before - cache.len()) as u64, Ordering::Relaxed);
        }
        cache.insert(
            key,
            CachedPlan {
                version,
                planned: Arc::clone(&planned),
                has_params: template,
                // When the verifier is on, the plan already passed a walk at
                // `version` above (a violation returned early), so the first
                // cache hit can skip straight to execution.
                verified_version: Arc::new(AtomicU64::new(if self.config.verify_plans {
                    version
                } else {
                    UNVERIFIED
                })),
            },
        );
        Ok((planned, template))
    }

    /// Record a verifier run in telemetry and convert its violations into a
    /// spanned [`EngineError::Verify`] covering the statement text.
    ///
    /// Template-discipline `param-slots` findings (a `?` slot gap, e.g.
    /// `SELECT ?3` never consuming slots 1–2) are surfaced through the
    /// `verify.violations` counter and `EXPLAIN (VERIFY)` but do not abort
    /// the statement: under-binding is reported at bind time as the clearer
    /// [`EngineError::Parameter`], and over-binding keeps its historical
    /// permissiveness.
    fn verify_outcome(&self, mut report: VerifyReport, template: bool, sql: &str) -> Result<()> {
        self.record_verify(&report);
        if template {
            report
                .violations
                .retain(|v| v.rule != VerifyRule::ParamSlots);
        }
        report.into_result(Span::new(0, sql.len()))
    }

    fn record_verify(&self, report: &VerifyReport) {
        if self.telemetry.enabled() {
            self.telemetry.verify_plans_checked.incr();
            self.telemetry
                .verify_violations
                .add(report.violations.len() as u64);
        }
    }

    /// Verify a plan served from the cache. Templates are checked under
    /// [`ParamDiscipline::Template`]; the snapshot-identity checks only run
    /// while the live catalog version still equals the entry's under the
    /// read lock — a writer that advanced the catalog after the lookup
    /// makes the entry stale-but-harmless (the next lookup replans), not a
    /// violation.
    ///
    /// The walk is memoized per catalog version through the entry's
    /// `verified_version`: the cached tree is immutable and the verdict is
    /// deterministic in (plan, catalog version), so only the first hit after
    /// a plan insert, a catalog change, or a marker reset pays for the walk.
    /// A failed walk never updates the marker — a corrupt entry is
    /// re-rejected on every execution until it is evicted or replaced.
    fn verify_cached(&self, entry: &CachedPlan, sql: &str) -> Result<()> {
        if !self.config.verify_plans {
            return Ok(());
        }
        let discipline = discipline(entry.has_params);
        let (report, current) = {
            let catalog = self.catalog.read();
            let current = self.catalog_version.load(Ordering::Acquire);
            if entry.verified_version.load(Ordering::Acquire) == current {
                return Ok(());
            }
            let report = if current == entry.version {
                crate::verify::verify_planned(
                    &entry.planned,
                    Some(&catalog),
                    SnapshotGuarantee::Current,
                    discipline,
                )
            } else {
                crate::verify::verify_planned(
                    &entry.planned,
                    None,
                    SnapshotGuarantee::MayLag,
                    discipline,
                )
            };
            (report, current)
        };
        self.verify_outcome(report, entry.has_params, sql)?;
        entry.verified_version.store(current, Ordering::Release);
        Ok(())
    }

    /// Test seam: replace the cached plan for `sql` (if any) with a mutated
    /// copy, returning whether an entry was found. The plan-corruption
    /// harness uses this to prove each verifier invariant class fires; it
    /// has no other callers.
    #[doc(hidden)]
    pub fn mutate_cached_plan(
        &self,
        sql: &str,
        mutate: &mut dyn FnMut(&mut crate::plan::PhysPlan),
    ) -> bool {
        let key = normalize_cache_key(sql);
        let mut cache = self.plan_cache.lock();
        match cache.get_mut(&key) {
            Some(entry) => {
                let mut planned = (*entry.planned).clone();
                mutate(&mut planned.plan);
                entry.planned = Arc::new(planned);
                // A fresh marker (not a reset of the shared one): in-flight
                // executions still verifying the old tree must not be able
                // to mark the replaced entry as checked.
                entry.verified_version = Arc::new(AtomicU64::new(UNVERIFIED));
                true
            }
            None => false,
        }
    }

    /// Execute a planned query. A template first binds its parameter values
    /// into a fresh plan tree; other plans run as-is.
    fn execute_query(
        &self,
        planned: &PlannedQuery,
        template: bool,
        params: &[Value],
        ctx: &StatementCtx,
    ) -> Result<StatementResult> {
        let bound;
        let plan = if template {
            bound = crate::plan::bind_plan_params(&planned.plan, params)?;
            &bound
        } else {
            &planned.plan
        };
        self.record_plan_modes(plan);
        let rows = self.run_plan(plan, ctx)?;
        Ok(StatementResult::Rows(QueryResult {
            columns: planned.columns.clone(),
            rows,
        }))
    }

    /// Run a plan to rows. Untraced statements take the plain executor path
    /// unchanged; traced statements go through [`Database::run_traced`].
    fn run_plan(&self, plan: &crate::plan::PhysPlan, ctx: &StatementCtx) -> Result<Vec<Row>> {
        if ctx.trace.is_none() {
            return self.exec_ctx(ctx).execute(plan);
        }
        self.run_traced(plan, ctx).map(|(rows, _)| rows)
    }

    /// Run a plan with stats collection and record the per-operator subtree
    /// under the exec span (the same `OpStats` tree `EXPLAIN ANALYZE`
    /// renders, so the two agree by construction). The operators start where
    /// the running exec phase started on the statement's clock.
    fn run_traced(
        &self,
        plan: &crate::plan::PhysPlan,
        ctx: &StatementCtx,
    ) -> Result<(Vec<Row>, OpStats)> {
        let (rows, stats) = self.exec_ctx(ctx).execute_with_stats(plan)?;
        if let (Some(trace), Some(clock)) = (&ctx.trace, &ctx.clock) {
            trace.record_op_tree(&stats, clock.mark_us());
        }
        Ok((rows, stats))
    }

    /// Count how many mode-capable operators of an executed plan take the
    /// vectorized vs the row path (surfaced as `exec.vectorized_ops` /
    /// `exec.row_ops` in `sys.metrics`).
    fn record_plan_modes(&self, plan: &crate::plan::PhysPlan) {
        if !self.telemetry.enabled() {
            return;
        }
        let (vectorized, row) = crate::exec::count_modes(plan);
        self.telemetry.vectorized_ops.add(vectorized);
        self.telemetry.row_ops.add(row);
    }

    /// A fresh statement context on `clock`: a tentative trace when sampling
    /// is on, the deadline from `statement_timeout`, and the memory budget.
    fn statement_ctx(&self, clock: Option<StatementClock>) -> StatementCtx {
        let deadline = self.config.statement_timeout.map(|limit| {
            clock
                .as_ref()
                .map_or_else(Instant::now, StatementClock::origin)
                + limit
        });
        let trace = clock
            .as_ref()
            .filter(|_| self.config.trace_sampling.is_on())
            .map(|clock| TraceCtx::new(clock.origin()));
        StatementCtx {
            clock,
            trace,
            deadline,
            budget: Arc::new(match self.config.memory_budget {
                Some(limit) => MemoryBudget::limited(limit),
                None => MemoryBudget::unlimited(),
            }),
            permit: None,
        }
    }

    /// Pass the admission gate, which may queue or shed. The permit is held
    /// until the context drops (at the end of the statement, or during a
    /// panic unwind). On the statement's clock one reading ends admission
    /// and starts the first phase; a traced statement that queued records
    /// its wait as a span ending there.
    fn admit(&self, ctx: &mut StatementCtx) -> Result<()> {
        if let Some(gate) = &self.admission {
            ctx.permit = Some(gate.admit(ctx.deadline)?);
        }
        let Some(clock) = &mut ctx.clock else {
            return Ok(());
        };
        clock.lap(None);
        let waited = ctx.permit.as_ref().and_then(|p| p.queue_wait());
        if let (Some(trace), Some(waited)) = (&ctx.trace, waited) {
            let end_us = clock.mark_us();
            let waited_us = (waited.as_micros() as u64).min(end_us);
            trace.record_phase(
                "admission.queue_wait",
                (end_us - waited_us, waited_us),
                Some(WaitClass::Admission),
                Vec::new(),
            );
        }
        Ok(())
    }

    /// An untimed statement context past the admission gate, for work that
    /// writes no query-log row (`query_analyzed`, bulk loads).
    fn admitted(&self) -> Result<StatementCtx> {
        let mut ctx = self.statement_ctx(None);
        self.admit(&mut ctx)?;
        Ok(ctx)
    }

    /// The execution context queries run under: the configured parallelism
    /// plus the shared worker pool, carrying the statement's deadline and
    /// memory budget.
    fn exec_ctx(&self, stmt: &StatementCtx) -> ExecContext {
        let ctx = match &self.pool {
            // Telemetry on the context feeds the `worker_idle` wait-class
            // rollup (coordinator time blocked on the pool); recorded only
            // on the parallel dispatch path, so serial execution stays
            // clock-free.
            Some(pool) if self.telemetry.enabled() => {
                ExecContext::with_pool(self.config.parallelism, Arc::clone(pool))
                    .with_telemetry(Arc::clone(&self.telemetry))
            }
            Some(pool) => ExecContext::with_pool(self.config.parallelism, Arc::clone(pool)),
            None => ExecContext::serial(),
        };
        let ctx = ctx.with_budget(Arc::clone(&stmt.budget));
        match stmt.deadline {
            Some(deadline) => ctx.with_deadline(deadline),
            None => ctx,
        }
    }

    /// Whether a transaction started with `BEGIN` is open.
    pub fn in_transaction(&self) -> bool {
        self.txn_backup.lock().is_some()
    }

    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Execute one statement without parameters.
    pub fn execute(&self, sql: &str) -> Result<StatementResult> {
        self.execute_with(sql, &[])
    }

    /// Execute one statement with positional parameters (`?`, `?1`).
    ///
    /// Queries go through the plan cache (when enabled): a hit skips parsing
    /// and planning entirely. Parameterized queries are cached as plan
    /// *templates* — `?` markers stay symbolic in the cached tree and each
    /// execution substitutes its values into a fresh copy — except where a
    /// parameter's value is consumed at plan time (`LIMIT ?`, parameters
    /// inside subquery bodies, or any parameter under materialized CTEs),
    /// which plan inline and stay uncached.
    pub fn execute_with(&self, sql: &str, params: &[Value]) -> Result<StatementResult> {
        self.run_statement(sql, Entry::Text, params)
    }

    /// The statement funnel: every SQL statement runs through here, timed
    /// by one clock that starts before admission (with telemetry on). It
    /// owns admission, the deadline and memory budget, the plan-cache
    /// lookup, verification, execution and the finish bookkeeping.
    fn run_statement(
        &self,
        sql: &str,
        entry: Entry<'_>,
        params: &[Value],
    ) -> Result<StatementResult> {
        let mut ctx = self.statement_ctx(self.telemetry.enabled().then(StatementClock::start));
        let result = self
            .admit(&mut ctx)
            .and_then(|()| self.run_phases(sql, entry, params, &mut ctx))
            .map_err(|e| e.with_statement_span(sql));
        self.finish_statement(ctx, sql, &result);
        result
    }

    /// The phases of one admitted statement, each lapped on its clock:
    /// parse, sema, plan and exec, as far as `entry` runs them. A cache hit
    /// skips parse and sema; its lookup and verifier walk count as plan.
    /// On a miss the lookup counts toward the first phase that runs.
    fn run_phases(
        &self,
        sql: &str,
        entry: Entry<'_>,
        params: &[Value],
        ctx: &mut StatementCtx,
    ) -> Result<StatementResult> {
        let cacheable = !matches!(entry, Entry::Script(_)) && self.cacheable(sql);
        let (planned, template) = match cacheable.then(|| self.cached_plan(sql, true)).flatten() {
            Some(hit) => {
                if let Some(clock) = &mut ctx.clock {
                    clock.cache_hit = true;
                }
                self.verify_cached(&hit, sql)?;
                ctx.lap_plan(&hit.planned.plan);
                (hit.planned, hit.has_params)
            }
            None => {
                let parsed;
                let stmt = match entry {
                    Entry::Text => {
                        parsed = parse_statement(sql)?;
                        ctx.lap(Phase::Parse);
                        &parsed
                    }
                    Entry::Script(stmt) | Entry::Prepared(stmt) => stmt,
                };
                if !matches!(entry, Entry::Prepared(_)) {
                    // Per statement, also in scripts: earlier statements may
                    // create the tables later ones refer to.
                    self.analyze_statement(stmt)?;
                    ctx.lap(Phase::Sema);
                }
                let Statement::Query(query) = stmt else {
                    // DML / DDL / transaction control interleave planning
                    // with catalog writes; the whole tail is exec.
                    let result = self.execute_statement(sql, stmt, params, ctx);
                    ctx.lap(Phase::Exec);
                    return result;
                };
                let planned = self.plan_query(sql, query, params, cacheable)?;
                ctx.lap_plan(&planned.0.plan);
                planned
            }
        };
        let result = self.execute_query(&planned, template, params, ctx);
        ctx.lap(Phase::Exec);
        result
    }

    /// Report one finished statement to the telemetry registry: per-family
    /// error counters, then — when the statement ran on a clock, whose total
    /// is read once here — the query-log entry with its phase timings, peak
    /// operator memory and wait totals (from the trace when one was
    /// captured). Runs the trace keep decision last — errors and slow
    /// statements always, the rest per the sampler — and stores kept traces
    /// in the `sys.trace_spans` ring.
    fn finish_statement(&self, mut ctx: StatementCtx, sql: &str, result: &Result<StatementResult>) {
        // Free the admission slot before the bookkeeping.
        ctx.permit = None;
        if let Err(e) = result {
            self.telemetry.record_error(e);
        }
        let Some(clock) = ctx.clock else {
            return;
        };
        let total_us = clock.total_us();
        let spans = ctx.trace.map(|trace| trace.finish("statement", total_us));
        let waits = spans.as_deref().map(WaitTotals::from_spans);
        let (status, error, rows) = match result {
            Ok(r) => (QueryStatus::Ok, None, r.affected() as u64),
            Err(e) => {
                let status = if matches!(e, EngineError::Timeout) {
                    QueryStatus::Timeout
                } else {
                    QueryStatus::Error
                };
                (status, Some(e.to_string()), 0)
            }
        };
        let id = self.telemetry.record_statement(QueryLogEntry {
            id: 0,
            sql: sql.to_string(),
            status,
            error,
            cache_hit: clock.cache_hit,
            slow: false,
            parse_us: clock.parse_us,
            sema_us: clock.sema_us,
            plan_us: clock.plan_us,
            exec_us: clock.exec_us,
            total_us,
            rows,
            peak_mem_bytes: ctx.budget.peak_bytes(),
            queue_wait_us: waits.map(|w| w.queue_wait_us),
            fsync_wait_us: waits.map(|w| w.fsync_wait_us),
            retry_count: waits.map(|w| w.retry_count),
        });
        if let (Some(spans), Some(id)) = (spans, id) {
            let error_or_slow = result.is_err() || self.telemetry.is_slow(total_us);
            if self.config.trace_sampling.keep(id, error_or_slow) {
                self.telemetry.store_trace(StatementTrace {
                    statement_id: id,
                    spans,
                });
            }
        }
    }

    /// Execute a semicolon-separated script; returns the last statement's
    /// result. Each statement runs through the funnel on its own (spans
    /// recover the original text), so script-driven clients show up in
    /// `sys.query_log` like everyone else.
    pub fn execute_script(&self, sql: &str) -> Result<StatementResult> {
        let stmts = parse_script_spanned(sql)?;
        let mut last = StatementResult::Affected(0);
        for (stmt, span) in &stmts {
            let text = sql
                .get(span.start as usize..span.end as usize)
                .unwrap_or(sql)
                .trim();
            last = self.run_statement(text, Entry::Script(stmt), &[])?;
        }
        Ok(last)
    }

    /// Run a `SELECT` and return its rows.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.execute(sql)?.into_rows()
    }

    /// Run a `SELECT` with parameters.
    pub fn query_with(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        self.execute_with(sql, params)?.into_rows()
    }

    /// Run a `SELECT` expected to return a single scalar.
    pub fn query_scalar(&self, sql: &str) -> Result<Value> {
        let r = self.query(sql)?;
        r.scalar()
            .cloned()
            .ok_or_else(|| EngineError::exec("query returned no rows"))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.read().table_names()
    }

    /// Number of rows in a table.
    pub fn table_rows(&self, name: &str) -> Result<usize> {
        Ok(self.catalog.read().get(name)?.row_count())
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.catalog.read().contains(name)
    }

    /// Parse a statement once for repeated execution with different
    /// parameters. Queries additionally go through the plan cache: the first
    /// execution plans once (keeping `?` markers symbolic) and caches the
    /// template; later executions bind their parameter values into the
    /// cached tree until a catalog write invalidates it.
    pub fn prepare(&self, sql: &str) -> Result<Prepared<'_>> {
        let stmt = parse_statement(sql)?;
        self.analyze_statement(&stmt)?;
        Ok(Prepared {
            db: self,
            sql: sql.to_string(),
            stmt,
        })
    }

    /// Statically check a statement against the current catalog without
    /// planning or executing it. Returns the typed output schema for
    /// queries (empty for DML/DDL). All execution entry points run the same
    /// analysis first, so a statement rejected here never executes.
    pub fn check(&self, sql: &str) -> Result<crate::sema::CheckReport> {
        let stmt = parse_statement(sql)?;
        let catalog = self.catalog.read();
        crate::sema::check_statement(&catalog, &stmt)
    }

    fn analyze_statement(&self, stmt: &Statement) -> Result<()> {
        let catalog = self.catalog.read();
        crate::sema::check_statement(&catalog, stmt).map(|_| ())
    }

    /// Render the physical plan of a query (an `EXPLAIN` equivalent).
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = parse_statement(sql)?;
        let Statement::Query(query) = &stmt else {
            return Err(EngineError::plan("EXPLAIN supports only SELECT queries"));
        };
        self.analyze_statement(&stmt)?;
        let (planned, ..) = self.plan_verified(query, &[], false, false)?;
        Ok(crate::explain::render_plan(&planned.plan))
    }

    /// Run a `SELECT` and also return the per-operator runtime statistics
    /// tree (rows in/out and elapsed time per operator).
    pub fn query_analyzed(&self, sql: &str) -> Result<(QueryResult, OpStats)> {
        let stmt = parse_statement(sql)?;
        let Statement::Query(query) = &stmt else {
            return Err(EngineError::plan("ANALYZE supports only SELECT queries"));
        };
        let ctx = self.admitted()?;
        // Serve the plan from the cache when one exists, so ANALYZE observes
        // (and the verifier vets) the very tree repeated executions use.
        // Parameter templates are skipped — there are no values to bind
        // here — and the hit/miss counters are left alone: ANALYZE is a
        // diagnostic read, not serving traffic.
        let cached = self
            .cacheable(sql)
            .then(|| self.cached_plan(sql, false))
            .flatten()
            .filter(|c| !c.has_params);
        let planned = match cached {
            Some(entry) => {
                self.verify_cached(&entry, sql)?;
                entry.planned
            }
            None => {
                self.analyze_statement(&stmt)?;
                self.plan_query(sql, query, &[], false)?.0
            }
        };
        self.record_plan_modes(&planned.plan);
        let (rows, stats) = self.exec_ctx(&ctx).execute_with_stats(&planned.plan)?;
        self.telemetry.record_op_stats(&stats);
        Ok((
            QueryResult {
                columns: planned.columns.clone(),
                rows,
            },
            stats,
        ))
    }

    /// Execute a query and render its `EXPLAIN ANALYZE` tree.
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let (_, stats) = self.query_analyzed(sql)?;
        Ok(crate::explain::render_analyze(&stats))
    }

    /// Dump a table's schema, primary-key columns, and rows (used by
    /// snapshots).
    pub fn dump_table(
        &self,
        name: &str,
    ) -> Result<(
        crate::catalog::Schema,
        Vec<String>,
        std::sync::Arc<Vec<Row>>,
    )> {
        let catalog = self.catalog.read();
        let t = catalog.get(name)?;
        let pk = t
            .primary
            .as_ref()
            .map(|p| {
                p.key_columns
                    .iter()
                    .map(|&i| t.schema.columns[i].name.clone())
                    .collect()
            })
            .unwrap_or_default();
        Ok((t.schema.clone(), pk, std::sync::Arc::clone(&t.rows)))
    }

    /// Install a table with pre-built rows (used by snapshot restore).
    pub fn restore_table(&self, mut table: Table, rows: Vec<Row>) -> Result<()> {
        // Pass the admission gate like any other statement; `install_table`
        // itself stays ungated so internal callers cannot self-deadlock.
        let _ctx = self.admitted()?;
        for row in rows {
            table.insert_row(row, None)?;
        }
        self.install_table(table)
    }

    /// Install a fully built table into the catalog, logging its schema,
    /// indexes, and rows to the WAL as one batch.
    pub(crate) fn install_table(&self, table: Table) -> Result<()> {
        let ops = self.wal.is_some().then(|| {
            let primary_key: Vec<String> = table
                .primary
                .as_ref()
                .map(|p| {
                    p.key_columns
                        .iter()
                        .map(|&i| table.schema.columns[i].name.clone())
                        .collect()
                })
                .unwrap_or_default();
            let mut ops = vec![WalOp::CreateTable {
                name: table.name.clone(),
                columns: table
                    .schema
                    .columns
                    .iter()
                    .map(|c| (c.name.clone(), c.ty))
                    .collect(),
                primary_key,
            }];
            for index in &table.secondary {
                ops.push(WalOp::CreateIndex {
                    table: table.name.clone(),
                    name: index.name.clone(),
                    columns: index
                        .key_columns
                        .iter()
                        .map(|&i| table.schema.columns[i].name.clone())
                        .collect(),
                    unique: false,
                });
            }
            if !table.rows.is_empty() {
                ops.push(WalOp::Insert {
                    table: table.name.clone(),
                    rows: table.rows.as_ref().clone(),
                });
            }
            ops
        });
        let deadline = self
            .config
            .statement_timeout
            .map(|limit| Instant::now() + limit);
        let mut catalog = self.write_catalog()?;
        catalog.create_table(table, false)?;
        let ticket = match ops {
            Some(ops) => self.wal_log(&catalog, ops, deadline, None)?,
            None => None,
        };
        drop(catalog);
        self.wal_wait(ticket, deadline, None)
    }

    /// Bulk-insert pre-built rows into a table (fast path used by data
    /// generators; equivalent to `INSERT INTO t VALUES ...`).
    pub fn insert_rows(&self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let ctx = self.admitted()?;
        let mut catalog = self.write_catalog()?;
        let t = catalog.get_mut(table)?;
        let wal_on = self.wal.is_some();
        let mut applied = Vec::new();
        let mut n = 0usize;
        let mut failure = None;
        for row in rows {
            match t.insert_row(row, None) {
                Ok(_) => {
                    n += 1;
                    if wal_on {
                        applied.push(t.rows.last().expect("row just inserted").clone());
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        let wal_result = if applied.is_empty() {
            Ok(None)
        } else {
            self.wal_log(
                &catalog,
                vec![WalOp::Insert {
                    table: table.to_string(),
                    rows: applied,
                }],
                ctx.deadline,
                ctx.wal_scope(),
            )
        };
        drop(catalog);
        if let Some(e) = failure {
            // The applied prefix is in memory and logged; still push it
            // toward disk, but the statement's own error wins.
            if let Ok(ticket) = wal_result {
                let _ = self.wal_wait(ticket, ctx.deadline, ctx.wal_scope());
            }
            return Err(e);
        }
        self.wal_wait(wal_result?, ctx.deadline, ctx.wal_scope())?;
        Ok(n)
    }

    fn execute_statement(
        &self,
        sql: &str,
        stmt: &Statement,
        params: &[Value],
        ctx: &StatementCtx,
    ) -> Result<StatementResult> {
        use crate::ast::ExplainMode;
        match stmt {
            Statement::Query(_) => unreachable!("queries run through Database::run_phases"),
            Statement::Explain { mode, query } => {
                if *mode == ExplainMode::Check {
                    // Semantic analysis only: report the typed output schema
                    // without planning or executing anything.
                    let report = {
                        let catalog = self.catalog.read();
                        crate::sema::check_query(&catalog, query)?
                    };
                    return Ok(StatementResult::Rows(QueryResult {
                        columns: vec!["column".to_string(), "type".to_string()],
                        rows: report
                            .columns
                            .into_iter()
                            .map(|(name, ty)| {
                                vec![Value::Str(name.into()), Value::Str(ty.to_string().into())]
                            })
                            .collect(),
                    }));
                }
                // `EXPLAIN (VERIFY)` runs the verifier unconditionally (it
                // is an explicit request); `EXPLAIN ANALYZE` and
                // `EXPLAIN (TRACE)` vet the plan first whenever verification
                // is on, so a rejected plan is reported instead of executed.
                let analyze = matches!(mode, ExplainMode::Analyze | ExplainMode::Trace);
                let verify_now =
                    *mode == ExplainMode::Verify || (analyze && self.config.verify_plans);
                // `EXPLAIN (TRACE)` traces on a local clock whatever the
                // sampling policy; the clock starts before planning so the
                // plan span has a true offset.
                let mut traced = (*mode == ExplainMode::Trace).then(|| {
                    let clock = StatementClock::start();
                    StatementCtx {
                        trace: Some(TraceCtx::new(clock.origin())),
                        clock: Some(clock),
                        deadline: ctx.deadline,
                        budget: Arc::clone(&ctx.budget),
                        permit: None,
                    }
                });
                let (planned, report, _) = self.plan_verified(query, params, false, verify_now)?;
                if *mode == ExplainMode::Verify {
                    let report = report.expect("verify mode always computes a report");
                    self.record_verify(&report);
                    return Ok(StatementResult::Rows(QueryResult {
                        columns: vec![
                            "check".to_string(),
                            "status".to_string(),
                            "detail".to_string(),
                        ],
                        rows: VerifyRule::ALL
                            .iter()
                            .map(|rule| {
                                let details: Vec<String> = report
                                    .violations
                                    .iter()
                                    .filter(|v| v.rule == *rule)
                                    .map(|v| format!("{}: {}", v.node, v.message))
                                    .collect();
                                vec![
                                    Value::text(rule.name()),
                                    Value::text(if details.is_empty() {
                                        "ok"
                                    } else {
                                        "violation"
                                    }),
                                    Value::text(details.join("; ")),
                                ]
                            })
                            .collect(),
                    }));
                }
                let rendered = if analyze {
                    if let Some(report) = report {
                        self.verify_outcome(report, false, sql)?;
                    }
                    self.record_plan_modes(&planned.plan);
                    let stats = match &mut traced {
                        None => self.exec_ctx(ctx).execute_with_stats(&planned.plan)?.1,
                        Some(local) => {
                            local.lap_plan(&planned.plan);
                            let run = self.run_traced(&planned.plan, local);
                            local.lap(Phase::Exec);
                            run?.1
                        }
                    };
                    self.telemetry.record_op_stats(&stats);
                    match traced {
                        None => crate::explain::render_analyze(&stats),
                        Some(local) => {
                            let total_us = local.clock.as_ref().map_or(0, StatementClock::total_us);
                            let trace = local.trace.expect("EXPLAIN (TRACE) traces locally");
                            crate::explain::render_trace(&trace.finish("statement", total_us))
                        }
                    }
                } else {
                    crate::explain::render_plan(&planned.plan)
                };
                let column = if *mode == ExplainMode::Trace {
                    "trace"
                } else {
                    "plan"
                };
                Ok(StatementResult::Rows(QueryResult {
                    columns: vec![column.to_string()],
                    rows: rendered
                        .lines()
                        .map(|l| vec![Value::Str(l.into())])
                        .collect(),
                }))
            }
            Statement::CreateTable(ct) => {
                let columns: Vec<(String, DataType)> =
                    ct.columns.iter().map(|c| (c.name.clone(), c.ty)).collect();
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|(name, ty)| Column {
                            name: name.clone(),
                            ty: *ty,
                        })
                        .collect(),
                );
                let table = Table::new(ct.name.clone(), schema, &ct.primary_key)?;
                let mut catalog = self.write_catalog()?;
                let created = catalog.create_table(table, ct.if_not_exists)?;
                let ticket = if created {
                    self.wal_log(
                        &catalog,
                        vec![WalOp::CreateTable {
                            name: ct.name.clone(),
                            columns,
                            primary_key: ct.primary_key.clone(),
                        }],
                        ctx.deadline,
                        ctx.wal_scope(),
                    )?
                } else {
                    None
                };
                drop(catalog);
                self.wal_wait(ticket, ctx.deadline, ctx.wal_scope())?;
                Ok(StatementResult::Affected(0))
            }
            Statement::CreateIndex(ci) => {
                let mut catalog = self.write_catalog()?;
                let table = catalog.get_mut(&ci.table)?;
                if table.has_index(&ci.name) {
                    if ci.if_not_exists {
                        return Ok(StatementResult::Affected(0));
                    }
                    return Err(EngineError::catalog(format!(
                        "index '{}' already exists",
                        ci.name
                    )));
                }
                table.create_index(&ci.name, &ci.columns, ci.unique)?;
                let ticket = self.wal_log(
                    &catalog,
                    vec![WalOp::CreateIndex {
                        table: ci.table.clone(),
                        name: ci.name.clone(),
                        columns: ci.columns.clone(),
                        unique: ci.unique,
                    }],
                    ctx.deadline,
                    ctx.wal_scope(),
                )?;
                drop(catalog);
                self.wal_wait(ticket, ctx.deadline, ctx.wal_scope())?;
                Ok(StatementResult::Affected(0))
            }
            Statement::DropTable { name, if_exists } => {
                let mut catalog = self.write_catalog()?;
                let dropped = catalog.drop_table(name, *if_exists)?;
                let ticket = if dropped {
                    self.wal_log(
                        &catalog,
                        vec![WalOp::DropTable { name: name.clone() }],
                        ctx.deadline,
                        ctx.wal_scope(),
                    )?
                } else {
                    None
                };
                drop(catalog);
                self.wal_wait(ticket, ctx.deadline, ctx.wal_scope())?;
                Ok(StatementResult::Affected(0))
            }
            Statement::CreateTableAs {
                name,
                if_not_exists,
                query,
            } => {
                let (planned, ..) = self.plan_verified(query, params, false, false)?;
                let rows = self.exec_ctx(ctx).execute(&planned.plan)?;
                let columns: Vec<(String, DataType)> = planned
                    .columns
                    .iter()
                    .map(|c| (c.clone(), DataType::Any))
                    .collect();
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|(name, ty)| Column {
                            name: name.clone(),
                            ty: *ty,
                        })
                        .collect(),
                );
                let mut table = Table::new(name.clone(), schema, &[])?;
                let n = rows.len();
                // Clone the result rows for the log up front: the table takes
                // ownership of them below.
                let logged_rows = self.wal.is_some().then(|| rows.clone());
                for row in rows {
                    table.insert_row(row, None)?;
                }
                let mut catalog = self.write_catalog()?;
                let created = catalog.create_table(table, *if_not_exists)?;
                let ticket = if created {
                    let mut ops = vec![WalOp::CreateTable {
                        name: name.clone(),
                        columns,
                        primary_key: Vec::new(),
                    }];
                    if let Some(rows) = logged_rows {
                        if !rows.is_empty() {
                            ops.push(WalOp::Insert {
                                table: name.clone(),
                                rows,
                            });
                        }
                    }
                    self.wal_log(&catalog, ops, ctx.deadline, ctx.wal_scope())?
                } else {
                    None
                };
                drop(catalog);
                self.wal_wait(ticket, ctx.deadline, ctx.wal_scope())?;
                Ok(StatementResult::Affected(n))
            }
            Statement::Begin => {
                let mut backup = self.txn_backup.lock();
                if backup.is_some() {
                    return Err(EngineError::exec("a transaction is already in progress"));
                }
                *backup = Some(self.catalog.read().clone());
                if let Some(wal) = &self.wal {
                    wal.begin();
                }
                Ok(StatementResult::Affected(0))
            }
            Statement::Commit => {
                let mut backup = self.txn_backup.lock();
                if backup.is_none() {
                    return Err(EngineError::exec("no transaction in progress"));
                }
                // Flush the transaction's buffered ops as one batch while
                // holding the catalog lock, so the flush serializes with any
                // concurrent writer. A plain `write()` (no version bump): the
                // catalog itself is not mutated here.
                let flush = match &self.wal {
                    Some(wal) => {
                        let catalog = self.catalog.write();
                        let scope = ctx.wal_scope();
                        wal.commit_traced(&catalog, ctx.deadline, scope.as_ref())
                    }
                    None => Ok(None),
                };
                backup.take();
                // Release the transaction guard before blocking on the group
                // flush (`wal_wait` re-reads transaction state).
                drop(backup);
                self.wal_wait(flush?, ctx.deadline, ctx.wal_scope())?;
                Ok(StatementResult::Affected(0))
            }
            Statement::Rollback => {
                let mut backup = self.txn_backup.lock();
                match backup.take() {
                    Some(saved) => {
                        // Restore and discard the WAL's buffered ops under one
                        // guard: nothing was written durably since BEGIN, so
                        // the durable state already equals `saved`.
                        let mut catalog = self.write_catalog()?;
                        *catalog = saved;
                        if let Some(wal) = &self.wal {
                            wal.rollback();
                        }
                        Ok(StatementResult::Affected(0))
                    }
                    None => Err(EngineError::exec("no transaction in progress")),
                }
            }
            Statement::Insert(insert) => self.execute_insert(insert, params, ctx),
            Statement::Delete {
                table, predicate, ..
            } => {
                let predicate = self.resolve_dml_subqueries(predicate.clone(), params)?;
                let mut catalog = self.write_catalog()?;
                let t = catalog.get_mut(table)?;
                let idxs = match &predicate {
                    None => (0..t.row_count()).collect(),
                    Some(pred) => {
                        let scope = table_scope(t);
                        let bound = bind_expr(pred, &scope, params)?;
                        let mut idxs = Vec::new();
                        for (i, row) in t.rows.iter().enumerate() {
                            if bound.eval(row)?.as_bool()? == Some(true) {
                                idxs.push(i);
                            }
                        }
                        idxs
                    }
                };
                let logged_idxs = (self.wal.is_some() && !idxs.is_empty())
                    .then(|| idxs.iter().map(|&i| i as u64).collect::<Vec<u64>>());
                let n = t.delete_rows(idxs)?;
                let mut ticket = None;
                if let Some(idxs) = logged_idxs {
                    if n > 0 {
                        ticket = self.wal_log(
                            &catalog,
                            vec![WalOp::Delete {
                                table: table.clone(),
                                idxs,
                            }],
                            ctx.deadline,
                            ctx.wal_scope(),
                        )?;
                    }
                }
                drop(catalog);
                self.wal_wait(ticket, ctx.deadline, ctx.wal_scope())?;
                Ok(StatementResult::Affected(n))
            }
            Statement::Update {
                table,
                assignments,
                predicate,
                ..
            } => {
                let predicate = self.resolve_dml_subqueries(predicate.clone(), params)?;
                let mut catalog = self.write_catalog()?;
                let t = catalog.get_mut(table)?;
                let scope = table_scope(t);
                let bound_pred = predicate
                    .as_ref()
                    .map(|p| bind_expr(p, &scope, params))
                    .transpose()?;
                let mut bound_assignments = Vec::with_capacity(assignments.len());
                for (col, expr) in assignments {
                    let pos = t.schema.position(col).ok_or_else(|| {
                        EngineError::plan(format!("unknown column '{col}' in UPDATE"))
                    })?;
                    bound_assignments.push((pos, bind_expr(expr, &scope, params)?));
                }
                let mut updates = Vec::new();
                for (i, row) in t.rows.iter().enumerate() {
                    let matches = match &bound_pred {
                        None => true,
                        Some(p) => p.eval(row)?.as_bool()? == Some(true),
                    };
                    if matches {
                        let mut new_row = row.clone();
                        for (pos, e) in &bound_assignments {
                            new_row[*pos] = e.eval(row)?;
                        }
                        updates.push((i, new_row));
                    }
                }
                let wal_on = self.wal.is_some();
                let mut ops = Vec::new();
                let mut applied = 0usize;
                let mut failure = None;
                for (i, new_row) in updates {
                    let logged = wal_on.then(|| new_row.clone());
                    if let Err(e) = t.replace_row(i, new_row) {
                        failure = Some(e);
                        break;
                    }
                    applied += 1;
                    if let Some(row) = logged {
                        ops.push(WalOp::Replace {
                            table: table.clone(),
                            idx: i as u64,
                            row,
                        });
                    }
                }
                // A statement that failed midway still logs the prefix it
                // applied — recovery must reproduce the in-memory state, not
                // an idealized all-or-nothing one.
                let wal_result = if ops.is_empty() {
                    Ok(None)
                } else {
                    self.wal_log(&catalog, ops, ctx.deadline, ctx.wal_scope())
                };
                drop(catalog);
                if let Some(e) = failure {
                    if let Ok(ticket) = wal_result {
                        let _ = self.wal_wait(ticket, ctx.deadline, ctx.wal_scope());
                    }
                    return Err(e);
                }
                self.wal_wait(wal_result?, ctx.deadline, ctx.wal_scope())?;
                Ok(StatementResult::Affected(applied))
            }
        }
    }

    /// Evaluate uncorrelated subqueries inside a DML predicate against the
    /// current catalog (before the write lock is taken).
    fn resolve_dml_subqueries(
        &self,
        predicate: Option<Expr>,
        params: &[Value],
    ) -> Result<Option<Expr>> {
        let Some(mut pred) = predicate else {
            return Ok(None);
        };
        let catalog = self.catalog.read();
        let mut planner = Planner::new(&catalog, params, self.config.planner()).with_virtuals(self);
        planner.resolve_subqueries(&mut pred)?;
        Ok(Some(pred))
    }

    fn execute_insert(
        &self,
        insert: &crate::ast::Insert,
        params: &[Value],
        ctx: &StatementCtx,
    ) -> Result<StatementResult> {
        // Evaluate the source rows to completion *before* taking the write
        // lock. The source query plans under a read lock and captures `Arc`
        // snapshots of every table it scans, so `INSERT INTO t SELECT .. FROM
        // t` reads a consistent pre-statement image of `t` — newly inserted
        // rows can never feed back into the same statement's source, even
        // though the scan snapshot and the write below are separate lock
        // acquisitions (the catalog rows are copy-on-write via `Arc`).
        let source_rows: Vec<Row> = match &insert.source {
            InsertSource::Values(rows) => {
                let scope = Scope::default();
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut vals = Vec::with_capacity(row.len());
                    for e in row {
                        vals.push(bind_expr(e, &scope, params)?.eval(&[])?);
                    }
                    out.push(vals);
                }
                out
            }
            InsertSource::Query(q) => {
                let (planned, ..) = self.plan_verified(q, params, false, false)?;
                self.exec_ctx(ctx).execute(&planned.plan)?
            }
        };

        let mut catalog = self.write_catalog()?;
        let t = catalog.get_mut(&insert.table)?;

        // Map provided columns to schema positions.
        let positions: Vec<usize> = if insert.columns.is_empty() {
            (0..t.schema.len()).collect()
        } else {
            insert
                .columns
                .iter()
                .map(|c| {
                    t.schema.position(c).ok_or_else(|| {
                        EngineError::plan(format!(
                            "unknown column '{c}' in INSERT INTO {}",
                            insert.table
                        ))
                    })
                })
                .collect::<Result<_>>()?
        };

        // Resolve the conflict clause.
        let (resolved, do_update) = match &insert.on_conflict {
            None => (None, None),
            Some(oc) => {
                let primary = t.primary.as_ref().ok_or_else(|| {
                    EngineError::plan(format!(
                        "ON CONFLICT on table '{}' which has no unique index",
                        insert.table
                    ))
                })?;
                if !oc.target_columns.is_empty() {
                    let mut target: Vec<usize> = oc
                        .target_columns
                        .iter()
                        .map(|c| {
                            t.schema.position(c).ok_or_else(|| {
                                EngineError::plan(format!("unknown conflict column '{c}'"))
                            })
                        })
                        .collect::<Result<_>>()?;
                    target.sort_unstable();
                    let mut key = primary.key_columns.clone();
                    key.sort_unstable();
                    if target != key {
                        return Err(EngineError::plan(format!(
                            "ON CONFLICT target does not match the unique index of '{}'",
                            insert.table
                        )));
                    }
                }
                match &oc.action {
                    ConflictAction::DoNothing => (Some(ResolvedConflict::DoNothing), None),
                    ConflictAction::DoUpdate(assignments) => {
                        // Bind assignments against [existing row, excluded row].
                        let mut labels: Vec<ColLabel> = t
                            .schema
                            .columns
                            .iter()
                            .map(|c| ColLabel::new(Some(&t.name), &c.name))
                            .collect();
                        labels.extend(
                            t.schema
                                .columns
                                .iter()
                                .map(|c| ColLabel::new(Some("excluded"), &c.name)),
                        );
                        let scope = Scope::new(labels);
                        let table_name = t.name.clone();
                        let mut bound = Vec::with_capacity(assignments.len());
                        for (col, expr) in assignments {
                            let pos = t.schema.position(col).ok_or_else(|| {
                                EngineError::plan(format!(
                                    "unknown column '{col}' in DO UPDATE SET"
                                ))
                            })?;
                            // PostgreSQL resolves bare columns to the existing
                            // row; qualify them with the table name up front.
                            let mut expr = expr.clone();
                            qualify_bare_columns(&mut expr, &table_name);
                            bound.push((pos, bind_expr(&expr, &scope, params)?));
                        }
                        (Some(ResolvedConflict::DoUpdate), Some(bound))
                    }
                }
            }
        };

        let width = t.schema.len();
        let wal_on = self.wal.is_some();
        let mut ops: Vec<WalOp> = Vec::new();
        let mut affected = 0usize;
        // Errors are captured rather than propagated with `?` so the ops of
        // the successfully applied prefix still reach the WAL — recovery must
        // reproduce the in-memory state a partially failed statement left
        // behind, exactly.
        let mut failure: Option<EngineError> = None;
        'rows: for src in source_rows {
            if src.len() != positions.len() {
                failure = Some(EngineError::exec(format!(
                    "INSERT expects {} values per row, got {}",
                    positions.len(),
                    src.len()
                )));
                break;
            }
            let mut row: Row = vec![Value::Null; width];
            for (pos, v) in positions.iter().zip(src) {
                row[*pos] = v;
            }
            match t.insert_row(row, resolved.as_ref()) {
                Ok(InsertOutcome::Inserted) => {
                    affected += 1;
                    if wal_on {
                        // Log the row as stored (insert_row may coerce
                        // values), so replay matches byte for byte.
                        let stored = t.rows.last().expect("row just inserted").clone();
                        push_insert(&mut ops, &insert.table, stored);
                    }
                }
                Ok(InsertOutcome::Ignored) => {}
                Ok(InsertOutcome::Conflict {
                    existing_idx,
                    proposed,
                }) => {
                    let assignments = do_update
                        .as_ref()
                        .expect("DoUpdate resolution implies bound assignments");
                    // Evaluation row = existing ++ excluded.
                    let mut eval_row = t.rows[existing_idx].clone();
                    eval_row.extend(proposed);
                    let mut new_row = t.rows[existing_idx].clone();
                    for (pos, e) in assignments {
                        match e.eval(&eval_row) {
                            Ok(v) => new_row[*pos] = v,
                            Err(e) => {
                                failure = Some(e);
                                break 'rows;
                            }
                        }
                    }
                    let logged = wal_on.then(|| new_row.clone());
                    if let Err(e) = t.replace_row(existing_idx, new_row) {
                        failure = Some(e);
                        break;
                    }
                    affected += 1;
                    if let Some(row) = logged {
                        ops.push(WalOp::Replace {
                            table: insert.table.clone(),
                            idx: existing_idx as u64,
                            row,
                        });
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        let wal_result = if ops.is_empty() {
            Ok(None)
        } else {
            self.wal_log(&catalog, ops, ctx.deadline, ctx.wal_scope())
        };
        drop(catalog);
        if let Some(e) = failure {
            if let Ok(ticket) = wal_result {
                let _ = self.wal_wait(ticket, ctx.deadline, ctx.wal_scope());
            }
            return Err(e);
        }
        self.wal_wait(wal_result?, ctx.deadline, ctx.wal_scope())?;
        Ok(StatementResult::Affected(affected))
    }
}

// ----------------------------------------------------------------------
// Virtual `sys.*` tables
// ----------------------------------------------------------------------

/// One `sys.metrics` row.
fn metric(name: &str, kind: &str, value: f64) -> Row {
    vec![Value::text(name), Value::text(kind), Value::Float(value)]
}

/// Append the five summary rows of one latency histogram.
fn histogram_metrics(rows: &mut Vec<Row>, prefix: &str, h: &Histogram) {
    rows.push(metric(
        &format!("{prefix}.count"),
        "counter",
        h.count() as f64,
    ));
    rows.push(metric(
        &format!("{prefix}.mean_us"),
        "histogram",
        h.mean_micros(),
    ));
    rows.push(metric(
        &format!("{prefix}.p50_us"),
        "histogram",
        h.percentile_micros(0.50),
    ));
    rows.push(metric(
        &format!("{prefix}.p99_us"),
        "histogram",
        h.percentile_micros(0.99),
    ));
    rows.push(metric(
        &format!("{prefix}.max_us"),
        "histogram",
        h.max_micros() as f64,
    ));
}

impl Database {
    fn sys_metrics_rows(&self, catalog: &Catalog) -> Vec<Row> {
        let t = &self.telemetry;
        let (hits, misses, evictions) = self.plan_cache_metrics();
        // Columnar gauges reflect *built* chunk caches only: tables never
        // scanned by a vectorized query report zero (chunks are lazy).
        let (chunks, dict_cols) = catalog
            .table_names()
            .into_iter()
            .filter_map(|name| catalog.get(&name).ok())
            .fold((0usize, 0usize), |(c, d), table| {
                let (cc, dc) = table.chunk_stats();
                (c + cc, d + dc)
            });
        let mut rows: Vec<Row> = Telemetry::COUNTERS
            .iter()
            .map(|(name, kind, counter)| metric(name, kind, counter(t).get() as f64))
            .collect();
        rows.extend([
            metric("statements.errors", "counter", t.statement_errors() as f64),
            metric("plan_cache.hits", "counter", hits as f64),
            metric("plan_cache.misses", "counter", misses as f64),
            metric("plan_cache.evictions", "counter", evictions as f64),
            metric(
                "plan_cache.entries",
                "gauge",
                self.plan_cache.lock().len() as f64,
            ),
            metric("catalog.version", "gauge", self.catalog_version() as f64),
            metric("wal.bytes", "gauge", self.wal_bytes().unwrap_or(0) as f64),
            metric("columnar.chunks", "gauge", chunks as f64),
            metric("columnar.dict_columns", "gauge", dict_cols as f64),
            metric(
                "wal.degraded",
                "gauge",
                f64::from(self.wal.as_ref().is_some_and(Wal::degraded)),
            ),
        ]);
        for (prefix, _, hist) in Telemetry::HISTOGRAMS {
            if let Some(prefix) = prefix {
                histogram_metrics(&mut rows, prefix, hist(t));
            }
        }
        for (kind, agg) in t.op_rollups() {
            rows.push(metric(
                &format!("op.{kind}.calls"),
                "counter",
                agg.calls as f64,
            ));
            rows.push(metric(
                &format!("op.{kind}.rows_out"),
                "counter",
                agg.rows_out as f64,
            ));
            rows.push(metric(
                &format!("op.{kind}.total_us"),
                "counter",
                agg.nanos as f64 / 1e3,
            ));
        }
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        rows
    }

    fn sys_query_log_rows(&self) -> Vec<Row> {
        self.telemetry
            .query_log()
            .into_iter()
            .map(|e| {
                vec![
                    Value::Int(e.id as i64),
                    Value::Str(e.sql.into()),
                    Value::text(e.status.as_str()),
                    e.error.map_or(Value::Null, |m| Value::Str(m.into())),
                    Value::Int(i64::from(e.cache_hit)),
                    Value::Int(i64::from(e.slow)),
                    Value::Int(e.parse_us as i64),
                    Value::Int(e.sema_us as i64),
                    Value::Int(e.plan_us as i64),
                    Value::Int(e.exec_us as i64),
                    Value::Float(e.total_us as f64 / 1e3),
                    Value::Int(e.rows as i64),
                    Value::Int(e.peak_mem_bytes as i64),
                    e.queue_wait_us
                        .map_or(Value::Null, |v| Value::Int(v as i64)),
                    e.fsync_wait_us
                        .map_or(Value::Null, |v| Value::Int(v as i64)),
                    e.retry_count.map_or(Value::Null, |v| Value::Int(v as i64)),
                ]
            })
            .collect()
    }

    /// Rows of `sys.trace_spans`: every span of every kept statement trace,
    /// joinable to `sys.query_log` on `statement_id`.
    fn sys_trace_spans_rows(&self) -> Vec<Row> {
        self.telemetry
            .traces()
            .into_iter()
            .flat_map(|trace| {
                let statement_id = trace.statement_id;
                trace.spans.into_iter().map(move |s| {
                    vec![
                        Value::Int(statement_id as i64),
                        Value::Int(i64::from(s.id)),
                        s.parent.map_or(Value::Null, |p| Value::Int(i64::from(p))),
                        Value::text(&s.name),
                        Value::Int(s.start_us as i64),
                        Value::Int(s.duration_us as i64),
                        s.wait_class
                            .map_or(Value::Null, |w| Value::text(w.as_str())),
                        s.rows.map_or(Value::Null, |r| Value::Int(r as i64)),
                        Value::Str(s.attrs_text().into()),
                    ]
                })
            })
            .collect()
    }

    /// Rows of `sys.wait_events`: one rollup row per wait class, fed by the
    /// always-on wait histograms (recorded only on contended paths, with or
    /// without trace sampling).
    fn sys_wait_events_rows(&self) -> Vec<Row> {
        let t = &self.telemetry;
        [
            (WaitClass::Admission, &t.wait_admission_us),
            (WaitClass::Fsync, &t.wait_fsync_us),
            (WaitClass::WalRetry, &t.wait_wal_retry_us),
            (WaitClass::WorkerIdle, &t.wait_worker_idle_us),
        ]
        .into_iter()
        .map(|(class, hist)| {
            vec![
                Value::text(class.as_str()),
                Value::Int(hist.count() as i64),
                Value::Int(hist.sum_micros() as i64),
                Value::Float(hist.mean_micros()),
                Value::Int(hist.max_micros() as i64),
            ]
        })
        .collect()
    }

    /// Rows of `sys.histograms`: the raw power-of-two latency buckets behind
    /// every latency histogram, one row per non-empty bucket.
    fn sys_histograms_rows(&self) -> Vec<Row> {
        let t = &self.telemetry;
        let mut rows = Vec::new();
        for (_, name, hist) in Telemetry::HISTOGRAMS {
            for (i, count) in hist(t).bucket_counts().into_iter().enumerate() {
                if count == 0 {
                    continue;
                }
                rows.push(vec![
                    Value::text(name),
                    Value::Int(Histogram::bucket_lo_us(i) as i64),
                    Value::Int(Histogram::bucket_hi_us(i) as i64),
                    Value::Int(count as i64),
                ]);
            }
        }
        rows
    }

    fn sys_tables_rows(catalog: &Catalog) -> Vec<Row> {
        catalog
            .table_names()
            .into_iter()
            .filter_map(|name| {
                let t = catalog.get(&name).ok()?;
                let pk = t
                    .primary
                    .as_ref()
                    .map(|p| {
                        p.key_columns
                            .iter()
                            .map(|&i| t.schema.columns[i].name.as_str())
                            .collect::<Vec<_>>()
                            .join(",")
                    })
                    .unwrap_or_default();
                let (chunk_count, dict_columns) = t.chunk_stats();
                Some(vec![
                    Value::text(&name),
                    Value::Int(t.row_count() as i64),
                    Value::Int(t.schema.len() as i64),
                    Value::Str(pk.into()),
                    Value::Int(t.secondary.len() as i64),
                    Value::Int(chunk_count as i64),
                    Value::Int(dict_columns as i64),
                ])
            })
            .collect()
    }

    fn sys_born_models_rows(&self) -> Vec<Row> {
        self.telemetry.with_models(|models| {
            models
                .iter()
                .map(|(name, s)| {
                    vec![
                        Value::text(name),
                        Value::Int(i64::from(s.deployed)),
                        Value::Int(s.predict_calls as i64),
                        Value::Float(s.predict_us.mean_micros()),
                        Value::Float(s.predict_us.percentile_micros(0.50)),
                        Value::Float(s.predict_us.percentile_micros(0.99)),
                        Value::Int(s.rows_returned as i64),
                        Value::Int(s.fit_batches as i64),
                        Value::Int(s.unlearn_calls as i64),
                    ]
                })
                .collect()
        })
    }
}

impl VirtualTables for Database {
    fn virtual_table(&self, catalog: &Catalog, name: &str) -> Option<(Schema, Arc<Vec<Row>>)> {
        let canonical = sys::canonical(name)?;
        let schema = sys::schema(canonical).expect("known sys tables have schemas");
        let rows = match canonical {
            sys::METRICS => self.sys_metrics_rows(catalog),
            sys::QUERY_LOG => self.sys_query_log_rows(),
            sys::TABLES => Self::sys_tables_rows(catalog),
            sys::BORN_MODELS => self.sys_born_models_rows(),
            sys::TRACE_SPANS => self.sys_trace_spans_rows(),
            sys::WAIT_EVENTS => self.sys_wait_events_rows(),
            sys::HISTOGRAMS => self.sys_histograms_rows(),
            _ => unreachable!("canonical returns only known names"),
        };
        Some((schema, Arc::new(rows)))
    }
}

/// A statement parsed once, executable many times with fresh parameters.
pub struct Prepared<'db> {
    db: &'db Database,
    sql: String,
    stmt: Statement,
}

impl Prepared<'_> {
    /// Execute with the given parameters.
    pub fn execute(&self, params: &[Value]) -> Result<StatementResult> {
        self.db
            .run_statement(&self.sql, Entry::Prepared(&self.stmt), params)
    }

    /// Execute and return rows.
    pub fn query(&self, params: &[Value]) -> Result<QueryResult> {
        self.execute(params)?.into_rows()
    }
}

/// Scope of a base table for DML binding: columns visible bare and
/// table-qualified, carrying their declared types.
fn table_scope(t: &Table) -> Scope {
    Scope::new(
        t.schema
            .columns
            .iter()
            .map(|c| ColLabel::new(Some(&t.name), &c.name).with_ty(c.ty))
            .collect(),
    )
}

/// Qualify unqualified column references with `table` (AST rewrite used for
/// `ON CONFLICT DO UPDATE` expressions and mirrored by the semantic
/// analyzer's upsert checks).
pub(crate) fn qualify_bare_columns(e: &mut Expr, table: &str) {
    match e {
        Expr::Column { qualifier, .. } => {
            if qualifier.is_none() {
                *qualifier = Some(table.to_string());
            }
        }
        Expr::Literal(..) | Expr::Param(..) => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            qualify_bare_columns(expr, table);
        }
        Expr::Binary { left, right, .. } => {
            qualify_bare_columns(left, table);
            qualify_bare_columns(right, table);
        }
        Expr::InList { expr, list, .. } => {
            qualify_bare_columns(expr, table);
            for i in list {
                qualify_bare_columns(i, table);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            qualify_bare_columns(expr, table);
            qualify_bare_columns(low, table);
            qualify_bare_columns(high, table);
        }
        Expr::Like { expr, pattern, .. } => {
            qualify_bare_columns(expr, table);
            qualify_bare_columns(pattern, table);
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
            ..
        } => {
            if let Some(o) = operand {
                qualify_bare_columns(o, table);
            }
            for (w, th) in branches {
                qualify_bare_columns(w, table);
                qualify_bare_columns(th, table);
            }
            if let Some(el) = else_expr {
                qualify_bare_columns(el, table);
            }
        }
        Expr::Function { args, .. } => {
            for a in args {
                qualify_bare_columns(a, table);
            }
        }
        Expr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                qualify_bare_columns(a, table);
            }
        }
        Expr::WindowRowNumber {
            partition_by,
            order_by,
            ..
        } => {
            for p in partition_by {
                qualify_bare_columns(p, table);
            }
            for oi in order_by {
                qualify_bare_columns(&mut oi.expr, table);
            }
        }
        // Subquery bodies have their own scopes.
        Expr::ScalarSubquery(..) | Expr::Exists { .. } => {}
        Expr::InSubquery { expr, .. } => qualify_bare_columns(expr, table),
    }
}

#[cfg(test)]
mod tests {
    use super::normalize_cache_key;

    #[test]
    fn cache_key_collapses_whitespace_and_keyword_case() {
        let a = normalize_cache_key("SELECT  n,\n\ts  FROM t\nWHERE n = ?  ORDER   BY n");
        let b = normalize_cache_key("select n, s from t where n = ? order by n");
        assert_eq!(a, b);
        assert_eq!(a, "select n, s from t where n = ? order by n");
    }

    #[test]
    fn cache_key_preserves_identifier_and_literal_case() {
        // Identifiers keep their case (it is significant in output column
        // names) and string literals are copied verbatim, including the
        // doubled-quote escape; only keywords fold.
        let k = normalize_cache_key("SELECT Col  AS Total FROM T WHERE s = 'TOK''x'");
        assert_eq!(k, "select Col as Total from T where s = 'TOK''x'");
    }

    #[test]
    fn cache_key_drops_leading_and_trailing_whitespace() {
        assert_eq!(normalize_cache_key("  SELECT 1  "), "select 1");
    }

    #[test]
    fn cache_key_distinguishes_different_literals() {
        assert_ne!(
            normalize_cache_key("SELECT * FROM t WHERE s = 'a'"),
            normalize_cache_key("SELECT * FROM t WHERE s = 'A'")
        );
    }
}
