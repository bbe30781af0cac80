//! Query planner: AST → physical plan.
//!
//! The planner follows the classic layering (scan → filter → join →
//! aggregate → window → project → distinct → sort → limit) with a few
//! practical optimizations that matter for BornSQL-style workloads:
//!
//! * single-table predicates are pushed below joins;
//! * equi-join conjuncts in the WHERE clause of comma-joins are detected and
//!   turned into hash joins (greedy left-deep ordering);
//! * CTEs are either inlined (pipelined, the default — this is the paper's
//!   "no intermediate materialization" claim) or materialized once,
//!   depending on [`PlannerConfig::materialize_ctes`].

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::{
    self, Expr, JoinKind, OrderItem, Query, QueryPart, Select, SelectItem, SetExpr, TableRef,
};
use crate::catalog::{Catalog, Schema, Table};
use crate::error::{EngineError, Result, Span};
use crate::expr::{bind_expr, bind_expr_symbolic, ColLabel, PhysExpr, Scope};
use crate::value::{Row, Value};

/// Which algorithm executes detected equi-joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinAlgo {
    /// Build a hash table on the right side, probe with the left.
    #[default]
    Hash,
    /// Sort both sides on the key and merge (an O(n log n) engine without
    /// hashing — the profile-C stand-in).
    SortMerge,
}

/// Planner options — these are the knobs the benchmark harness sweeps to
/// emulate different DBMS profiles (see DESIGN.md, "Substitutions").
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Algorithm for detected equi-joins. Joins with no equi conjunct always
    /// fall back to a nested loop.
    pub join_algo: JoinAlgo,
    /// Evaluate each CTE once into an in-memory table instead of inlining
    /// its plan at every reference.
    pub materialize_ctes: bool,
    /// Match equality / `IN`-list predicates and join keys against table
    /// indexes, emitting `IndexScan` / index-nested-loop plans. Disabled for
    /// the forced-full-scan differential tests.
    pub use_indexes: bool,
    /// Attach columnar chunk slots to base-table scans so eligible
    /// filter/project/aggregate chains run the vectorized kernels. Disabled
    /// to force the row path for differential testing.
    pub vectorized: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            join_algo: JoinAlgo::Hash,
            materialize_ctes: false,
            use_indexes: true,
            vectorized: true,
        }
    }
}

/// Cartesian-product cap on the number of point lookups one `IndexScan` may
/// carry; predicates expanding past this stay as full-scan filters.
const MAX_INDEX_KEYS: usize = 64;

/// The inner side of an index-nested-loop join must have at least this many
/// rows for the lookup path to beat a hash build over it.
const MIN_INDEX_JOIN_INNER_ROWS: usize = 64;

/// The probe side's estimated cardinality must be at most `inner /
/// INDEX_JOIN_SELECTIVITY` for an index-nested-loop join to be chosen.
const INDEX_JOIN_SELECTIVITY: usize = 8;

/// Aggregate specification inside an [`PhysPlan::Aggregate`].
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: ast::AggregateFunc,
    /// `None` for `COUNT(*)`.
    pub arg: Option<PhysExpr>,
    pub distinct: bool,
}

/// A snapshot of one table index usable by the executor (shared with the
/// catalog behind `Arc`, like row snapshots).
#[derive(Debug, Clone)]
pub enum IndexRef {
    /// Primary / unique index: key → row index.
    Unique(Arc<HashMap<Vec<Value>, usize>>),
    /// Secondary index: key → row indexes.
    Multi(Arc<HashMap<Vec<Value>, Vec<usize>>>),
}

impl IndexRef {
    /// Append the row indexes stored under `key` to `out`.
    pub(crate) fn lookup_into(&self, key: &[Value], out: &mut Vec<usize>) {
        match self {
            IndexRef::Unique(map) => out.extend(map.get(key).copied()),
            IndexRef::Multi(map) => {
                if let Some(list) = map.get(key) {
                    out.extend_from_slice(list);
                }
            }
        }
    }
}

/// A physical, immediately executable plan. Scans hold `Arc` snapshots of
/// table rows, so execution never touches the catalog.
#[derive(Debug, Clone)]
pub enum PhysPlan {
    /// Scan a snapshot of a base table (or a materialized CTE). `chunks`
    /// carries the table's lazily built columnar image when the planner
    /// enabled vectorized execution for this scan; it was captured under the
    /// same catalog read as `rows`, so the two always describe the same
    /// snapshot. `None` forces the row path.
    Scan {
        rows: Arc<Vec<Row>>,
        width: usize,
        chunks: Option<crate::column::ChunkSlot>,
    },
    /// Scan a virtual `sys.*` system table, materialized from the engine's
    /// telemetry registry at plan time (point-in-time snapshot semantics,
    /// like every other scan). Never index-accessible and never plan-cached.
    VirtualScan {
        name: String,
        rows: Arc<Vec<Row>>,
        width: usize,
    },
    /// Point / multi-point lookup against a table index instead of a full
    /// scan. `keys` holds the row-independent key tuples when the planner
    /// resolved them from equality / `IN` predicates — literals after inline
    /// binding, possibly [`PhysExpr::Param`]-bearing expressions in cached
    /// plan templates (the executor const-evaluates each tuple, dropping
    /// NULL-containing ones). It is `None` when this node is the inner side
    /// of an [`PhysPlan::IndexJoin`] and is probed with keys computed from
    /// the outer side at runtime.
    IndexScan {
        rows: Arc<Vec<Row>>,
        width: usize,
        index_name: String,
        index: IndexRef,
        keys: Option<Vec<Vec<PhysExpr>>>,
    },
    /// Index-nested-loop join: for each probe row, evaluate `probe_keys` and
    /// look the tuple up in the inner side's index — the inner table is never
    /// scanned. Chosen by the planner when the probe side is estimated to be
    /// much smaller than the indexed side.
    IndexJoin {
        probe: Box<PhysPlan>,
        /// Key expressions bound against the probe side's scope, in the
        /// inner index's key-column order.
        probe_keys: Vec<PhysExpr>,
        /// Always an [`PhysPlan::IndexScan`] with `keys: None`.
        inner: Box<PhysPlan>,
        /// When true the inner table's columns precede the probe columns in
        /// the output row (the inner side was the left FROM item).
        inner_is_left: bool,
        /// `Inner`, or `Left` when the probe side is the outer side of a
        /// LEFT JOIN (requires `inner_is_left == false`).
        kind: JoinKind,
        inner_width: usize,
        /// Residual predicate evaluated on joined rows (scope order).
        residual: Option<PhysExpr>,
    },
    /// One empty row — the FROM-less `SELECT`.
    OneRow,
    Filter {
        input: Box<PhysPlan>,
        predicate: PhysExpr,
    },
    Project {
        input: Box<PhysPlan>,
        exprs: Vec<PhysExpr>,
    },
    /// Equi-join executed by the configured [`JoinAlgo`].
    HashJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        left_keys: Vec<PhysExpr>,
        right_keys: Vec<PhysExpr>,
        kind: JoinKind,
        right_width: usize,
        /// Residual non-equi predicate evaluated on joined rows.
        residual: Option<PhysExpr>,
        algo: JoinAlgo,
    },
    NestedLoopJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        kind: JoinKind,
        right_width: usize,
        predicate: Option<PhysExpr>,
    },
    Aggregate {
        input: Box<PhysPlan>,
        keys: Vec<PhysExpr>,
        aggs: Vec<AggSpec>,
    },
    /// Appends one ranking column (`ROW_NUMBER`/`RANK`/`DENSE_RANK`) per
    /// window spec.
    Window {
        input: Box<PhysPlan>,
        func: ast::WindowFunc,
        partition: Vec<PhysExpr>,
        order: Vec<(PhysExpr, bool)>,
    },
    Sort {
        input: Box<PhysPlan>,
        keys: Vec<(PhysExpr, bool)>,
    },
    Limit {
        input: Box<PhysPlan>,
        limit: Option<usize>,
        offset: usize,
    },
    UnionAll {
        inputs: Vec<PhysPlan>,
    },
    Distinct {
        input: Box<PhysPlan>,
    },
}

impl PhysPlan {
    /// Number of operator nodes in the tree (the `nodes` attribute of the
    /// tracer's plan span — a cheap shape fingerprint for spotting plan
    /// changes across trace captures without storing the plan text).
    pub fn node_count(&self) -> usize {
        let mut n = 1;
        self.for_each_child(|c| n += c.node_count());
        n
    }

    /// Call `f` on each direct input of this operator, in plan order.
    pub(crate) fn for_each_child(&self, mut f: impl FnMut(&PhysPlan)) {
        match self {
            PhysPlan::Scan { .. }
            | PhysPlan::VirtualScan { .. }
            | PhysPlan::IndexScan { .. }
            | PhysPlan::OneRow => {}
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Aggregate { input, .. }
            | PhysPlan::Window { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Limit { input, .. }
            | PhysPlan::Distinct { input } => f(input),
            PhysPlan::HashJoin { left, right, .. }
            | PhysPlan::NestedLoopJoin { left, right, .. }
            | PhysPlan::IndexJoin {
                probe: left,
                inner: right,
                ..
            } => {
                f(left);
                f(right);
            }
            PhysPlan::UnionAll { inputs } => inputs.iter().for_each(f),
        }
    }

    /// Call `f` on every expression embedded anywhere in the tree, each
    /// node's inputs before its own expressions.
    pub(crate) fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut PhysExpr)) {
        match self {
            PhysPlan::Scan { .. } | PhysPlan::VirtualScan { .. } | PhysPlan::OneRow => {}
            PhysPlan::IndexScan { keys, .. } => keys.iter_mut().flatten().flatten().for_each(f),
            PhysPlan::IndexJoin {
                probe,
                probe_keys,
                inner,
                residual,
                ..
            } => {
                probe.for_each_expr_mut(f);
                inner.for_each_expr_mut(f);
                probe_keys.iter_mut().chain(residual).for_each(f);
            }
            PhysPlan::Filter { input, predicate } => {
                input.for_each_expr_mut(f);
                f(predicate);
            }
            PhysPlan::Project { input, exprs } => {
                input.for_each_expr_mut(f);
                exprs.iter_mut().for_each(f);
            }
            PhysPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                residual,
                ..
            } => {
                left.for_each_expr_mut(f);
                right.for_each_expr_mut(f);
                left_keys
                    .iter_mut()
                    .chain(right_keys)
                    .chain(residual)
                    .for_each(f);
            }
            PhysPlan::NestedLoopJoin {
                left,
                right,
                predicate,
                ..
            } => {
                left.for_each_expr_mut(f);
                right.for_each_expr_mut(f);
                predicate.iter_mut().for_each(f);
            }
            PhysPlan::Aggregate { input, keys, aggs } => {
                input.for_each_expr_mut(f);
                let args = aggs.iter_mut().filter_map(|a| a.arg.as_mut());
                keys.iter_mut().chain(args).for_each(f);
            }
            PhysPlan::Window {
                input,
                partition,
                order,
                ..
            } => {
                input.for_each_expr_mut(f);
                let order = order.iter_mut().map(|(e, _)| e);
                partition.iter_mut().chain(order).for_each(f);
            }
            PhysPlan::Sort { input, keys } => {
                input.for_each_expr_mut(f);
                keys.iter_mut().for_each(|(e, _)| f(e));
            }
            PhysPlan::Limit { input, .. } | PhysPlan::Distinct { input } => {
                input.for_each_expr_mut(f);
            }
            PhysPlan::UnionAll { inputs } => inputs.iter_mut().for_each(|p| p.for_each_expr_mut(f)),
        }
    }
}

// Plans (and the expressions they embed) are shared with executor worker
// threads via `Arc`, so the whole tree must stay `Send + Sync`.
#[allow(dead_code)]
fn _assert_plan_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<PhysPlan>();
    assert::<AggSpec>();
}

/// Output of planning a query: the plan plus its output column names.
#[derive(Clone)]
pub struct PlannedQuery {
    pub plan: PhysPlan,
    pub columns: Vec<String>,
    pub scope: Scope,
}

/// A planned FROM item: its plan, scope, and — while the plan is still the
/// bare scan of a base table — the table's access paths, so later planning
/// steps can swap the scan for an index lookup.
struct PlannedItem {
    plan: PhysPlan,
    scope: Scope,
    access: Option<TableAccess>,
}

/// Access-path metadata of a base table captured at planning time.
#[derive(Clone)]
struct TableAccess {
    rows: Arc<Vec<Row>>,
    width: usize,
    /// Primary index first, then secondaries in creation order — the match
    /// loop takes the first covering index, so this is the preference order.
    indexes: Vec<IndexMeta>,
}

#[derive(Clone)]
struct IndexMeta {
    name: String,
    key_columns: Vec<usize>,
    index: IndexRef,
}

/// If every key expression is a bare column and some index's key columns are
/// exactly that column set, return the index plus the permutation mapping
/// each index key column to its position in `keys`.
fn covering_index(access: &TableAccess, keys: &[PhysExpr]) -> Option<(IndexMeta, Vec<usize>)> {
    let cols: Vec<usize> = keys
        .iter()
        .map(|k| match k {
            PhysExpr::Column(c) => Some(*c),
            _ => None,
        })
        .collect::<Option<_>>()?;
    for idx in &access.indexes {
        if idx.key_columns.len() != cols.len() {
            continue;
        }
        let perm: Option<Vec<usize>> = idx
            .key_columns
            .iter()
            .map(|&kc| cols.iter().position(|&c| c == kc))
            .collect();
        if let Some(perm) = perm {
            return Some((idx.clone(), perm));
        }
    }
    None
}

/// Crude cardinality estimate used for the index-nested-loop join choice —
/// exact for scans, heuristic elsewhere. Over-estimating only costs us the
/// optimization; under-estimating costs one hash build we'd have paid anyway.
fn estimate_rows(plan: &PhysPlan) -> usize {
    match plan {
        PhysPlan::Scan { rows, .. } | PhysPlan::VirtualScan { rows, .. } => rows.len(),
        PhysPlan::IndexScan {
            rows, index, keys, ..
        } => match keys {
            Some(k) => match index {
                IndexRef::Unique(_) => k.len(),
                IndexRef::Multi(_) => k.len().saturating_mul(2),
            },
            None => rows.len(),
        },
        PhysPlan::OneRow => 1,
        PhysPlan::Filter { input, .. } => estimate_rows(input) / 3 + 1,
        PhysPlan::Project { input, .. }
        | PhysPlan::Window { input, .. }
        | PhysPlan::Sort { input, .. }
        | PhysPlan::Distinct { input } => estimate_rows(input),
        PhysPlan::Limit { input, limit, .. } => {
            let est = estimate_rows(input);
            limit.map_or(est, |l| l.min(est))
        }
        PhysPlan::HashJoin { left, right, .. } => estimate_rows(left).min(estimate_rows(right)),
        PhysPlan::IndexJoin { probe, .. } => estimate_rows(probe),
        PhysPlan::NestedLoopJoin {
            left,
            right,
            predicate,
            ..
        } => {
            let product = estimate_rows(left).saturating_mul(estimate_rows(right));
            if predicate.is_some() {
                product / 3 + 1
            } else {
                product
            }
        }
        PhysPlan::Aggregate { input, keys, .. } => {
            if keys.is_empty() {
                1
            } else {
                estimate_rows(input) / 4 + 1
            }
        }
        PhysPlan::UnionAll { inputs } => inputs.iter().map(estimate_rows).sum(),
    }
}

/// Decide whether an equi join should run as an index nested loop.
///
/// Returns `(inner_is_left, index, perm)` where `perm[i]` is the position in
/// the probe-side key list of the i-th index key column. The inner side must
/// still be a bare indexed scan, large enough to be worth avoiding a hash
/// build, and the probe side must look at least `INDEX_JOIN_SELECTIVITY`×
/// smaller. Probing the left side into a right-side index (`inner_is_left ==
/// false`) preserves outer-join semantics, so it is valid for LEFT joins;
/// the reverse orientation is inner-join only.
fn index_join_choice(
    l: &PlannedItem,
    left_keys: &[PhysExpr],
    r: &PlannedItem,
    right_keys: &[PhysExpr],
    kind: JoinKind,
) -> Option<(bool, IndexMeta, Vec<usize>)> {
    if let Some(acc) = &r.access {
        if let Some((meta, perm)) = covering_index(acc, right_keys) {
            let inner_rows = acc.rows.len();
            if inner_rows >= MIN_INDEX_JOIN_INNER_ROWS
                && estimate_rows(&l.plan).saturating_mul(INDEX_JOIN_SELECTIVITY) <= inner_rows
            {
                return Some((false, meta, perm));
            }
        }
    }
    if kind == JoinKind::Inner {
        if let Some(acc) = &l.access {
            if let Some((meta, perm)) = covering_index(acc, left_keys) {
                let inner_rows = acc.rows.len();
                if inner_rows >= MIN_INDEX_JOIN_INNER_ROWS
                    && estimate_rows(&r.plan).saturating_mul(INDEX_JOIN_SELECTIVITY) <= inner_rows
                {
                    return Some((true, meta, perm));
                }
            }
        }
    }
    None
}

/// Wrap `input` in a projection — unless the projection is an identity map
/// over a leaf of known width, i.e. a pure column rename (`SELECT * FROM t`,
/// derived-table aliasing like `(SELECT n, term AS j FROM t) AS qx`). Such
/// projections change nothing but names (which live in the scope, not the
/// plan), and eliding them both skips a per-row copy and leaves the bare
/// scan visible to the join planner's index-access machinery.
fn project_or_elide(input: PhysPlan, exprs: Vec<PhysExpr>) -> PhysPlan {
    let width = match &input {
        PhysPlan::Scan { width, .. }
        | PhysPlan::VirtualScan { width, .. }
        | PhysPlan::IndexScan { width, .. } => Some(*width),
        _ => None,
    };
    let identity = width == Some(exprs.len())
        && exprs
            .iter()
            .enumerate()
            .all(|(i, e)| matches!(e, PhysExpr::Column(c) if *c == i));
    if identity {
        input
    } else {
        PhysPlan::Project {
            input: Box::new(input),
            exprs,
        }
    }
}

/// Assemble the `IndexJoin` plan for a choice made by `index_join_choice`.
fn build_index_join(
    l: PlannedItem,
    left_keys: Vec<PhysExpr>,
    r: PlannedItem,
    right_keys: Vec<PhysExpr>,
    kind: JoinKind,
    residual: Option<PhysExpr>,
    (inner_is_left, meta, perm): (bool, IndexMeta, Vec<usize>),
) -> PhysPlan {
    let (probe_plan, probe_key_src, inner_item) = if inner_is_left {
        (r.plan, right_keys, l)
    } else {
        (l.plan, left_keys, r)
    };
    let access = inner_item
        .access
        .expect("index_join_choice picked an inner side with access metadata");
    let probe_keys = perm.iter().map(|&p| probe_key_src[p].clone()).collect();
    let inner = PhysPlan::IndexScan {
        rows: access.rows,
        width: access.width,
        index_name: meta.name,
        index: meta.index,
        keys: None,
    };
    PhysPlan::IndexJoin {
        probe: Box::new(probe_plan),
        probe_keys,
        inner: Box::new(inner),
        inner_is_left,
        kind,
        inner_width: access.width,
        residual,
    }
}

/// Provider of virtual `sys.*` tables, implemented by the engine layer. The
/// current catalog is passed in (rather than re-locked) so providers never
/// re-enter the planner's catalog read lock.
pub trait VirtualTables {
    /// Materialize the named virtual table as a row snapshot, or `None` if
    /// the name is not a known virtual table.
    fn virtual_table(&self, catalog: &Catalog, name: &str) -> Option<(Schema, Arc<Vec<Row>>)>;
}

/// Plans statements against a catalog snapshot.
pub struct Planner<'a> {
    pub catalog: &'a Catalog,
    pub params: &'a [Value],
    pub config: PlannerConfig,
    /// Bind `?` markers symbolically ([`PhysExpr::Param`]) instead of
    /// inlining `params`, producing a cacheable plan template that is
    /// re-bound per execution via [`bind_plan_params`].
    symbolic_params: bool,
    /// Resolver for virtual `sys.*` tables (engine-provided; `None` in
    /// bare planner tests).
    virtuals: Option<&'a dyn VirtualTables>,
    /// Set when any planned table ref resolved to a virtual table; such
    /// plans hold point-in-time telemetry rows and must not be cached.
    used_virtual: bool,
    /// Stack of CTE frames; inner queries see outer CTEs.
    cte_frames: Vec<HashMap<String, CteEntry>>,
    /// Scratch: WHERE conjuncts `join_comma_items` could not place; the
    /// caller turns them into a filter above the join tree.
    leftover_conjuncts: Vec<Expr>,
}

#[derive(Clone)]
enum CteEntry {
    /// Inline: re-plan the AST at each reference.
    Inline(Arc<Query>),
    /// Materialized rows with their scope-relative column names.
    Table(Arc<Vec<Row>>, Vec<String>),
}

impl<'a> Planner<'a> {
    pub fn new(catalog: &'a Catalog, params: &'a [Value], config: PlannerConfig) -> Self {
        Planner {
            catalog,
            params,
            config,
            symbolic_params: false,
            virtuals: None,
            used_virtual: false,
            cte_frames: Vec::new(),
            leftover_conjuncts: Vec::new(),
        }
    }

    /// Attach a virtual-table resolver (the engine) so `sys.*` names plan
    /// as [`PhysPlan::VirtualScan`]s.
    #[must_use]
    pub fn with_virtuals(mut self, virtuals: &'a dyn VirtualTables) -> Self {
        self.virtuals = Some(virtuals);
        self
    }

    /// Keep `?` markers symbolic so the resulting plan can be cached as a
    /// template. The caller must have checked [`params_unsupported`] first:
    /// parameters in positions consumed at plan time (LIMIT/OFFSET,
    /// subquery bodies, materialized CTEs) cannot stay symbolic.
    #[must_use]
    pub fn symbolic(mut self) -> Self {
        self.symbolic_params = true;
        self
    }

    /// Bind an expression honouring the planner's parameter mode.
    fn bind(&self, e: &Expr, scope: &Scope) -> Result<PhysExpr> {
        if self.symbolic_params {
            bind_expr_symbolic(e, scope)
        } else {
            bind_expr(e, scope, self.params)
        }
    }

    /// Whether any table ref in the last planned statement was virtual.
    pub fn used_virtual(&self) -> bool {
        self.used_virtual
    }

    fn lookup_cte(&self, name: &str) -> Option<CteEntry> {
        for frame in self.cte_frames.iter().rev() {
            if let Some(e) = frame.get(&name.to_ascii_lowercase()) {
                return Some(e.clone());
            }
        }
        None
    }

    /// Plan a full query (CTEs + body + ORDER BY/LIMIT).
    pub fn plan_query(&mut self, query: &Query) -> Result<PlannedQuery> {
        let mut frame = HashMap::new();
        for cte in &query.ctes {
            let entry = if self.config.materialize_ctes {
                // Plan and evaluate the CTE eagerly; references scan the rows.
                // Planner-time executions (materialized CTEs here, and the
                // uncorrelated subqueries in `resolve_subqueries`) run on the
                // serial executor: they happen under the planner's catalog
                // borrow, and their results become plain row snapshots.
                self.cte_frames.push(frame.clone());
                let planned = self.plan_query(&cte.query);
                self.cte_frames.pop();
                let planned = planned?;
                let rows = crate::exec::execute(&planned.plan)?;
                CteEntry::Table(Arc::new(rows), planned.columns)
            } else {
                CteEntry::Inline(Arc::new(Query {
                    // Inner CTEs of this WITH are visible to later CTEs via
                    // the frame pushed below; keep the query as-is.
                    ctes: cte.query.ctes.clone(),
                    body: cte.query.body.clone(),
                    order_by: cte.query.order_by.clone(),
                    limit: cte.query.limit.clone(),
                    offset: cte.query.offset.clone(),
                }))
            };
            frame.insert(cte.name.to_ascii_lowercase(), entry);
        }
        self.cte_frames.push(frame);
        let result = self.plan_query_body(query);
        self.cte_frames.pop();
        result
    }

    fn plan_query_body(&mut self, query: &Query) -> Result<PlannedQuery> {
        let mut planned = match &query.body {
            SetExpr::Select(select) => self.plan_select(select, &query.order_by)?,
            SetExpr::Union { .. } => {
                let mut p = self.plan_set_expr(&query.body)?;
                // ORDER BY over a union binds against the union's output.
                if !query.order_by.is_empty() {
                    let keys = self.bind_order_output(&query.order_by, &p.scope, &p.columns)?;
                    p.plan = PhysPlan::Sort {
                        input: Box::new(p.plan),
                        keys,
                    };
                }
                p
            }
        };
        let limit = query
            .limit
            .as_ref()
            .map(|e| self.const_usize(e, "LIMIT"))
            .transpose()?;
        let offset = query
            .offset
            .as_ref()
            .map(|e| self.const_usize(e, "OFFSET"))
            .transpose()?
            .unwrap_or(0);
        if limit.is_some() || offset > 0 {
            planned.plan = PhysPlan::Limit {
                input: Box::new(planned.plan),
                limit,
                offset,
            };
        }
        Ok(planned)
    }

    fn const_usize(&self, e: &Expr, what: &str) -> Result<usize> {
        let bound = self.bind(e, &Scope::default())?;
        let v = bound.eval_const()?;
        v.as_i64()?
            .filter(|&i| i >= 0)
            .map(|i| i as usize)
            .ok_or_else(|| EngineError::plan(format!("{what} must be a non-negative integer")))
    }

    fn plan_set_expr(&mut self, body: &SetExpr) -> Result<PlannedQuery> {
        match body {
            SetExpr::Select(select) => self.plan_select(select, &[]),
            SetExpr::Union { left, right, all } => {
                let l = self.plan_set_expr(left)?;
                let r = self.plan_set_expr(right)?;
                if l.columns.len() != r.columns.len() {
                    return Err(EngineError::plan(format!(
                        "UNION arms have different column counts ({} vs {})",
                        l.columns.len(),
                        r.columns.len()
                    )));
                }
                // Flatten nested unions for fewer copies.
                let mut inputs = Vec::new();
                match l.plan {
                    PhysPlan::UnionAll { inputs: li } if *all => inputs.extend(li),
                    other => inputs.push(other),
                }
                match r.plan {
                    PhysPlan::UnionAll { inputs: ri } if *all => inputs.extend(ri),
                    other => inputs.push(other),
                }
                let mut plan = PhysPlan::UnionAll { inputs };
                if !*all {
                    plan = PhysPlan::Distinct {
                        input: Box::new(plan),
                    };
                }
                Ok(PlannedQuery {
                    plan,
                    columns: l.columns,
                    scope: l.scope,
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // FROM clause
    // ------------------------------------------------------------------

    /// Plan a single table factor, producing its plan, scope, and (for bare
    /// base-table scans) the table's access paths.
    /// Access-path metadata for a base table, when index planning is on.
    fn table_access(&self, table: &Table) -> Option<TableAccess> {
        if !self.config.use_indexes {
            return None;
        }
        let mut indexes = Vec::new();
        if let Some(p) = &table.primary {
            indexes.push(IndexMeta {
                name: format!("{}.pk", table.name),
                key_columns: p.key_columns.clone(),
                index: IndexRef::Unique(Arc::clone(&p.map)),
            });
        }
        for s in &table.secondary {
            indexes.push(IndexMeta {
                name: s.name.clone(),
                key_columns: s.key_columns.clone(),
                index: IndexRef::Multi(Arc::clone(&s.map)),
            });
        }
        Some(TableAccess {
            rows: Arc::clone(&table.rows),
            width: table.schema.len(),
            indexes,
        })
    }

    /// Find the catalog table whose row store is exactly `rows` (pointer
    /// identity — scans clone the table's `Arc`), if any.
    fn table_access_for_rows(&self, rows: &Arc<Vec<Row>>) -> Option<TableAccess> {
        self.catalog
            .table_names()
            .into_iter()
            .filter_map(|n| self.catalog.get(&n).ok())
            .find(|t| Arc::ptr_eq(&t.rows, rows))
            .and_then(|t| self.table_access(t))
    }

    fn plan_table_ref(&mut self, tref: &TableRef) -> Result<PlannedItem> {
        match tref {
            TableRef::Named { name, alias, .. } => {
                let qual = alias.clone().unwrap_or_else(|| name.clone());
                if let Some(entry) = self.lookup_cte(name) {
                    match entry {
                        CteEntry::Inline(q) => {
                            let planned = self.plan_query(&q)?;
                            let labels = planned
                                .columns
                                .iter()
                                .map(|c| ColLabel::new(Some(&qual), c))
                                .collect();
                            Ok(PlannedItem {
                                plan: planned.plan,
                                scope: Scope::new(labels),
                                access: None,
                            })
                        }
                        CteEntry::Table(rows, cols) => {
                            let width = cols.len();
                            let labels =
                                cols.iter().map(|c| ColLabel::new(Some(&qual), c)).collect();
                            Ok(PlannedItem {
                                // Materialized CTE output has no table-backed
                                // chunk cache; it runs on the row path.
                                plan: PhysPlan::Scan {
                                    rows,
                                    width,
                                    chunks: None,
                                },
                                scope: Scope::new(labels),
                                access: None,
                            })
                        }
                    }
                } else if let Some((schema, rows)) = self
                    .virtuals
                    .and_then(|v| v.virtual_table(self.catalog, name))
                {
                    self.used_virtual = true;
                    let labels = schema
                        .columns
                        .iter()
                        .map(|c| ColLabel::new(Some(&qual), &c.name).with_ty(c.ty))
                        .collect();
                    let width = schema.len();
                    Ok(PlannedItem {
                        plan: PhysPlan::VirtualScan {
                            name: name.to_ascii_lowercase(),
                            rows,
                            width,
                        },
                        scope: Scope::new(labels),
                        // No access paths: virtual tables are never
                        // index-planned.
                        access: None,
                    })
                } else {
                    let table = self.catalog.get(name)?;
                    let labels = table
                        .schema
                        .columns
                        .iter()
                        .map(|c| ColLabel::new(Some(&qual), &c.name).with_ty(c.ty))
                        .collect();
                    let access = self.table_access(table);
                    Ok(PlannedItem {
                        plan: PhysPlan::Scan {
                            rows: Arc::clone(&table.rows),
                            width: table.schema.len(),
                            chunks: self.config.vectorized.then(|| table.chunks.clone()),
                        },
                        scope: Scope::new(labels),
                        access,
                    })
                }
            }
            TableRef::Derived { query, alias } => {
                let planned = self.plan_query(query)?;
                let labels = planned
                    .columns
                    .iter()
                    .map(|c| ColLabel::new(Some(alias), c))
                    .collect();
                // A derived table that planned down to the bare scan of a
                // base table (its identity projection was elided — a pure
                // column-rename subquery, the serving queries' `(SELECT n,
                // term AS j, cnt AS w FROM features) AS qx` shape) keeps the
                // table's access paths, so joins against it can still probe
                // indexes instead of rescanning the whole table.
                let access = match &planned.plan {
                    PhysPlan::Scan { rows, .. } => self.table_access_for_rows(rows),
                    _ => None,
                };
                Ok(PlannedItem {
                    plan: planned.plan,
                    scope: Scope::new(labels),
                    access,
                })
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let l = self.plan_table_ref(left)?;
                let r = self.plan_table_ref(right)?;
                self.plan_join(l, r, *kind, on.as_ref())
            }
        }
    }

    /// Build a join between two planned inputs, detecting equi-keys in `on`.
    /// Equi joins prefer an index-nested-loop plan when one side is a bare
    /// base-table scan with an index covering the join keys and the probe
    /// side is estimated small enough; otherwise they hash-join.
    fn plan_join(
        &mut self,
        l: PlannedItem,
        r: PlannedItem,
        kind: JoinKind,
        on: Option<&Expr>,
    ) -> Result<PlannedItem> {
        let joined_scope = l.scope.join(&r.scope);
        let right_width = r.scope.len();
        let plan = match on {
            None => PhysPlan::NestedLoopJoin {
                left: Box::new(l.plan),
                right: Box::new(r.plan),
                kind,
                right_width,
                predicate: None,
            },
            Some(cond) => {
                let conjuncts = split_conjuncts(cond);
                let (mut left_keys, mut right_keys, mut residual) =
                    (Vec::new(), Vec::new(), Vec::new());
                for c in &conjuncts {
                    if let Some((le, re)) = self.as_equi_key(c, &l.scope, &r.scope)? {
                        left_keys.push(le);
                        right_keys.push(re);
                        continue;
                    }
                    residual.push((*c).clone());
                }
                if left_keys.is_empty() {
                    let predicate = conjoin(&conjuncts);
                    let bound = self.bind(&predicate, &joined_scope)?;
                    PhysPlan::NestedLoopJoin {
                        left: Box::new(l.plan),
                        right: Box::new(r.plan),
                        kind,
                        right_width,
                        predicate: Some(bound),
                    }
                } else {
                    let residual = if residual.is_empty() {
                        None
                    } else {
                        let refs: Vec<&Expr> = residual.iter().collect();
                        Some(self.bind(&conjoin(&refs), &joined_scope)?)
                    };
                    if let Some(choice) = index_join_choice(&l, &left_keys, &r, &right_keys, kind) {
                        build_index_join(l, left_keys, r, right_keys, kind, residual, choice)
                    } else {
                        PhysPlan::HashJoin {
                            left: Box::new(l.plan),
                            right: Box::new(r.plan),
                            left_keys,
                            right_keys,
                            kind,
                            right_width,
                            residual,
                            algo: self.config.join_algo,
                        }
                    }
                }
            }
        };
        Ok(PlannedItem {
            plan,
            scope: joined_scope,
            access: None,
        })
    }

    /// If `expr` is `a = b` with `a` bindable purely in `ls` and `b` in `rs`
    /// (or vice versa), return the bound key pair.
    fn as_equi_key(
        &self,
        expr: &Expr,
        ls: &Scope,
        rs: &Scope,
    ) -> Result<Option<(PhysExpr, PhysExpr)>> {
        let Expr::Binary {
            left,
            op: ast::BinaryOp::Eq,
            right,
            ..
        } = expr
        else {
            return Ok(None);
        };
        let try_bind = |e: &Expr, s: &Scope| self.bind(e, s).ok();
        if let (Some(le), Some(re)) = (try_bind(left, ls), try_bind(right, rs)) {
            return Ok(Some((le, re)));
        }
        if let (Some(le), Some(re)) = (try_bind(right, ls), try_bind(left, rs)) {
            return Ok(Some((le, re)));
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // SELECT
    // ------------------------------------------------------------------

    /// Evaluate every (uncorrelated) subquery inside `e` and replace it with
    /// its result: scalar subqueries become literals, `IN (SELECT ...)`
    /// becomes an `IN` list, `EXISTS` becomes a boolean literal. Correlated
    /// subqueries fail naturally when their outer column references do not
    /// bind inside the subquery's own scope.
    pub(crate) fn resolve_subqueries(&mut self, e: &mut Expr) -> Result<()> {
        match e {
            Expr::ScalarSubquery(q, span) => {
                let span = *span;
                let planned = self.plan_query(q)?;
                let rows = crate::exec::execute(&planned.plan)?;
                if rows.len() > 1 {
                    return Err(EngineError::plan(format!(
                        "scalar subquery returned {} rows",
                        rows.len()
                    )));
                }
                let v = rows
                    .into_iter()
                    .next()
                    .and_then(|r| r.into_iter().next())
                    .unwrap_or(Value::Null);
                *e = Expr::Literal(v, span);
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
                span,
            } => {
                let span = *span;
                self.resolve_subqueries(expr)?;
                let planned = self.plan_query(query)?;
                if planned.columns.len() != 1 {
                    return Err(EngineError::plan(format!(
                        "IN subquery must return one column, got {}",
                        planned.columns.len()
                    )));
                }
                let rows = crate::exec::execute(&planned.plan)?;
                let list = rows
                    .into_iter()
                    .map(|mut r| Expr::Literal(r.pop().expect("one column"), Span::default()))
                    .collect();
                *e = Expr::InList {
                    expr: expr.clone(),
                    list,
                    negated: *negated,
                    span,
                };
            }
            Expr::Exists {
                query,
                negated,
                span,
            } => {
                let span = *span;
                let planned = self.plan_query(query)?;
                let rows = crate::exec::execute(&planned.plan)?;
                *e = Expr::Literal(Value::Int((rows.is_empty() == *negated) as i64), span);
            }
            _ => {
                let mut result = Ok(());
                e.visit_children_mut(&mut |c| {
                    if result.is_ok() {
                        result = self.resolve_subqueries(c);
                    }
                });
                result?;
            }
        }
        Ok(())
    }

    fn plan_select(&mut self, select: &Select, order_by: &[OrderItem]) -> Result<PlannedQuery> {
        // 0. Evaluate uncorrelated subqueries so the rest of planning only
        //    sees plain expressions.
        //    Cheap structural probe; cloning only when needed.
        let has_subqueries = |s: &Select| {
            let items = s.projection.iter().filter_map(|i| match i {
                SelectItem::Expr { expr, .. } => Some(expr),
                _ => None,
            });
            let mut slots = items
                .chain(&s.selection)
                .chain(&s.group_by)
                .chain(&s.having);
            slots.any(|e| e.any(&mut |n| n.subquery().is_some()))
        };
        let resolved_select;
        let select = if has_subqueries(select) {
            let mut s = select.clone();
            if let Some(sel) = &mut s.selection {
                self.resolve_subqueries(sel)?;
            }
            if let Some(h) = &mut s.having {
                self.resolve_subqueries(h)?;
            }
            for g in &mut s.group_by {
                self.resolve_subqueries(g)?;
            }
            for item in &mut s.projection {
                if let SelectItem::Expr { expr, .. } = item {
                    self.resolve_subqueries(expr)?;
                }
            }
            resolved_select = s;
            &resolved_select
        } else {
            select
        };

        // 1. FROM: plan each comma item.
        let mut items: Vec<PlannedItem> = Vec::with_capacity(select.from.len());
        for tref in &select.from {
            items.push(self.plan_table_ref(tref)?);
        }

        // 2. WHERE conjuncts.
        let conjuncts: Vec<Expr> = select
            .selection
            .as_ref()
            .map(|e| split_conjuncts(e).into_iter().cloned().collect())
            .unwrap_or_default();

        let (mut plan, mut scope) = if items.is_empty() {
            self.leftover_conjuncts = conjuncts.clone();
            (PhysPlan::OneRow, Scope::default())
        } else {
            self.join_comma_items(items, &conjuncts)?
        };

        // Apply any WHERE conjuncts not consumed as join keys / pushdowns.
        // `join_comma_items` marks consumed conjuncts by omission: we simply
        // re-bind everything that still references the full scope and was not
        // consumed — see its return contract below.
        let leftovers = std::mem::take(&mut self.leftover_conjuncts);
        if !leftovers.is_empty() {
            let refs: Vec<&Expr> = leftovers.iter().collect();
            let predicate = self.bind(&conjoin(&refs), &scope)?;
            plan = PhysPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        // 3. Expand projection wildcards into concrete expressions.
        let mut proj_items: Vec<(Expr, Option<String>)> = Vec::new();
        for item in &select.projection {
            match item {
                SelectItem::Wildcard => {
                    for label in &scope.labels {
                        proj_items.push((
                            Expr::Column {
                                qualifier: label.qualifier.clone(),
                                name: label.name.clone(),
                                span: Span::default(),
                            },
                            Some(label.name.clone()),
                        ));
                    }
                }
                SelectItem::QualifiedWildcard(q, wspan) => {
                    let mut any = false;
                    for label in &scope.labels {
                        if label
                            .qualifier
                            .as_deref()
                            .is_some_and(|lq| lq.eq_ignore_ascii_case(q))
                        {
                            proj_items.push((
                                Expr::Column {
                                    qualifier: label.qualifier.clone(),
                                    name: label.name.clone(),
                                    span: *wspan,
                                },
                                Some(label.name.clone()),
                            ));
                            any = true;
                        }
                    }
                    if !any {
                        return Err(EngineError::plan(format!("unknown table alias '{q}.*'")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    proj_items.push((expr.clone(), alias.clone()));
                }
            }
        }

        // 4. Aggregation.
        let mut order_items: Vec<OrderItem> = order_by.to_vec();
        let mut having = select.having.clone();
        let grouped = rewrite_aggregates(
            &select.group_by,
            &mut proj_items,
            having.as_mut(),
            &mut order_items,
        );
        if let Some((agg_exprs, labels)) = grouped {
            let keys = select
                .group_by
                .iter()
                .map(|e| self.bind(e, &scope))
                .collect::<Result<Vec<_>>>()?;
            let aggs = agg_exprs
                .iter()
                .map(|e| {
                    let Expr::Aggregate {
                        func,
                        arg,
                        distinct,
                        ..
                    } = e
                    else {
                        unreachable!("rewrite_aggregates yields aggregate nodes")
                    };
                    Ok(AggSpec {
                        func: *func,
                        arg: arg.as_ref().map(|a| self.bind(a, &scope)).transpose()?,
                        distinct: *distinct,
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            plan = PhysPlan::Aggregate {
                input: Box::new(plan),
                keys,
                aggs,
            };
            scope = Scope::new(labels);
            if let Some(having) = having {
                let predicate = self.bind(&having, &scope)?;
                plan = PhysPlan::Filter {
                    input: Box::new(plan),
                    predicate,
                };
            }
        } else if select.having.is_some() {
            return Err(EngineError::plan("HAVING requires GROUP BY or aggregates"));
        }

        // 5. Window functions.
        let (windows, labels) = rewrite_windows(&mut proj_items, &mut order_items, scope.len());
        for w in &windows {
            let Expr::WindowRowNumber {
                func,
                partition_by,
                order_by: worder,
                ..
            } = w
            else {
                unreachable!("rewrite_windows yields window nodes")
            };
            let partition = partition_by
                .iter()
                .map(|e| self.bind(e, &scope))
                .collect::<Result<Vec<_>>>()?;
            let order = worder
                .iter()
                .map(|oi| Ok((self.bind(&oi.expr, &scope)?, oi.descending)))
                .collect::<Result<Vec<_>>>()?;
            plan = PhysPlan::Window {
                input: Box::new(plan),
                func: *func,
                partition,
                order,
            };
        }
        scope.labels.extend(labels);

        // 6. Projection.
        let mut exprs = Vec::with_capacity(proj_items.len());
        let mut out_labels = Vec::with_capacity(proj_items.len());
        let mut columns = Vec::with_capacity(proj_items.len());
        for (i, (e, alias)) in proj_items.iter().enumerate() {
            exprs.push(self.bind(e, &scope)?);
            let name = alias.clone().unwrap_or_else(|| display_name(e, i));
            out_labels.push(ColLabel::bare(&name));
            columns.push(name);
        }
        let out_width = exprs.len();
        let mut out_scope = Scope::new(out_labels);

        // 7. ORDER BY: try output scope (incl. ordinals); fall back to
        //    hidden columns computed from the pre-projection scope.
        let mut sort_keys: Vec<(PhysExpr, bool)> = Vec::new();
        let mut hidden: Vec<PhysExpr> = Vec::new();
        for oi in &order_items {
            if let Expr::Literal(Value::Int(ordinal), _) = oi.expr {
                let idx = (ordinal as usize)
                    .checked_sub(1)
                    .filter(|&i| i < out_width)
                    .ok_or_else(|| {
                        EngineError::plan(format!("ORDER BY ordinal {ordinal} out of range"))
                    })?;
                sort_keys.push((PhysExpr::Column(idx), oi.descending));
                continue;
            }
            match self.bind(&oi.expr, &out_scope) {
                Ok(b) => sort_keys.push((b, oi.descending)),
                Err(_) => {
                    let b = self.bind(&oi.expr, &scope)?;
                    let idx = out_width + hidden.len();
                    hidden.push(b);
                    sort_keys.push((PhysExpr::Column(idx), oi.descending));
                }
            }
        }

        if hidden.is_empty() {
            plan = project_or_elide(plan, exprs);
            if select.distinct {
                plan = PhysPlan::Distinct {
                    input: Box::new(plan),
                };
            }
            if !sort_keys.is_empty() {
                plan = PhysPlan::Sort {
                    input: Box::new(plan),
                    keys: sort_keys,
                };
            }
        } else {
            // Project visible + hidden, sort, then strip hidden.
            exprs.extend(hidden);
            plan = PhysPlan::Project {
                input: Box::new(plan),
                exprs,
            };
            if select.distinct {
                return Err(EngineError::plan(
                    "SELECT DISTINCT with ORDER BY on non-output expressions is not supported",
                ));
            }
            plan = PhysPlan::Sort {
                input: Box::new(plan),
                keys: sort_keys,
            };
            plan = PhysPlan::Project {
                input: Box::new(plan),
                exprs: (0..out_width).map(PhysExpr::Column).collect(),
            };
        }
        out_scope.labels.truncate(out_width);
        Ok(PlannedQuery {
            plan,
            columns,
            scope: out_scope,
        })
    }

    /// Greedy left-deep join of comma-separated FROM items using WHERE
    /// conjuncts. Single-item conjuncts are pushed down as filters — or, when
    /// they match an index on a bare base-table scan, converted into an
    /// `IndexScan` point/multi-point lookup. Equi conjuncts become hash-join
    /// keys, or an index-nested-loop join when one side is a bare indexed
    /// scan and the other is estimated small. Conjuncts that cannot be
    /// placed are stored in `self.leftover_conjuncts` for the caller.
    fn join_comma_items(
        &mut self,
        mut items: Vec<PlannedItem>,
        conjuncts: &[Expr],
    ) -> Result<(PhysPlan, Scope)> {
        let mut remaining: Vec<Expr> = conjuncts.to_vec();

        // Push single-item predicates down onto their item.
        for item in items.iter_mut() {
            let mut kept = Vec::new();
            let mut pushed: Vec<Expr> = Vec::new();
            for c in remaining.drain(..) {
                if self.bind(&c, &item.scope).is_ok() {
                    pushed.push(c);
                } else {
                    kept.push(c);
                }
            }
            remaining = kept;
            if !pushed.is_empty() {
                // Equality / IN conjuncts covering an index turn the scan
                // into index lookups; whatever they don't consume stays as a
                // filter on top.
                let mut residual = pushed;
                if let Some(access) = &item.access {
                    if let Some((scan, consumed)) =
                        self.try_index_scan(access, &item.scope, &residual)?
                    {
                        item.plan = scan;
                        residual = residual
                            .into_iter()
                            .enumerate()
                            .filter(|(i, _)| !consumed.contains(i))
                            .map(|(_, c)| c)
                            .collect();
                    }
                }
                item.access = None;
                if !residual.is_empty() {
                    let refs: Vec<&Expr> = residual.iter().collect();
                    let predicate = self.bind(&conjoin(&refs), &item.scope)?;
                    let input = std::mem::replace(&mut item.plan, PhysPlan::OneRow);
                    item.plan = PhysPlan::Filter {
                        input: Box::new(input),
                        predicate,
                    };
                }
            }
        }

        let mut cur = items.remove(0);
        while !items.is_empty() {
            // Find an item connected to the current scope by an equi conjunct.
            let mut chosen: Option<usize> = None;
            'outer: for (idx, item) in items.iter().enumerate() {
                for c in &remaining {
                    if self.as_equi_key(c, &cur.scope, &item.scope)?.is_some() {
                        chosen = Some(idx);
                        break 'outer;
                    }
                }
            }
            match chosen {
                Some(idx) => {
                    let ritem = items.remove(idx);
                    let mut left_keys = Vec::new();
                    let mut right_keys = Vec::new();
                    let mut kept = Vec::new();
                    for c in remaining.drain(..) {
                        if let Some((le, re)) = self.as_equi_key(&c, &cur.scope, &ritem.scope)? {
                            left_keys.push(le);
                            right_keys.push(re);
                        } else {
                            kept.push(c);
                        }
                    }
                    remaining = kept;
                    let right_width = ritem.scope.len();
                    let scope = cur.scope.join(&ritem.scope);
                    let plan = if let Some(choice) =
                        index_join_choice(&cur, &left_keys, &ritem, &right_keys, JoinKind::Inner)
                    {
                        build_index_join(
                            cur,
                            left_keys,
                            ritem,
                            right_keys,
                            JoinKind::Inner,
                            None,
                            choice,
                        )
                    } else {
                        PhysPlan::HashJoin {
                            left: Box::new(cur.plan),
                            right: Box::new(ritem.plan),
                            left_keys,
                            right_keys,
                            kind: JoinKind::Inner,
                            right_width,
                            residual: None,
                            algo: self.config.join_algo,
                        }
                    };
                    cur = PlannedItem {
                        plan,
                        scope,
                        access: None,
                    };
                }
                None => {
                    // Cross join with the next item; applicable predicates
                    // (now bindable over the union scope) are applied after.
                    let ritem = items.remove(0);
                    let right_width = ritem.scope.len();
                    let scope = cur.scope.join(&ritem.scope);
                    let mut plan = PhysPlan::NestedLoopJoin {
                        left: Box::new(cur.plan),
                        right: Box::new(ritem.plan),
                        kind: JoinKind::Cross,
                        right_width,
                        predicate: None,
                    };
                    // Predicates that became bindable attach as a filter now,
                    // keeping them as low in the tree as possible.
                    let mut kept = Vec::new();
                    let mut apply: Vec<Expr> = Vec::new();
                    for c in remaining.drain(..) {
                        if self.bind(&c, &scope).is_ok() {
                            apply.push(c);
                        } else {
                            kept.push(c);
                        }
                    }
                    remaining = kept;
                    if !apply.is_empty() {
                        let refs: Vec<&Expr> = apply.iter().collect();
                        let predicate = self.bind(&conjoin(&refs), &scope)?;
                        plan = PhysPlan::Filter {
                            input: Box::new(plan),
                            predicate,
                        };
                    }
                    cur = PlannedItem {
                        plan,
                        scope,
                        access: None,
                    };
                }
            }
        }
        self.leftover_conjuncts = remaining;
        Ok((cur.plan, cur.scope))
    }

    /// Try to convert pushed-down conjuncts over a bare base-table scan into
    /// an `IndexScan`. Recognizes `col = <const>` and non-negated
    /// `col IN (<consts>)`; if some index's key columns are all constrained,
    /// returns the lookup plan plus the indexes (into `conjuncts`) of the
    /// conjuncts it fully consumed. Literal NULLs are dropped from the key
    /// sets at plan time (`col = NULL` matches nothing) and the executor
    /// re-applies the same rule after parameter substitution; the cartesian
    /// product of IN-list values is capped at `MAX_INDEX_KEYS` per index.
    fn try_index_scan(
        &self,
        access: &TableAccess,
        scope: &Scope,
        conjuncts: &[Expr],
    ) -> Result<Option<(PhysPlan, Vec<usize>)>> {
        // col → (conjunct index, candidate key expressions). First conjunct
        // per column wins; a second one stays behind as a residual filter.
        let mut candidates: HashMap<usize, (usize, Vec<PhysExpr>)> = HashMap::new();
        for (ci, c) in conjuncts.iter().enumerate() {
            let (col, values) = match c {
                Expr::Binary {
                    left,
                    op: ast::BinaryOp::Eq,
                    right,
                    ..
                } => {
                    if let (Some(col), Some(v)) =
                        (self.as_scope_column(left, scope), self.const_expr(right))
                    {
                        (col, vec![v])
                    } else if let (Some(col), Some(v)) =
                        (self.as_scope_column(right, scope), self.const_expr(left))
                    {
                        (col, vec![v])
                    } else {
                        continue;
                    }
                }
                Expr::InList {
                    expr,
                    list,
                    negated: false,
                    ..
                } => {
                    let Some(col) = self.as_scope_column(expr, scope) else {
                        continue;
                    };
                    let Some(values) = list
                        .iter()
                        .map(|e| self.const_expr(e))
                        .collect::<Option<Vec<_>>>()
                    else {
                        continue;
                    };
                    (col, values)
                }
                _ => continue,
            };
            candidates.entry(col).or_insert((ci, values));
        }
        if candidates.is_empty() {
            return Ok(None);
        }
        'indexes: for idx in &access.indexes {
            if !idx.key_columns.iter().all(|c| candidates.contains_key(c)) {
                continue;
            }
            // Cartesian product of per-column value sets. Literal NULLs are
            // dropped and literal duplicates removed here (index maps compare
            // with `Value`'s total equality, which matches `=` for non-NULL
            // operands); symbolic parameter expressions pass through and get
            // the same treatment in the executor once their values are known.
            let mut keys: Vec<Vec<PhysExpr>> = vec![Vec::new()];
            for c in &idx.key_columns {
                let (_, values) = &candidates[c];
                let mut uniq: Vec<&PhysExpr> = Vec::new();
                for v in values {
                    match v {
                        PhysExpr::Literal(val) => {
                            let dup = matches!(val, Value::Null)
                                || uniq
                                    .iter()
                                    .any(|u| matches!(u, PhysExpr::Literal(x) if x == val));
                            if !dup {
                                uniq.push(v);
                            }
                        }
                        _ => uniq.push(v),
                    }
                }
                let mut next = Vec::with_capacity(keys.len() * uniq.len());
                for k in &keys {
                    for v in &uniq {
                        if next.len() >= MAX_INDEX_KEYS {
                            continue 'indexes;
                        }
                        let mut k2 = k.clone();
                        k2.push((*v).clone());
                        next.push(k2);
                    }
                }
                keys = next;
            }
            let consumed: Vec<usize> = idx.key_columns.iter().map(|c| candidates[c].0).collect();
            return Ok(Some((
                PhysPlan::IndexScan {
                    rows: Arc::clone(&access.rows),
                    width: access.width,
                    index_name: idx.name.clone(),
                    index: idx.index.clone(),
                    keys: Some(keys),
                },
                consumed,
            )));
        }
        Ok(None)
    }

    /// `e` as a bare column reference resolved in `scope`, if it is one.
    fn as_scope_column(&self, e: &Expr, scope: &Scope) -> Option<usize> {
        if !matches!(e, Expr::Column { .. }) {
            return None;
        }
        match self.bind(e, scope) {
            Ok(PhysExpr::Column(c)) => Some(c),
            _ => None,
        }
    }

    /// `e` as a row-independent index-key expression: it must bind without
    /// column references, and then either const-folds to a literal now, or
    /// (in symbolic mode) still carries parameter markers and is evaluated
    /// at execution time once they are bound.
    fn const_expr(&self, e: &Expr) -> Option<PhysExpr> {
        let bound = self.bind(e, &Scope::default()).ok()?;
        if bound.contains_param() {
            return Some(bound);
        }
        bound.eval_const().ok().map(PhysExpr::Literal)
    }

    fn bind_order_output(
        &self,
        order_by: &[OrderItem],
        scope: &Scope,
        columns: &[String],
    ) -> Result<Vec<(PhysExpr, bool)>> {
        order_by
            .iter()
            .map(|oi| {
                if let Expr::Literal(Value::Int(ordinal), _) = oi.expr {
                    let idx = (ordinal as usize)
                        .checked_sub(1)
                        .filter(|&i| i < columns.len())
                        .ok_or_else(|| {
                            EngineError::plan(format!("ORDER BY ordinal {ordinal} out of range"))
                        })?;
                    return Ok((PhysExpr::Column(idx), oi.descending));
                }
                Ok((self.bind(&oi.expr, scope)?, oi.descending))
            })
            .collect()
    }
}

/// Split an expression into its top-level AND conjuncts.
pub(crate) fn split_conjuncts(expr: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        if let Expr::Binary {
            left,
            op: ast::BinaryOp::And,
            right,
            ..
        } = e
        {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e);
        }
    }
    walk(expr, &mut out);
    out
}

/// AND a list of conjuncts back together. Panics on empty input.
pub(crate) fn conjoin(conjuncts: &[&Expr]) -> Expr {
    let mut it = conjuncts.iter();
    let first = (*it.next().expect("conjoin of empty list")).clone();
    it.fold(first, |acc, e| {
        let span = acc.span().cover(e.span());
        Expr::Binary {
            left: Box::new(acc),
            op: ast::BinaryOp::And,
            right: Box::new((*e).clone()),
            span,
        }
    })
}

/// The aggregate rewrite shared by the planner and the semantic analyzer. A
/// SELECT aggregates when it has a GROUP BY or an aggregate call in its
/// projection or HAVING; otherwise this returns `None` and changes nothing.
/// Else it collects the aggregate calls of the projection, HAVING and ORDER
/// BY (structurally deduplicated, outermost only — nested aggregates are
/// rejected at bind time) and replaces, in those slots, each GROUP BY
/// expression and aggregate call with a reference to the Aggregate node's
/// output: a bare-column key keeps its column, key `i` otherwise becomes
/// `#g{i}` and aggregate `i` becomes `#a{i}`. Returns the aggregate calls and
/// the output labels, untyped.
pub(crate) fn rewrite_aggregates(
    group_by: &[Expr],
    items: &mut [(Expr, Option<String>)],
    having: Option<&mut Expr>,
    order: &mut [OrderItem],
) -> Option<(Vec<Expr>, Vec<ColLabel>)> {
    let aggregating = !group_by.is_empty()
        || items.iter().any(|(e, _)| e.contains_aggregate())
        || having.as_deref().is_some_and(Expr::contains_aggregate);
    if !aggregating {
        return None;
    }
    let items = items.iter_mut().map(|(e, _)| e);
    let mut slots: Vec<&mut Expr> = items
        .chain(having)
        .chain(order.iter_mut().map(|oi| &mut oi.expr))
        .collect();
    let mut aggs = Vec::new();
    for e in &slots {
        collect_outermost(e, &|e| matches!(e, Expr::Aggregate { .. }), &mut aggs);
    }
    let mut labels = Vec::with_capacity(group_by.len() + aggs.len());
    let mut replacements = Vec::with_capacity(group_by.len() + aggs.len());
    for (i, g) in group_by.iter().enumerate() {
        let replacement = match g {
            Expr::Column {
                qualifier, name, ..
            } => {
                labels.push(ColLabel::new(qualifier.as_deref(), name));
                g.clone()
            }
            _ => marker(&format!("#g{i}"), &mut labels),
        };
        replacements.push((g, replacement));
    }
    for (i, a) in aggs.iter().enumerate() {
        replacements.push((a, marker(&format!("#a{i}"), &mut labels)));
    }
    for e in &mut slots {
        for (target, replacement) in &replacements {
            replace_subtree(e, target, replacement);
        }
    }
    Some((aggs, labels))
}

/// The window rewrite shared by the planner and the semantic analyzer:
/// collect the window calls of the projection (structurally deduplicated)
/// and replace window `i`, in the projection and ORDER BY, with a reference
/// `#w{first + i}` to the column its Window node appends after the `first`
/// input columns. Returns the window calls and the appended labels, untyped.
pub(crate) fn rewrite_windows(
    items: &mut [(Expr, Option<String>)],
    order: &mut [OrderItem],
    first: usize,
) -> (Vec<Expr>, Vec<ColLabel>) {
    let mut windows = Vec::new();
    for (e, _) in items.iter() {
        collect_outermost(
            e,
            &|e| matches!(e, Expr::WindowRowNumber { .. }),
            &mut windows,
        );
    }
    let mut labels = Vec::with_capacity(windows.len());
    for (i, w) in windows.iter().enumerate() {
        let replacement = marker(&format!("#w{}", first + i), &mut labels);
        let items = items.iter_mut().map(|(e, _)| e);
        for e in items.chain(order.iter_mut().map(|oi| &mut oi.expr)) {
            replace_subtree(e, w, &replacement);
        }
    }
    (windows, labels)
}

/// Push a bare label `name` and return a column reference to it.
fn marker(name: &str, labels: &mut Vec<ColLabel>) -> Expr {
    labels.push(ColLabel::bare(name));
    Expr::col(name)
}

/// Collect the outermost sub-expressions of `e` matching `pred`,
/// structurally deduplicated.
fn collect_outermost(e: &Expr, pred: &impl Fn(&Expr) -> bool, out: &mut Vec<Expr>) {
    if !pred(e) {
        e.visit_children(&mut |c| collect_outermost(c, pred, out));
    } else if !out.contains(e) {
        out.push(e.clone());
    }
}

/// Replace every subtree structurally equal to `target` with `replacement`.
fn replace_subtree(e: &mut Expr, target: &Expr, replacement: &Expr) {
    if e == target {
        *e = replacement.clone();
    } else {
        e.visit_children_mut(&mut |c| replace_subtree(c, target, replacement));
    }
}

// ---------------------------------------------------------------------
// Plan templates: parameter substitution and cacheability analysis
// ---------------------------------------------------------------------

/// Bind a cached plan template: clone it (row snapshots, indexes and column
/// chunks are shared `Arc`s) and replace every symbolic parameter in every
/// embedded expression with its bound value ([`PhysExpr::bind_params`]).
/// This is cheap relative to re-parsing and re-planning the statement.
pub fn bind_plan_params(template: &PhysPlan, params: &[Value]) -> Result<PhysPlan> {
    let mut plan = template.clone();
    let mut bound = Ok(());
    plan.for_each_expr_mut(&mut |e| {
        if bound.is_ok() {
            bound = e.bind_params(params);
        }
    });
    bound.map(|()| plan)
}

/// Does any expression anywhere in `q` — including CTE bodies, derived
/// tables, ORDER BY / LIMIT, and subquery bodies — contain a `?` marker?
pub fn query_contains_params(q: &Query) -> bool {
    let mut found = false;
    q.walk(&mut |part| {
        found = found
            || match part {
                QueryPart::Expr(e) | QueryPart::Limit(e) => expr_contains_params(e),
                QueryPart::Cte(q) | QueryPart::Derived(q) => query_contains_params(q),
            };
    });
    found
}

fn expr_contains_params(e: &Expr) -> bool {
    e.any(&mut |n| matches!(n, Expr::Param(..)) || n.subquery().is_some_and(query_contains_params))
}

/// True when `q` uses parameters in a position the planner consumes at plan
/// time, which a cached template cannot keep symbolic: LIMIT/OFFSET
/// expressions (folded to plan constants), subquery bodies (planned *and
/// executed* during planning), or CTE bodies when `materialize_ctes`
/// evaluates them during planning. Such statements plan inline with their
/// actual parameter values and stay uncached.
pub fn params_unsupported(q: &Query, materialize_ctes: bool) -> bool {
    let mut unsupported = false;
    q.walk(&mut |part| {
        unsupported = unsupported
            || match part {
                QueryPart::Limit(e) => expr_contains_params(e),
                QueryPart::Expr(e) => {
                    e.any(&mut |n| n.subquery().is_some_and(query_contains_params))
                }
                QueryPart::Cte(q) if materialize_ctes => query_contains_params(q),
                QueryPart::Cte(q) | QueryPart::Derived(q) => {
                    params_unsupported(q, materialize_ctes)
                }
            };
    });
    unsupported
}

/// Derive a display name for an unaliased projection expression.
pub(crate) fn display_name(e: &Expr, index: usize) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Aggregate { func, .. } => func.name().to_lowercase(),
        Expr::Function { name, .. } => name.to_lowercase(),
        _ => format!("col{index}"),
    }
}
