//! Differential tests for the parameterized plan cache.
//!
//! A statement containing `?` placeholders is planned once into a template
//! (parameters kept symbolic) and re-executed by binding fresh values into
//! the cached plan. Every behavior here is checked against an engine with
//! the plan cache disabled, which replans from scratch on each call — the
//! two must agree across parameter values, NULL parameters, and catalog
//! changes between executions.

use sqlengine::{Database, EngineConfig, Value};

fn seeded(config: EngineConfig) -> Database {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE t (n INTEGER, s TEXT, w REAL, PRIMARY KEY (n))")
        .unwrap();
    let mut rows = Vec::with_capacity(200);
    for i in 0..200i64 {
        rows.push(vec![
            Value::Int(i),
            Value::text(format!("tok{}", i % 17)),
            Value::Float(i as f64 / 4.0),
        ]);
    }
    db.insert_rows("t", rows).unwrap();
    db
}

fn pair() -> (Database, Database) {
    (
        seeded(EngineConfig::default()),
        seeded(EngineConfig::default().with_plan_cache(false)),
    )
}

#[test]
fn cached_templates_match_cache_off_across_param_values() {
    let (cached, fresh) = pair();
    let cases: Vec<(&str, Vec<Vec<Value>>)> = vec![
        (
            "SELECT n, s FROM t WHERE n = ?",
            vec![
                vec![Value::Int(3)],
                vec![Value::Int(150)],
                vec![Value::Int(-1)],
            ],
        ),
        (
            // Equality keys over the primary index: each binding produces a
            // different key set for the same cached IndexScan template.
            "SELECT n FROM t WHERE n IN (?, ?) ORDER BY n",
            vec![
                vec![Value::Int(1), Value::Int(9)],
                vec![Value::Int(9), Value::Int(9)],
                vec![Value::Int(500), Value::Int(2)],
            ],
        ),
        (
            "SELECT s, COUNT(*) FROM t WHERE w > ? GROUP BY s ORDER BY s",
            vec![vec![Value::Float(10.0)], vec![Value::Float(40.0)]],
        ),
        (
            "SELECT n FROM t WHERE s = ? AND n > ? ORDER BY n",
            vec![
                vec![Value::text("tok3"), Value::Int(50)],
                vec![Value::text("tok9"), Value::Int(0)],
            ],
        ),
    ];
    for (sql, bindings) in &cases {
        for params in bindings {
            let a = cached.query_with(sql, params).unwrap();
            let b = fresh.query_with(sql, params).unwrap();
            assert_eq!(a, b, "{sql} with {params:?}");
        }
    }
    let (hits, _) = cached.plan_cache_stats();
    // 4 templates, 10 executions: everything after each first plan is a hit.
    assert_eq!(hits, 6, "re-executions must be served from the cache");
    assert_eq!(
        fresh.plan_cache_stats(),
        (0, 0),
        "cache-off engine never caches"
    );

    // A `?` in every other expression slot and nested query body: cached
    // or replanned (see `cacheability_per_param_slot`), the rows must match
    // the cache-off engine for each binding.
    for (_, sql, bindings) in SLOT_CASES {
        for params in *bindings {
            let params: Vec<Value> = params.iter().map(|&i| Value::Int(i)).collect();
            let a = cached.query_with(sql, &params).unwrap();
            let b = fresh.query_with(sql, &params).unwrap();
            assert_eq!(a, b, "{sql} with {params:?}");
        }
    }
}

/// One statement per position a `?` can occupy, labelled by that position,
/// with two integer bindings each.
const SLOT_CASES: &[(&str, &str, &[&[i64]])] = &[
    (
        "join on",
        "SELECT a.n FROM t a JOIN t b ON a.n = b.n + ? WHERE a.n < 6 ORDER BY a.n",
        &[&[1], &[3]],
    ),
    (
        "group by",
        "SELECT MIN(n), COUNT(*) FROM t GROUP BY n % ? ORDER BY 1",
        &[&[3], &[7]],
    ),
    (
        "having",
        "SELECT s, COUNT(*) FROM t GROUP BY s HAVING COUNT(*) > ? ORDER BY s",
        &[&[11], &[12]],
    ),
    (
        "order by",
        "SELECT n FROM t WHERE n < 10 ORDER BY n % ?, n",
        &[&[3], &[4]],
    ),
    (
        "case",
        "SELECT n, CASE WHEN n < ? THEN s ELSE 'x' END FROM t WHERE n < 6 ORDER BY n",
        &[&[2], &[4]],
    ),
    (
        "derived table",
        "SELECT d.n FROM (SELECT n FROM t WHERE n < ?) d ORDER BY d.n",
        &[&[3], &[5]],
    ),
    (
        "cte body",
        "WITH c AS (SELECT n FROM t WHERE n < ?) SELECT n FROM c ORDER BY n",
        &[&[3], &[5]],
    ),
    (
        "scalar subquery",
        "SELECT n FROM t WHERE n = (SELECT MAX(n) FROM t WHERE n < ?)",
        &[&[10], &[50]],
    ),
    (
        "in subquery",
        "SELECT n FROM t WHERE n IN (SELECT n + 1 FROM t WHERE n < ?) ORDER BY n",
        &[&[3], &[5]],
    ),
    (
        "exists",
        "SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM t WHERE n = ?)",
        &[&[5], &[500]],
    ),
];

/// Which `?` positions a cached template can keep symbolic. Subquery bodies
/// are planned and executed during planning, and `materialize_ctes`
/// (profile B) evaluates CTE bodies during planning too, so those replan on
/// every call; every other slot binds into the cached template.
#[test]
fn cacheability_per_param_slot() {
    for (profile, config, cte_cached) in [
        ("A", EngineConfig::profile_a(), true),
        ("B", EngineConfig::profile_b(), false),
    ] {
        let db = seeded(config);
        for (slot, sql, bindings) in SLOT_CASES {
            let expect_hit = match *slot {
                "scalar subquery" | "in subquery" | "exists" => false,
                "cte body" => cte_cached,
                _ => true,
            };
            let run = |i: usize| {
                let params: Vec<Value> = bindings[i].iter().map(|&v| Value::Int(v)).collect();
                db.query_with(sql, &params).unwrap();
            };
            run(0);
            let (hits, _) = db.plan_cache_stats();
            run(1);
            let hit = db.plan_cache_stats().0 == hits + 1;
            assert_eq!(hit, expect_hit, "profile {profile}, `?` in {slot}: {sql}");
        }
    }
}

#[test]
fn null_params_behave_like_inline_nulls() {
    let (cached, fresh) = pair();
    let cases: Vec<(&str, Vec<Vec<Value>>)> = vec![
        (
            // NULL never equals anything — including through a bound param.
            "SELECT COUNT(*) FROM t WHERE s = ?",
            vec![vec![Value::text("tok3")], vec![Value::Null]],
        ),
        (
            // A NULL inside an index-key tuple drops that probe, not the row.
            "SELECT n FROM t WHERE n IN (?, ?) ORDER BY n",
            vec![
                vec![Value::Null, Value::Int(3)],
                vec![Value::Null, Value::Null],
            ],
        ),
        (
            "SELECT n FROM t WHERE w < ? ORDER BY n LIMIT 4",
            vec![vec![Value::Null], vec![Value::Float(1.0)]],
        ),
    ];
    for (sql, bindings) in &cases {
        for params in bindings {
            // Run the cached engine twice so the second call exercises the
            // template-binding hit path with the NULL bound in.
            let a1 = cached.query_with(sql, params).unwrap();
            let a2 = cached.query_with(sql, params).unwrap();
            let b = fresh.query_with(sql, params).unwrap();
            assert_eq!(a1, b, "{sql} with {params:?}");
            assert_eq!(a2, b, "{sql} with {params:?} (cache hit)");
        }
    }
}

#[test]
fn catalog_changes_invalidate_cached_templates() {
    let db = seeded(EngineConfig::default());
    let count = "SELECT COUNT(*) FROM t WHERE n >= ?";
    let run = |db: &Database| db.query_with(count, &[Value::Int(0)]).unwrap().rows[0][0].clone();
    assert_eq!(run(&db), Value::Int(200));

    // DML between executions: the cached template bakes in a row snapshot,
    // so the version bump must force a replan that sees the new row.
    db.execute("INSERT INTO t (n, s, w) VALUES (1000, 'fresh', 0.0)")
        .unwrap();
    assert_eq!(run(&db), Value::Int(201));

    // DDL: creating an index changes the best plan for the template; the
    // invalidated entry must be replanned, and results stay correct.
    let probe = "SELECT n FROM t WHERE s = ? ORDER BY n";
    let r = db.query_with(probe, &[Value::text("fresh")]).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(1000)]]);
    db.execute("CREATE INDEX t_s ON t (s)").unwrap();
    let r = db.query_with(probe, &[Value::text("fresh")]).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(1000)]]);

    // DROP + CREATE — the statement shape model deployment uses — must not
    // serve plans captured against the old table.
    db.execute("DROP TABLE t").unwrap();
    db.execute("CREATE TABLE t (n INTEGER, s TEXT, w REAL)")
        .unwrap();
    assert_eq!(run(&db), Value::Int(0));
}

#[test]
fn limit_params_fall_back_to_replanning() {
    let db = seeded(EngineConfig::default());
    db.reset_plan_cache_stats();
    for k in [3i64, 7, 11] {
        let r = db
            .query_with("SELECT n FROM t ORDER BY n LIMIT ?", &[Value::Int(k)])
            .unwrap();
        assert_eq!(r.rows.len(), k as usize);
        assert_eq!(r.rows[0][0], Value::Int(0));
    }
    let (hits, _) = db.plan_cache_stats();
    assert_eq!(
        hits, 0,
        "LIMIT ? is resolved at plan time and must never serve a cached template"
    );
}

#[test]
fn prepared_execute_records_cache_activity_like_direct_execution() {
    let direct = seeded(EngineConfig::default());
    let prepped = seeded(EngineConfig::default());
    let sql = "SELECT n FROM t WHERE n = ?";

    for i in 0..3i64 {
        direct.query_with(sql, &[Value::Int(i)]).unwrap();
    }
    let stmt = prepped.prepare(sql).unwrap();
    for i in 0..3i64 {
        assert_eq!(
            stmt.query(&[Value::Int(i)]).unwrap(),
            direct.query_with(sql, &[Value::Int(i)]).unwrap()
        );
    }

    // Same hit/miss accounting through both entry points.
    let (dh, dm) = direct.plan_cache_stats();
    let (ph, pm) = prepped.plan_cache_stats();
    assert_eq!(
        (dh - 3, dm),
        (ph, pm),
        "prepared path must count like direct"
    );

    // And identical per-statement telemetry: the query log's cache_hit flag
    // follows the same miss-then-hits pattern for both.
    let flags = |db: &Database| -> Vec<bool> {
        db.telemetry()
            .query_log()
            .iter()
            .filter(|e| e.sql == sql)
            .map(|e| e.cache_hit)
            .collect()
    };
    assert_eq!(flags(&prepped), vec![false, true, true]);
    assert_eq!(flags(&direct)[..3], [false, true, true]);
}

// ---------------------------------------------------------------------
// Cache-key normalization
// ---------------------------------------------------------------------

/// Differently formatted spellings of one statement share a single cached
/// template: the cache key collapses whitespace runs and lowercases
/// keywords (identifiers and string literals stay verbatim). Checked
/// differentially — both engines return identical rows, while only the
/// normalizing cache shows the hit-count parity.
#[test]
fn formatting_variants_share_one_cached_template() {
    let (cached, fresh) = pair();
    cached.reset_plan_cache_stats(); // drop the seeding DDL's miss
    let variants = [
        "SELECT n, s FROM t WHERE n = ? ORDER BY n",
        "select n, s from t where n = ? order by n",
        "SELECT   n,   s\n\tFROM t\n\tWHERE n = ?\n\tORDER BY n",
        "Select n, s From t Where n = ?  Order  By  n",
    ];
    for (i, sql) in variants.iter().enumerate() {
        let a = cached.query_with(sql, &[Value::Int(42)]).unwrap();
        let b = fresh.query_with(sql, &[Value::Int(42)]).unwrap();
        assert_eq!(a, b, "variant {i}");
    }
    let (hits, misses) = cached.plan_cache_stats();
    assert_eq!(
        (hits, misses),
        (3, 1),
        "one template planned, every reformatted spelling served from it"
    );
}

/// Normalization must not conflate statements that differ meaningfully:
/// case inside string literals changes results, and identifier case changes
/// output column names.
#[test]
fn normalization_keeps_semantic_differences_apart() {
    let (cached, _) = pair();
    cached.reset_plan_cache_stats(); // drop the seeding DDL's miss
    let lower = cached
        .query("SELECT COUNT(*) FROM t WHERE s = 'tok3'")
        .unwrap();
    let upper = cached
        .query("SELECT COUNT(*) FROM t WHERE s = 'TOK3'")
        .unwrap();
    assert_ne!(
        lower.rows[0][0], upper.rows[0][0],
        "literal case must stay significant"
    );
    let (hits, misses) = cached.plan_cache_stats();
    assert_eq!(
        (hits, misses),
        (0, 2),
        "distinct literals, distinct entries"
    );

    // Identifier case survives into output column names even though the
    // statements normalize to different keys only via the identifier.
    let named = cached.query("SELECT n AS Total FROM t LIMIT 1").unwrap();
    assert_eq!(named.columns, vec!["Total"]);
}
