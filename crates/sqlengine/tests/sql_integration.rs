//! End-to-end SQL tests, including the exact query shapes BornSQL emits.

use sqlengine::{Database, EngineConfig, Value};

fn v_i(i: i64) -> Value {
    Value::Int(i)
}
fn v_f(f: f64) -> Value {
    Value::Float(f)
}
fn v_s(s: &str) -> Value {
    Value::text(s)
}

fn setup_xy(db: &Database) {
    db.execute_script(
        "CREATE TABLE x_nj (n INTEGER, j TEXT, w REAL);
         CREATE TABLE y_nk (n INTEGER, k INTEGER, w REAL);
         INSERT INTO x_nj VALUES
            (1, 'a', 1.0), (1, 'b', 2.0),
            (2, 'a', 3.0),
            (3, 'c', 1.0);
         INSERT INTO y_nk VALUES (1, 17, 1.0), (2, 26, 1.0), (3, 17, 1.0);",
    )
    .unwrap();
}

#[test]
fn create_insert_select_roundtrip() {
    let db = Database::new();
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
        .unwrap();
    let r = db.query("SELECT b FROM t WHERE a = 2").unwrap();
    assert_eq!(r.rows, vec![vec![v_s("two")]]);
}

#[test]
fn xy_njk_join_like_the_paper() {
    // Section 3.2, query (16): XY_njk = X_nj ⋈ Y_nk on n.
    let db = Database::new();
    setup_xy(&db);
    let r = db
        .query(
            "SELECT x_nj.n AS n, x_nj.j AS j, y_nk.k AS k, x_nj.w * y_nk.w AS w
             FROM x_nj, y_nk
             WHERE x_nj.n = y_nk.n
             ORDER BY n, j",
        )
        .unwrap();
    assert_eq!(r.columns, vec!["n", "j", "k", "w"]);
    assert_eq!(r.rows.len(), 4);
    assert_eq!(r.rows[0], vec![v_i(1), v_s("a"), v_i(17), v_f(1.0)]);
    assert_eq!(r.rows[1], vec![v_i(1), v_s("b"), v_i(17), v_f(2.0)]);
    assert_eq!(r.rows[2], vec![v_i(2), v_s("a"), v_i(26), v_f(3.0)]);
}

#[test]
fn group_by_sum_like_xy_n() {
    // Section 3.2, query (17): XY_n = SUM over (j, k) grouped by n.
    let db = Database::new();
    setup_xy(&db);
    let r = db
        .query(
            "SELECT n, SUM(w) AS w FROM (
                SELECT x_nj.n AS n, x_nj.w * y_nk.w AS w
                FROM x_nj, y_nk WHERE x_nj.n = y_nk.n
             ) AS xy_njk GROUP BY n ORDER BY n",
        )
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![v_i(1), v_f(3.0)],
            vec![v_i(2), v_f(3.0)],
            vec![v_i(3), v_f(1.0)],
        ]
    );
}

#[test]
fn cte_pipeline_three_deep() {
    let db = Database::new();
    setup_xy(&db);
    let sql = "WITH
        xy_njk AS (
            SELECT x_nj.n AS n, x_nj.j AS j, y_nk.k AS k, x_nj.w * y_nk.w AS w
            FROM x_nj, y_nk WHERE x_nj.n = y_nk.n
        ),
        xy_n AS (SELECT n, SUM(w) AS w FROM xy_njk GROUP BY n),
        p_jk AS (
            SELECT xy_njk.j AS j, xy_njk.k AS k, SUM(xy_njk.w / xy_n.w) AS w
            FROM xy_njk, xy_n WHERE xy_njk.n = xy_n.n
            GROUP BY xy_njk.j, xy_njk.k
        )
        SELECT j, k, w FROM p_jk ORDER BY j, k";
    let expected = vec![
        vec![v_s("a"), v_i(17), v_f(1.0 / 3.0)],
        vec![v_s("a"), v_i(26), v_f(1.0)],
        vec![v_s("b"), v_i(17), v_f(2.0 / 3.0)],
        vec![v_s("c"), v_i(17), v_f(1.0)],
    ];
    // Same result under all engine profiles.
    for config in [
        EngineConfig::profile_a(),
        EngineConfig::profile_b(),
        EngineConfig::profile_c(),
    ] {
        let db2 = Database::with_config(config);
        setup_xy(&db2);
        let r = db2.query(sql).unwrap();
        assert_eq!(r.rows, expected, "config {config:?}");
    }
    let r = db.query(sql).unwrap();
    assert_eq!(r.rows, expected);
}

#[test]
fn upsert_on_conflict_do_update_accumulates() {
    // The paper's incremental-learning upsert (Section 3.2).
    let db = Database::new();
    db.execute("CREATE TABLE m_corpus (j TEXT, k INTEGER, w REAL, PRIMARY KEY (j, k))")
        .unwrap();
    db.execute("INSERT INTO m_corpus (j, k, w) VALUES ('a', 17, 1.5)")
        .unwrap();
    db.execute(
        "INSERT INTO m_corpus (j, k, w) VALUES ('a', 17, 2.0), ('b', 26, 1.0)
         ON CONFLICT (j, k) DO UPDATE SET w = m_corpus.w + excluded.w",
    )
    .unwrap();
    let r = db.query("SELECT j, k, w FROM m_corpus ORDER BY j").unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![v_s("a"), v_i(17), v_f(3.5)],
            vec![v_s("b"), v_i(26), v_f(1.0)],
        ]
    );
}

#[test]
fn on_conflict_do_nothing() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x TEXT)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 'first')").unwrap();
    let n = db
        .execute("INSERT INTO t VALUES (1, 'second'), (2, 'other') ON CONFLICT (id) DO NOTHING")
        .unwrap()
        .affected();
    assert_eq!(n, 1);
    let r = db.query("SELECT x FROM t WHERE id = 1").unwrap();
    assert_eq!(r.rows[0][0], v_s("first"));
}

#[test]
fn row_number_window_argmax() {
    // The paper's argmax-by-ROW_NUMBER inference query (Section 3.4).
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE hwx_nk (n INTEGER, k INTEGER, w REAL);
         INSERT INTO hwx_nk VALUES
            (1, 17, 0.4), (1, 26, 0.9), (1, 18, 0.1),
            (2, 17, 0.7), (2, 26, 0.2);",
    )
    .unwrap();
    let r = db
        .query(
            "SELECT r_nk.n, r_nk.k FROM (
                SELECT n, k, ROW_NUMBER() OVER (PARTITION BY n ORDER BY w DESC) AS r
                FROM hwx_nk
             ) AS r_nk
             WHERE r = 1
             ORDER BY n",
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![v_i(1), v_i(26)], vec![v_i(2), v_i(17)]]);
}

#[test]
fn union_all_concatenates_union_dedups() {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE a (x INTEGER); CREATE TABLE b (x INTEGER);
         INSERT INTO a VALUES (1), (2); INSERT INTO b VALUES (2), (3);",
    )
    .unwrap();
    let all = db
        .query("SELECT x FROM a UNION ALL SELECT x FROM b ORDER BY x")
        .unwrap();
    assert_eq!(all.rows.len(), 4);
    let distinct = db
        .query("SELECT x FROM a UNION SELECT x FROM b ORDER BY x")
        .unwrap();
    assert_eq!(
        distinct.rows,
        vec![vec![v_i(1)], vec![v_i(2)], vec![v_i(3)]]
    );
}

#[test]
fn string_concat_feature_prefixing() {
    // q_x style: SELECT id as n, 'pubname:'||pubname as j, 1.0 as w
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE publication (id INTEGER, pubname TEXT);
         INSERT INTO publication VALUES (13, 'communications in statistics');",
    )
    .unwrap();
    let r = db
        .query("SELECT id AS n, 'pubname:' || pubname AS j, 1.0 AS w FROM publication")
        .unwrap();
    assert_eq!(
        r.rows[0],
        vec![
            v_i(13),
            v_s("pubname:communications in statistics"),
            v_f(1.0)
        ]
    );
}

#[test]
fn modulo_subsampling_predicates() {
    // q_n style: SELECT id as n FROM publication WHERE id % 10 <= 1
    let db = Database::new();
    db.execute("CREATE TABLE p (id INTEGER)").unwrap();
    for i in 0..100 {
        db.execute_with("INSERT INTO p VALUES (?)", &[v_i(i)])
            .unwrap();
    }
    let r = db
        .query("SELECT id AS n FROM p WHERE id % 10 <= 1")
        .unwrap();
    assert_eq!(r.rows.len(), 20);
}

#[test]
fn pow_and_ln_in_aggregates() {
    // Deployment-style entropy computation needs LN/POW inside SUM.
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE h_jk (j TEXT, k INTEGER, w REAL);
         INSERT INTO h_jk VALUES ('a', 1, 0.5), ('a', 2, 0.5);",
    )
    .unwrap();
    let r = db
        .query("SELECT j, 1.0 + SUM(w * LN(w)) / LN(2.0) AS h FROM h_jk GROUP BY j")
        .unwrap();
    let Value::Float(h) = r.rows[0][1] else {
        panic!()
    };
    assert!(
        h.abs() < 1e-12,
        "entropy of uniform 2-dist must be 0, got {h}"
    );
}

#[test]
fn left_join_fills_nulls() {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE l (id INTEGER, x TEXT); CREATE TABLE r (id INTEGER, y TEXT);
         INSERT INTO l VALUES (1, 'a'), (2, 'b');
         INSERT INTO r VALUES (1, 'z');",
    )
    .unwrap();
    let r = db
        .query("SELECT l.x, r.y FROM l LEFT JOIN r ON l.id = r.id ORDER BY l.id")
        .unwrap();
    assert_eq!(r.rows[0], vec![v_s("a"), v_s("z")]);
    assert_eq!(r.rows[1], vec![v_s("b"), Value::Null]);
}

#[test]
fn delete_and_update() {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE t (id INTEGER, w REAL);
         INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0);",
    )
    .unwrap();
    assert_eq!(
        db.execute("UPDATE t SET w = w * 10 WHERE id >= 2")
            .unwrap()
            .affected(),
        2
    );
    assert_eq!(
        db.execute("DELETE FROM t WHERE id = 1").unwrap().affected(),
        1
    );
    let r = db.query("SELECT SUM(w) FROM t").unwrap();
    assert_eq!(r.rows[0][0], v_f(50.0));
}

#[test]
fn having_and_count_distinct() {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE t (g INTEGER, x INTEGER);
         INSERT INTO t VALUES (1, 10), (1, 10), (1, 20), (2, 30);",
    )
    .unwrap();
    let r = db
        .query("SELECT g, COUNT(DISTINCT x) AS c FROM t GROUP BY g HAVING COUNT(*) > 1 ORDER BY g")
        .unwrap();
    assert_eq!(r.rows, vec![vec![v_i(1), v_i(2)]]);
}

#[test]
fn order_by_hidden_column() {
    // ORDER BY on an expression not in the projection.
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE t (a INTEGER, b INTEGER);
         INSERT INTO t VALUES (1, 30), (2, 10), (3, 20);",
    )
    .unwrap();
    let r = db.query("SELECT a FROM t ORDER BY b DESC").unwrap();
    assert_eq!(r.rows, vec![vec![v_i(1)], vec![v_i(3)], vec![v_i(2)]]);
    assert_eq!(r.columns, vec!["a"]);
}

#[test]
fn scalar_subquery_via_cross_join_singleton() {
    // The ABH hyper-parameter table pattern: FROM hwx_nk, abh.
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE u (n INTEGER, w REAL);
         CREATE TABLE abh (a REAL);
         INSERT INTO u VALUES (1, 4.0), (2, 9.0);
         INSERT INTO abh VALUES (0.5);",
    )
    .unwrap();
    let r = db
        .query("SELECT n, POW(w, 1/a) AS w FROM u, abh ORDER BY n")
        .unwrap();
    assert_eq!(r.rows[0], vec![v_i(1), v_f(16.0)]);
    assert_eq!(r.rows[1], vec![v_i(2), v_f(81.0)]);
}

#[test]
fn aggregates_on_empty_input() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x INTEGER)").unwrap();
    let r = db.query("SELECT COUNT(*), SUM(x), MIN(x) FROM t").unwrap();
    assert_eq!(r.rows, vec![vec![v_i(0), Value::Null, Value::Null]]);
    let r2 = db.query("SELECT x, COUNT(*) FROM t GROUP BY x").unwrap();
    assert!(r2.rows.is_empty());
}

#[test]
fn distinct_rows() {
    let db = Database::new();
    db.execute_script("CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1), (1), (2);")
        .unwrap();
    let r = db.query("SELECT DISTINCT x FROM t ORDER BY x").unwrap();
    assert_eq!(r.rows, vec![vec![v_i(1)], vec![v_i(2)]]);
}

#[test]
fn case_insensitive_identifiers() {
    let db = Database::new();
    db.execute("CREATE TABLE MyTable (MyCol INTEGER)").unwrap();
    db.execute("INSERT INTO mytable VALUES (5)").unwrap();
    let r = db.query("SELECT MYCOL FROM MYTABLE").unwrap();
    assert_eq!(r.rows[0][0], v_i(5));
}

#[test]
fn limit_offset() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x INTEGER)").unwrap();
    for i in 0..10 {
        db.execute_with("INSERT INTO t VALUES (?)", &[v_i(i)])
            .unwrap();
    }
    let r = db
        .query("SELECT x FROM t ORDER BY x LIMIT 3 OFFSET 4")
        .unwrap();
    assert_eq!(r.rows, vec![vec![v_i(4)], vec![v_i(5)], vec![v_i(6)]]);
}

#[test]
fn three_way_join_with_filters() {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE a (id INTEGER, v INTEGER);
         CREATE TABLE b (id INTEGER, v INTEGER);
         CREATE TABLE c (id INTEGER, v INTEGER);
         INSERT INTO a VALUES (1, 100), (2, 200);
         INSERT INTO b VALUES (1, 10), (2, 20);
         INSERT INTO c VALUES (1, 1), (2, 2);",
    )
    .unwrap();
    let r = db
        .query(
            "SELECT a.v + b.v + c.v AS total
             FROM a, b, c
             WHERE a.id = b.id AND b.id = c.id AND a.v > 100",
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![v_i(222)]]);
}

#[test]
fn insert_from_select_with_column_mapping() {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE src (n INTEGER, w REAL);
         CREATE TABLE dst (w REAL, n INTEGER, tag TEXT);
         INSERT INTO src VALUES (1, 0.5), (2, 1.5);",
    )
    .unwrap();
    db.execute("INSERT INTO dst (n, w) SELECT n, w FROM src")
        .unwrap();
    let r = db.query("SELECT w, n, tag FROM dst ORDER BY n").unwrap();
    assert_eq!(r.rows[0], vec![v_f(0.5), v_i(1), Value::Null]);
}

#[test]
fn drop_table_if_exists() {
    let db = Database::new();
    db.execute("DROP TABLE IF EXISTS nope").unwrap();
    assert!(db.execute("DROP TABLE nope").is_err());
    db.execute("CREATE TABLE nope (x INTEGER)").unwrap();
    db.execute("DROP TABLE nope").unwrap();
    assert!(!db.has_table("nope"));
}

#[test]
fn create_index_statements_accepted() {
    let db = Database::new();
    db.execute("CREATE TABLE t (j TEXT, k INTEGER, w REAL)")
        .unwrap();
    db.execute("INSERT INTO t VALUES ('a', 1, 0.5)").unwrap();
    db.execute("CREATE INDEX t_j ON t (j)").unwrap();
    db.execute("CREATE UNIQUE INDEX t_jk ON t (j, k)").unwrap();
    // Unique index now enforces upserts.
    db.execute(
        "INSERT INTO t VALUES ('a', 1, 1.0) ON CONFLICT (j, k) DO UPDATE SET w = t.w + excluded.w",
    )
    .unwrap();
    assert_eq!(db.query("SELECT w FROM t").unwrap().rows[0][0], v_f(1.5));
}

#[test]
fn params_bind_in_dml_and_queries() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER, name TEXT)")
        .unwrap();
    db.execute_with("INSERT INTO t VALUES (?, ?)", &[v_i(1), v_s("x")])
        .unwrap();
    let r = db
        .query_with("SELECT name FROM t WHERE id = ?", &[v_i(1)])
        .unwrap();
    assert_eq!(r.rows[0][0], v_s("x"));
}

#[test]
fn cte_referenced_twice() {
    let db = Database::new();
    db.execute_script("CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1), (2), (3);")
        .unwrap();
    for config in [EngineConfig::profile_a(), EngineConfig::profile_b()] {
        let db2 = Database::with_config(config);
        db2.execute_script("CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1), (2), (3);")
            .unwrap();
        let r = db2
            .query(
                "WITH s AS (SELECT SUM(x) AS total FROM t)
                 SELECT a.total + b.total AS doubled FROM s AS a, s AS b",
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec![v_i(12)]]);
    }
    let _ = db;
}

#[test]
fn self_insert_reads_snapshot() {
    let db = Database::new();
    db.execute_script("CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1), (2);")
        .unwrap();
    db.execute("INSERT INTO t SELECT x + 10 FROM t").unwrap();
    assert_eq!(db.table_rows("t").unwrap(), 4);
}

#[test]
fn qualified_wildcard() {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE a (x INTEGER); CREATE TABLE b (y INTEGER);
         INSERT INTO a VALUES (1); INSERT INTO b VALUES (2);",
    )
    .unwrap();
    let r = db.query("SELECT b.*, a.* FROM a, b").unwrap();
    assert_eq!(r.columns, vec!["y", "x"]);
    assert_eq!(r.rows, vec![vec![v_i(2), v_i(1)]]);
}

#[test]
fn order_by_aggregate_expression() {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE t (g TEXT, w REAL);
         INSERT INTO t VALUES ('a', 1.0), ('a', 1.0), ('b', 5.0), ('c', 3.0);",
    )
    .unwrap();
    let r = db
        .query("SELECT g FROM t GROUP BY g ORDER BY SUM(w) DESC")
        .unwrap();
    assert_eq!(r.rows, vec![vec![v_s("b")], vec![v_s("c")], vec![v_s("a")]]);
}

#[test]
fn having_with_aggregate_not_in_projection() {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE t (g TEXT, w REAL);
         INSERT INTO t VALUES ('a', 1.0), ('b', 5.0), ('b', 5.0);",
    )
    .unwrap();
    let r = db
        .query("SELECT g FROM t GROUP BY g HAVING SUM(w) > 4 AND COUNT(*) >= 2")
        .unwrap();
    assert_eq!(r.rows, vec![vec![v_s("b")]]);

    // An aggregate on the scalar side of `IN (subquery)` makes the query
    // aggregating, in the projection and in HAVING alike.
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE t (k TEXT, v INTEGER);
         INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 3);",
    )
    .unwrap();
    for sql in [
        "SELECT SUM(v) IN (SELECT 6) FROM t",
        "SELECT 1 FROM t HAVING SUM(v) IN (SELECT 6)",
    ] {
        db.check(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(db.query(sql).unwrap().rows, vec![vec![v_i(1)]], "{sql}");
    }
}
