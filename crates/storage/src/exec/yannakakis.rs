//! Yannakakis-style exact counting for tree-shaped equi-join queries.
//!
//! For acyclic joins, `COUNT(*)` can be computed without materializing any
//! intermediate result: root the join tree anywhere, then bottom-up each
//! table aggregates, per join-key value toward its parent, the number of
//! result combinations contributed by its subtree — its *message*. The root
//! sums the product of incoming messages over its surviving rows. Every
//! table is scanned at most once per query.
//!
//! ## Dense keys
//!
//! Join keys are dictionary-encoded once per executor per join edge
//! ([`EdgeCodes`]): both sides of the edge get a `u32` code per row, so a
//! message is a plain `Vec<u64>` indexed by key code and a probe is one
//! array load — no hashing on any per-row path, however sparse the key
//! domain is. NULL keys and keys absent from the other side carry
//! [`NO_CODE`] and match nothing.
//!
//! ## Selection vectors
//!
//! A table's predicates are evaluated column at a time into a vector of
//! surviving row ids ([`select`]): the first predicate scans its column,
//! each further one filters the survivors. `=`, `<` and `>` over a column
//! without NULLs are tight branch-free loops over the raw values.
//!
//! ## One cache for the executor's lifetime
//!
//! The message of a *predicate-free subtree* depends only on the subtree's
//! shape and the edge it is sent over, so it is derived once per executor
//! and shared by every later query ([`CountExecutor::cached_messages`]).
//! Generated workloads draw from a few dozen table sets and leave most
//! satellite tables unfiltered, so most non-root table visits are cache
//! hits. The dictionaries and the cache describe one database: use one
//! executor per database, and keep it for as long as there are queries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::catalog::{ColRef, Database, TableId};
use crate::column::Column;
use crate::predicate::{CmpOp, ColPredicate, PredTest};
use crate::table::Table;

use super::query::{ExecError, ExecQuery, JoinEdge};

/// Code of a row whose join key is NULL or does not occur on the other
/// side of the edge: it matches nothing. Never a real code — a table holds
/// at most `u32::MAX` rows, so at most `u32::MAX` distinct keys.
const NO_CODE: u32 = u32::MAX;

/// Per-key-code subtree counts, the message a table sends to its parent.
type Message = Arc<Vec<u64>>;

/// One join edge's key dictionary, applied: the code of every row's key on
/// either side. Codes index the messages sent over the edge.
#[derive(Debug)]
struct EdgeCodes {
    /// Distinct keys of the dictionary side — the length of a message.
    domain: usize,
    /// The table of the canonical edge's `left` column.
    left_table: TableId,
    /// Codes of the canonical edge's `left` column, one per row.
    left: Vec<u32>,
    /// Codes of the canonical edge's `right` column, one per row.
    right: Vec<u32>,
}

impl EdgeCodes {
    /// Encodes both columns of `edge` (canonical) against the sorted
    /// distinct non-NULL keys of the side with fewer rows. A key the
    /// dictionary side lacks can match nothing over this edge.
    fn build(db: &Database, edge: JoinEdge) -> Self {
        let column = |cr: ColRef| db.table(cr.table).column(cr.col);
        let (left, right) = (column(edge.left), column(edge.right));
        let dict_side = if left.len() <= right.len() {
            left
        } else {
            right
        };
        let mut dict: Vec<i64> = (0..dict_side.len())
            .filter_map(|row| dict_side.get(row))
            .collect();
        dict.sort_unstable();
        dict.dedup();
        let encode = |col: &Column| -> Vec<u32> {
            (0..col.len())
                .map(|row| {
                    col.get(row)
                        .and_then(|key| dict.binary_search(&key).ok())
                        .map_or(NO_CODE, |code| code as u32)
                })
                .collect()
        };
        Self {
            domain: dict.len(),
            left_table: edge.left.table,
            left: encode(left),
            right: encode(right),
        }
    }

    /// The codes of table `t`'s rows, `t` being one side of the edge.
    fn side(&self, t: TableId) -> &[u32] {
        if self.left_table == t {
            &self.left
        } else {
            &self.right
        }
    }
}

/// What a predicate-free subtree's message depends on: the table sending
/// it, the edge it is sent over, and the edges below (sorted).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SubtreeKey {
    sender: TableId,
    up: JoinEdge,
    below: Vec<JoinEdge>,
}

/// Exact `COUNT(*)` executor for acyclic join queries.
///
/// Holds the key dictionaries and the cached messages of one database; it
/// is `Sync`, so share one instance across threads and across calls.
#[derive(Debug, Default)]
pub struct CountExecutor {
    edges: RwLock<HashMap<JoinEdge, Arc<EdgeCodes>>>,
    cache: RwLock<HashMap<SubtreeKey, Arc<OnceLock<Message>>>>,
    /// Cached messages derived so far; see
    /// [`CountExecutor::cached_messages_derived`].
    derived: AtomicUsize,
}

/// One table of a rooted join tree. Nodes are stored parent before child;
/// node 0 is the root.
struct Node {
    table: TableId,
    /// The edge to the parent (`None` at the root).
    up: Option<JoinEdge>,
    children: Vec<usize>,
    /// No table of this subtree carries a predicate.
    predicate_free: bool,
}

impl CountExecutor {
    /// Creates an executor with no dictionaries and an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The edge codes, read; a poisoned lock is recovered.
    fn edges(&self) -> RwLockReadGuard<'_, HashMap<JoinEdge, Arc<EdgeCodes>>> {
        self.edges.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The edge codes, written; a poisoned lock is recovered.
    fn edges_mut(&self) -> RwLockWriteGuard<'_, HashMap<JoinEdge, Arc<EdgeCodes>>> {
        self.edges.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The cached messages, read; a poisoned lock is recovered.
    fn cache(&self) -> RwLockReadGuard<'_, HashMap<SubtreeKey, Arc<OnceLock<Message>>>> {
        self.cache.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The cached messages, written; a poisoned lock is recovered.
    fn cache_mut(&self) -> RwLockWriteGuard<'_, HashMap<SubtreeKey, Arc<OnceLock<Message>>>> {
        self.cache.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Computes the exact result cardinality of `query` against `db`.
    ///
    /// Returns an error if the query is malformed or its join graph is not a
    /// tree (see [`ExecError`]).
    pub fn count(&self, db: &Database, query: &ExecQuery) -> Result<u64, ExecError> {
        self.count_with(db, query, &mut Vec::new())
    }

    /// Labels a whole slice of queries, in order. Work is split across
    /// `threads` scoped worker threads sharing this executor's cache —
    /// the demo's "multiple HyPer instances" (values `<= 1` run inline).
    pub fn count_batch(
        &self,
        db: &Database,
        queries: &[ExecQuery],
        threads: usize,
    ) -> Result<Vec<u64>, ExecError> {
        let count_all = |qs: &[ExecQuery]| -> Result<Vec<u64>, ExecError> {
            let mut sel = Vec::new();
            qs.iter()
                .map(|q| self.count_with(db, q, &mut sel))
                .collect()
        };
        if threads <= 1 || queries.len() < 2 {
            return count_all(queries);
        }
        let chunk = queries.len().div_ceil(threads);
        let results: Vec<Result<Vec<u64>, ExecError>> = std::thread::scope(|s| {
            let handles: Vec<_> = queries
                .chunks(chunk)
                .map(|qs| s.spawn(move || count_all(qs)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        let mut out = Vec::with_capacity(queries.len());
        for r in results {
            out.extend(r?);
        }
        Ok(out)
    }

    /// Distinct predicate-free subtree messages in the cache.
    pub fn cached_messages(&self) -> usize {
        self.cache().len()
    }

    /// How many times a cached message was derived from table data. Equal
    /// to [`CountExecutor::cached_messages`] for as long as the executor
    /// lives: a cached message is derived exactly once, however the
    /// workload is chunked or threaded.
    pub fn cached_messages_derived(&self) -> usize {
        self.derived.load(Ordering::Relaxed)
    }

    /// [`CountExecutor::count`] with a caller-owned selection vector, so a
    /// batch reuses one buffer across its queries.
    fn count_with(
        &self,
        db: &Database,
        query: &ExecQuery,
        sel: &mut Vec<u32>,
    ) -> Result<u64, ExecError> {
        query.validate(db)?;
        if !query.is_tree() {
            return Err(ExecError::Cyclic);
        }
        let nodes = join_tree(query);
        let root = &nodes[0];
        let inputs: Vec<(Arc<EdgeCodes>, Message)> = root
            .children
            .iter()
            .map(|&c| self.message(db, query, &nodes, c, sel))
            .collect();
        let table = db.table(root.table);
        let rows = select(table, query.preds_of(root.table), sel);
        if inputs.is_empty() {
            return Ok(rows.map_or(table.num_rows(), <[u32]>::len) as u64);
        }
        let probes = probes(&inputs, root.table);
        let mut total = 0u64;
        for_each_weight(rows, table.num_rows(), &probes, |_, weight| {
            total = total.saturating_add(weight);
        });
        Ok(total)
    }

    /// The message of node `n` to its parent, with the codes of the edge it
    /// travels over. A predicate-free subtree's message comes from the
    /// cache, deriving it on first use.
    fn message(
        &self,
        db: &Database,
        query: &ExecQuery,
        nodes: &[Node],
        n: usize,
        sel: &mut Vec<u32>,
    ) -> (Arc<EdgeCodes>, Message) {
        let node = &nodes[n];
        let up = node.up.expect("only the root has no parent edge");
        let codes = self.edge_codes(db, up);
        if !node.predicate_free {
            let message = self.derive(db, query, nodes, n, &codes, sel);
            return (codes, message);
        }
        let mut below = Vec::new();
        edges_below(nodes, n, &mut below);
        below.sort_unstable_by_key(|e| (e.left, e.right));
        let key = SubtreeKey {
            sender: node.table,
            up,
            below,
        };
        let hit = self.cache().get(&key).cloned();
        let cell = hit.unwrap_or_else(|| Arc::clone(self.cache_mut().entry(key).or_default()));
        // Two threads that miss together share one cell, and `get_or_init`
        // runs one of the two closures. The closure may wait on the cells
        // of strictly smaller subtrees, never on its own.
        let message = cell.get_or_init(|| {
            self.derived.fetch_add(1, Ordering::Relaxed);
            self.derive(db, query, nodes, n, &codes, sel)
        });
        (codes, Arc::clone(message))
    }

    /// Derives node `n`'s message from table data: per key code toward the
    /// parent, the sum over qualifying rows of the product of the
    /// children's message weights.
    fn derive(
        &self,
        db: &Database,
        query: &ExecQuery,
        nodes: &[Node],
        n: usize,
        codes: &EdgeCodes,
        sel: &mut Vec<u32>,
    ) -> Message {
        let node = &nodes[n];
        let inputs: Vec<(Arc<EdgeCodes>, Message)> = node
            .children
            .iter()
            .map(|&c| self.message(db, query, nodes, c, sel))
            .collect();
        let table = db.table(node.table);
        let rows = select(table, query.preds_of(node.table), sel);
        let probes = probes(&inputs, node.table);
        let keys = codes.side(node.table);
        let mut out = vec![0u64; codes.domain];
        for_each_weight(rows, table.num_rows(), &probes, |row, weight| {
            if let Some(slot) = out.get_mut(keys[row] as usize) {
                *slot = slot.saturating_add(weight);
            }
        });
        Arc::new(out)
    }

    /// The codes of `edge`, encoding its two columns on first use.
    fn edge_codes(&self, db: &Database, edge: JoinEdge) -> Arc<EdgeCodes> {
        let edge = edge.canonical();
        let hit = self.edges().get(&edge).cloned();
        // Built outside the lock; a racing thread's copy loses and drops.
        let codes = hit.unwrap_or_else(|| {
            let built = Arc::new(EdgeCodes::build(db, edge));
            Arc::clone(self.edges_mut().entry(edge).or_insert(built))
        });
        let rows = |cr: ColRef| db.table(cr.table).num_rows();
        assert!(
            codes.left.len() == rows(edge.left) && codes.right.len() == rows(edge.right),
            "a CountExecutor serves one database"
        );
        codes
    }
}

/// Roots the (validated, tree-shaped) join graph at `query.tables[0]`.
fn join_tree(query: &ExecQuery) -> Vec<Node> {
    let mut nodes = vec![Node {
        table: query.tables[0],
        up: None,
        children: Vec::new(),
        predicate_free: true,
    }];
    let mut at = 0;
    while at < nodes.len() {
        let (table, up) = (nodes[at].table, nodes[at].up);
        for &edge in &query.joins {
            let Some(other) = edge.other_side(table) else {
                continue;
            };
            if Some(edge) != up {
                let child = nodes.len();
                nodes[at].children.push(child);
                nodes.push(Node {
                    table: other.table,
                    up: Some(edge),
                    children: Vec::new(),
                    predicate_free: true,
                });
            }
        }
        at += 1;
    }
    // Children sit behind their parents, so one backward sweep settles
    // every subtree before the node above it.
    for n in (0..nodes.len()).rev() {
        let own = query.preds_of(nodes[n].table).next().is_none();
        nodes[n].predicate_free = own && nodes[n].children.iter().all(|&c| nodes[c].predicate_free);
    }
    nodes
}

/// Collects the (canonical) edges strictly below node `n`.
fn edges_below(nodes: &[Node], n: usize, out: &mut Vec<JoinEdge>) {
    for &c in &nodes[n].children {
        out.push(nodes[c].up.expect("child has a parent edge").canonical());
        edges_below(nodes, c, out);
    }
}

/// Pairs each child's message with table `t`'s key codes over that child's
/// edge: what one row of `t` probes.
fn probes(inputs: &[(Arc<EdgeCodes>, Message)], t: TableId) -> Vec<(&[u32], &[u64])> {
    inputs
        .iter()
        .map(|(codes, message)| (codes.side(t), message.as_slice()))
        .collect()
}

/// Calls `f(row, weight)` for every row of `rows` (all `n` rows when
/// `None`) whose keys match in every probe, with the saturating product of
/// the matched message weights.
fn for_each_weight(
    rows: Option<&[u32]>,
    n: usize,
    probes: &[(&[u32], &[u64])],
    mut f: impl FnMut(usize, u64),
) {
    let mut visit = |row: usize| {
        let mut weight = 1u64;
        for (keys, message) in probes {
            // NO_CODE is past the end of every message.
            match message.get(keys[row] as usize) {
                Some(&w) if w > 0 => weight = weight.saturating_mul(w),
                _ => return,
            }
        }
        f(row, weight);
    };
    match rows {
        Some(rows) => rows.iter().for_each(|&row| visit(row as usize)),
        None => (0..n).for_each(visit),
    }
}

/// Evaluates a conjunction column at a time into `sel`, the ascending ids
/// of the qualifying rows. Returns `None` — every row qualifies, `sel` is
/// untouched — when there is no predicate.
fn select<'s, 'p>(
    table: &Table,
    preds: impl Iterator<Item = &'p ColPredicate>,
    sel: &'s mut Vec<u32>,
) -> Option<&'s [u32]> {
    let mut first = true;
    for p in preds {
        let col = table.column(p.col);
        match (&p.test, col.null_mask()) {
            (&PredTest::Cmp(op, lit), None) => {
                let data = col.data();
                match op {
                    CmpOp::Eq => keep(sel, first, data.len(), |row| data[row] == lit),
                    CmpOp::Lt => keep(sel, first, data.len(), |row| data[row] < lit),
                    CmpOp::Gt => keep(sel, first, data.len(), |row| data[row] > lit),
                }
            }
            _ => keep(sel, first, col.len(), |row| p.eval_row(col, row)),
        }
        first = false;
    }
    (!first).then_some(sel.as_slice())
}

/// One step of [`select`]: keeps the rows passing `test` — of all `n` rows
/// on the first step, of the survivors in `sel` after. Branch-free: every
/// candidate is written at the cursor, which advances only past rows that
/// pass, so an unpredictable predicate costs no mispredicts.
fn keep(sel: &mut Vec<u32>, first: bool, n: usize, test: impl Fn(usize) -> bool) {
    let mut kept = 0;
    if first {
        sel.clear();
        sel.resize(n, 0);
        for row in 0..n {
            sel[kept] = row as u32;
            kept += usize::from(test(row));
        }
    } else {
        for at in 0..sel.len() {
            let row = sel[at];
            sel[kept] = row;
            kept += usize::from(test(row as usize));
        }
    }
    sel.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColRef, Database, ForeignKey};
    use crate::column::Column;
    use crate::predicate::{CmpOp, ColPredicate};
    use crate::table::Table;

    /// title(id, year) with movie_keyword(movie_id, kw) and
    /// cast_info(movie_id, role) — a small star schema with known counts.
    fn star_db() -> Database {
        let title = Table::new(
            "title",
            vec![
                Column::new("id", vec![1, 2, 3]),
                Column::new("year", vec![1990, 2000, 2010]),
            ],
        );
        let mk = Table::new(
            "mk",
            vec![
                Column::new("movie_id", vec![1, 1, 2, 3, 3, 3]),
                Column::new("kw", vec![10, 11, 10, 12, 10, 11]),
            ],
        );
        let ci = Table::new(
            "ci",
            vec![
                Column::new("movie_id", vec![1, 2, 2, 3]),
                Column::new("role", vec![1, 1, 2, 1]),
            ],
        );
        let fks = vec![
            ForeignKey {
                from: ColRef::new(TableId(1), 0),
                to: ColRef::new(TableId(0), 0),
            },
            ForeignKey {
                from: ColRef::new(TableId(2), 0),
                to: ColRef::new(TableId(0), 0),
            },
        ];
        Database::new("star", vec![title, mk, ci], fks)
    }

    fn e(a: usize, ac: usize, b: usize, bc: usize) -> JoinEdge {
        JoinEdge::new(ColRef::new(TableId(a), ac), ColRef::new(TableId(b), bc))
    }

    #[test]
    fn single_table_count() {
        let db = star_db();
        let exec = CountExecutor::new();
        let q = ExecQuery::single(TableId(0), vec![ColPredicate::new(1, CmpOp::Gt, 1995)]);
        assert_eq!(exec.count(&db, &q).unwrap(), 2);
    }

    #[test]
    fn two_way_join_no_predicates() {
        let db = star_db();
        let exec = CountExecutor::new();
        let q = ExecQuery {
            tables: vec![TableId(0), TableId(1)],
            joins: vec![e(1, 0, 0, 0)],
            predicates: vec![],
        };
        // |title ⋈ mk| = 6 (every mk row matches exactly one title).
        assert_eq!(exec.count(&db, &q).unwrap(), 6);
    }

    #[test]
    fn star_join_multiplies_fanouts() {
        let db = star_db();
        let exec = CountExecutor::new();
        let q = ExecQuery {
            tables: vec![TableId(0), TableId(1), TableId(2)],
            joins: vec![e(1, 0, 0, 0), e(2, 0, 0, 0)],
            predicates: vec![],
        };
        // movie 1: 2 mk × 1 ci = 2; movie 2: 1 × 2 = 2; movie 3: 3 × 1 = 3.
        assert_eq!(exec.count(&db, &q).unwrap(), 7);
    }

    #[test]
    fn predicates_on_satellite_and_root() {
        let db = star_db();
        let exec = CountExecutor::new();
        let q = ExecQuery {
            tables: vec![TableId(0), TableId(1)],
            joins: vec![e(1, 0, 0, 0)],
            predicates: vec![
                (TableId(1), ColPredicate::new(1, CmpOp::Eq, 10)),
                (TableId(0), ColPredicate::new(1, CmpOp::Lt, 2005)),
            ],
        };
        // kw=10 rows: movies 1, 2, 3; year<2005 keeps movies 1, 2 → 2 rows.
        assert_eq!(exec.count(&db, &q).unwrap(), 2);
    }

    #[test]
    fn empty_result_is_zero() {
        let db = star_db();
        let exec = CountExecutor::new();
        let q = ExecQuery {
            tables: vec![TableId(0), TableId(1)],
            joins: vec![e(1, 0, 0, 0)],
            predicates: vec![(TableId(1), ColPredicate::new(1, CmpOp::Eq, 999))],
        };
        assert_eq!(exec.count(&db, &q).unwrap(), 0);
    }

    #[test]
    fn cyclic_join_is_rejected() {
        let db = star_db();
        let exec = CountExecutor::new();
        let q = ExecQuery {
            tables: vec![TableId(0), TableId(1)],
            joins: vec![e(1, 0, 0, 0), e(1, 1, 0, 1)],
            predicates: vec![],
        };
        assert_eq!(exec.count(&db, &q), Err(ExecError::Cyclic));
    }

    /// a(id) ← b(a_id, id) ← c(b_id): chain, not star.
    fn chain_db() -> Database {
        let a = Table::new("a", vec![Column::new("id", vec![1, 2])]);
        let b = Table::new(
            "b",
            vec![
                Column::new("a_id", vec![1, 1, 2]),
                Column::new("id", vec![10, 11, 12]),
            ],
        );
        let c = Table::new("c", vec![Column::new("b_id", vec![10, 10, 11, 12, 12, 12])]);
        let fks = vec![
            ForeignKey {
                from: ColRef::new(TableId(1), 0),
                to: ColRef::new(TableId(0), 0),
            },
            ForeignKey {
                from: ColRef::new(TableId(2), 0),
                to: ColRef::new(TableId(1), 1),
            },
        ];
        Database::new("chain", vec![a, b, c], fks)
    }

    #[test]
    fn chain_join_three_tables() {
        let db = chain_db();
        let exec = CountExecutor::new();
        let q = ExecQuery {
            tables: vec![TableId(0), TableId(1), TableId(2)],
            joins: vec![e(1, 0, 0, 0), e(2, 0, 1, 1)],
            predicates: vec![],
        };
        // b=10 → 2 c rows; b=11 → 1; b=12 → 3. All a-links exist → 6.
        assert_eq!(exec.count(&db, &q).unwrap(), 6);
    }

    #[test]
    fn predicate_free_subtrees_are_cached_whole_and_derived_once() {
        let db = chain_db();
        let exec = CountExecutor::new();
        let chain = ExecQuery {
            tables: vec![TableId(0), TableId(1), TableId(2)],
            joins: vec![e(1, 0, 0, 0), e(2, 0, 1, 1)],
            predicates: vec![],
        };
        for _ in 0..3 {
            assert_eq!(exec.count(&db, &chain).unwrap(), 6);
        }
        // c → b and (b with c below) → a; the root is not a message.
        assert_eq!(exec.cached_messages(), 2);
        assert_eq!(exec.cached_messages_derived(), 2);
        // A predicate on b leaves only the leaf c cacheable, and c's
        // message is the one already there.
        let filtered = ExecQuery {
            predicates: vec![(TableId(1), ColPredicate::new(1, CmpOp::Gt, 10))],
            ..chain.clone()
        };
        assert_eq!(exec.count(&db, &filtered).unwrap(), 4);
        assert_eq!(exec.cached_messages(), 2);
        assert_eq!(exec.cached_messages_derived(), 2);
        // Rooted at c, the same tables send different messages.
        let from_c = ExecQuery {
            tables: vec![TableId(2), TableId(1), TableId(0)],
            ..chain
        };
        assert_eq!(exec.count(&db, &from_c).unwrap(), 6);
        assert_eq!(exec.cached_messages(), 4);
        assert_eq!(exec.cached_messages_derived(), 4);
    }

    #[test]
    fn nulls_in_join_keys_do_not_match() {
        use crate::bitmap::Bitmap;
        let a = Table::new("a", vec![Column::new("id", vec![1, 2])]);
        let mut nulls = Bitmap::new(3);
        nulls.set(2);
        let b = Table::new("b", vec![Column::with_nulls("a_id", vec![1, 2, 1], nulls)]);
        let db = Database::new(
            "n",
            vec![a, b],
            vec![ForeignKey {
                from: ColRef::new(TableId(1), 0),
                to: ColRef::new(TableId(0), 0),
            }],
        );
        let exec = CountExecutor::new();
        let q = ExecQuery {
            tables: vec![TableId(0), TableId(1)],
            joins: vec![e(1, 0, 0, 0)],
            predicates: vec![],
        };
        assert_eq!(exec.count(&db, &q).unwrap(), 2);
    }

    #[test]
    fn selection_is_the_conjunction_in_row_order() {
        use crate::bitmap::Bitmap;
        let mut nulls = Bitmap::new(6);
        nulls.set(1);
        let t = Table::new(
            "t",
            vec![
                Column::new("a", vec![5, 1, 5, 7, 5, 2]),
                Column::with_nulls("b", vec![10, 10, 30, 10, 10, 10], nulls),
                Column::new("c", vec![190, 191, 20, 19, 1900, 7]),
            ],
        );
        let mut sel = vec![99; 3]; // stale contents are replaced
        assert_eq!(select(&t, [].iter(), &mut sel), None);
        let run = |preds: &[ColPredicate], sel: &mut Vec<u32>| {
            select(&t, preds.iter(), sel).map(<[u32]>::to_vec)
        };
        let eq5 = ColPredicate::new(0, CmpOp::Eq, 5);
        assert_eq!(
            run(std::slice::from_ref(&eq5), &mut sel),
            Some(vec![0, 2, 4])
        );
        assert_eq!(
            run(&[ColPredicate::new(0, CmpOp::Lt, 5)], &mut sel),
            Some(vec![1, 5])
        );
        assert_eq!(
            run(&[ColPredicate::new(0, CmpOp::Gt, 5)], &mut sel),
            Some(vec![3])
        );
        // The NULL in b (row 1) never qualifies; IN and LIKE take the
        // general path, first or later in the conjunction.
        let b10 = ColPredicate::new(1, CmpOp::Eq, 10);
        assert_eq!(
            run(std::slice::from_ref(&b10), &mut sel),
            Some(vec![0, 3, 4, 5])
        );
        let like19 = ColPredicate::like(2, "19%");
        assert_eq!(
            run(&[eq5.clone(), b10.clone(), like19.clone()], &mut sel),
            Some(vec![0, 4])
        );
        assert_eq!(run(&[like19, b10, eq5], &mut sel), Some(vec![0, 4]));
        assert_eq!(
            run(&[ColPredicate::is_in(0, vec![1, 2, 7])], &mut sel),
            Some(vec![1, 3, 5])
        );
        assert_eq!(
            run(&[ColPredicate::new(0, CmpOp::Gt, 100)], &mut sel),
            Some(vec![])
        );
    }

    fn batch_db() -> Database {
        let a = Table::new(
            "a",
            vec![
                Column::new("id", (0..100).collect()),
                Column::new("v", (0..100).map(|i| i % 10).collect()),
            ],
        );
        let b = Table::new(
            "b",
            vec![
                Column::new("a_id", (0..300).map(|i| i % 100).collect()),
                Column::new("w", (0..300).map(|i| i % 7).collect()),
            ],
        );
        Database::new(
            "p",
            vec![a, b],
            vec![ForeignKey {
                from: ColRef::new(TableId(1), 0),
                to: ColRef::new(TableId(0), 0),
            }],
        )
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let db = batch_db();
        let qs: Vec<ExecQuery> = (0..10)
            .map(|i| ExecQuery {
                tables: vec![TableId(0), TableId(1)],
                joins: vec![e(1, 0, 0, 0)],
                predicates: vec![(TableId(0), ColPredicate::new(1, CmpOp::Eq, i % 10))],
            })
            .collect();
        let exec = CountExecutor::new();
        let seq = exec.count_batch(&db, &qs, 1).unwrap();
        let par = exec.count_batch(&db, &qs, 4).unwrap();
        assert_eq!(seq, par);
        // Each a.v value selects 10 a-rows, each with 3 b-rows.
        assert!(seq.iter().all(|&c| c == 30));
    }

    #[test]
    fn empty_batch() {
        let db = batch_db();
        let exec = CountExecutor::new();
        assert!(exec.count_batch(&db, &[], 4).unwrap().is_empty());
    }

    #[test]
    fn batch_error_propagates() {
        let db = batch_db();
        let bad = ExecQuery {
            tables: vec![TableId(0), TableId(1)],
            joins: vec![],
            predicates: vec![],
        };
        assert_eq!(
            CountExecutor::new().count_batch(&db, &[bad], 2),
            Err(ExecError::Disconnected)
        );
    }
}
