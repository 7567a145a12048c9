//! The schema join graph: tables as nodes, PK/FK relationships as edges.
//!
//! The training-query generator samples uniformly random *connected*
//! subtrees of this graph (paper: "uniformly choose tables"), and the demo
//! UI uses it to auto-insert join predicates.

use rand::{rngs::StdRng, RngExt};

use ds_storage::catalog::{Database, TableId};
use ds_storage::exec::JoinEdge;

/// The PK/FK join graph of a database, optionally restricted to a table
/// subset (the demo's "select a subset of tables" step).
#[derive(Debug, Clone)]
pub struct JoinGraph {
    num_tables: usize,
    /// Tables participating in this (possibly restricted) graph.
    nodes: Vec<TableId>,
    /// adjacency[t] = (neighbor, canonical edge)
    adjacency: Vec<Vec<(TableId, JoinEdge)>>,
}

impl JoinGraph {
    /// Builds the join graph from the database's foreign keys.
    pub fn from_database(db: &Database) -> Self {
        let num_tables = db.num_tables();
        let mut adjacency = vec![Vec::new(); num_tables];
        for fk in db.foreign_keys() {
            let edge = JoinEdge::new(fk.from, fk.to).canonical();
            adjacency[fk.from.table.0].push((fk.to.table, edge));
            adjacency[fk.to.table.0].push((fk.from.table, edge));
        }
        Self {
            num_tables,
            nodes: (0..num_tables).map(TableId).collect(),
            adjacency,
        }
    }

    /// Number of tables in the underlying database.
    pub fn num_tables(&self) -> usize {
        self.num_tables
    }

    /// Tables participating in this graph.
    pub fn nodes(&self) -> &[TableId] {
        &self.nodes
    }

    /// Neighbors of `t` with the connecting edges.
    pub fn neighbors(&self, t: TableId) -> &[(TableId, JoinEdge)] {
        &self.adjacency[t.0]
    }

    /// Tables that have at least one join partner.
    pub fn joinable_tables(&self) -> Vec<TableId> {
        self.nodes
            .iter()
            .copied()
            .filter(|t| !self.adjacency[t.0].is_empty())
            .collect()
    }

    /// Samples a uniformly random connected subtree with `num_tables` nodes
    /// (hence `num_tables - 1` joins) by randomized growth: start from a
    /// random node and repeatedly attach a random frontier edge. Returns the
    /// chosen tables and edges, or `None` if the graph cannot support the
    /// requested size from the chosen start.
    pub fn random_subtree(
        &self,
        rng: &mut StdRng,
        num_tables: usize,
    ) -> Option<(Vec<TableId>, Vec<JoinEdge>)> {
        assert!(num_tables >= 1, "need at least one table");
        let candidates: Vec<TableId> = if num_tables == 1 {
            self.nodes.clone()
        } else {
            self.joinable_tables()
        };
        if candidates.is_empty() {
            return None;
        }
        let start = *candidates
            .get(rng.random_range(0..candidates.len()))
            .expect("non-empty");

        let mut tables = vec![start];
        let mut edges = Vec::new();
        let mut frontier: Vec<(TableId, JoinEdge)> = self.adjacency[start.0].clone();
        while tables.len() < num_tables {
            // Drop frontier edges leading to already-included tables.
            frontier.retain(|(t, _)| !tables.contains(t));
            if frontier.is_empty() {
                return None;
            }
            let idx = rng.random_range(0..frontier.len());
            let (next, edge) = frontier.swap_remove(idx);
            tables.push(next);
            edges.push(edge);
            frontier.extend(
                self.adjacency[next.0]
                    .iter()
                    .filter(|(t, _)| !tables.contains(t))
                    .cloned(),
            );
        }
        Some((tables, edges))
    }

    /// A restricted view keeping only the given tables (and the edges among
    /// them) — the demo's "select a subset of tables" step.
    pub fn restrict(&self, allowed: &[TableId]) -> JoinGraph {
        let allowed_set: std::collections::HashSet<TableId> = allowed.iter().copied().collect();
        let adjacency: Vec<Vec<(TableId, JoinEdge)>> = (0..self.num_tables)
            .map(|t| {
                if !allowed_set.contains(&TableId(t)) {
                    return Vec::new();
                }
                self.adjacency[t]
                    .iter()
                    .filter(|(n, _)| allowed_set.contains(n))
                    .cloned()
                    .collect()
            })
            .collect();
        let mut nodes: Vec<TableId> = self
            .nodes
            .iter()
            .copied()
            .filter(|t| allowed_set.contains(t))
            .collect();
        nodes.sort_unstable();
        JoinGraph {
            num_tables: self.num_tables,
            nodes,
            adjacency,
        }
    }

    /// The largest subtree size reachable in this graph (number of nodes of
    /// the largest connected component).
    pub fn max_component_size(&self) -> usize {
        let mut best = 0;
        let mut visited = vec![false; self.num_tables];
        for &TableId(s) in &self.nodes {
            if visited[s] {
                continue;
            }
            let mut size = 0;
            let mut stack = vec![s];
            while let Some(t) = stack.pop() {
                if visited[t] {
                    continue;
                }
                visited[t] = true;
                size += 1;
                stack.extend(self.adjacency[t].iter().map(|(n, _)| n.0));
            }
            best = best.max(size);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_storage::gen::{imdb_database, tpch_database, ImdbConfig, TpchConfig};
    use rand::SeedableRng;

    #[test]
    fn imdb_graph_is_a_star_on_title() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let g = JoinGraph::from_database(&db);
        let title = db.table_id("title").unwrap();
        assert_eq!(g.neighbors(title).len(), 5);
        for t in 0..db.num_tables() {
            if TableId(t) != title {
                assert_eq!(g.neighbors(TableId(t)).len(), 1);
            }
        }
        assert_eq!(g.max_component_size(), 6);
    }

    #[test]
    fn tpch_graph_has_chains() {
        let db = tpch_database(&TpchConfig::tiny(1));
        let g = JoinGraph::from_database(&db);
        let li = db.table_id("lineitem").unwrap();
        assert_eq!(g.neighbors(li).len(), 3); // orders, part, supplier
        assert_eq!(g.max_component_size(), 7);
    }

    #[test]
    fn random_subtree_is_connected_tree() {
        let db = imdb_database(&ImdbConfig::tiny(2));
        let g = JoinGraph::from_database(&db);
        let mut rng = StdRng::seed_from_u64(5);
        for size in 1..=6 {
            let (tables, edges) = g
                .random_subtree(&mut rng, size)
                .expect("imdb supports size 6");
            assert_eq!(tables.len(), size);
            assert_eq!(edges.len(), size - 1);
            // Distinct tables.
            let mut sorted = tables.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), size);
            // Each edge connects two chosen tables.
            for e in &edges {
                let (a, b) = e.tables();
                assert!(tables.contains(&a) && tables.contains(&b));
            }
        }
    }

    #[test]
    fn random_subtree_covers_all_tables_eventually() {
        let db = imdb_database(&ImdbConfig::tiny(3));
        let g = JoinGraph::from_database(&db);
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let (tables, _) = g.random_subtree(&mut rng, 2).unwrap();
            seen.extend(tables);
        }
        assert_eq!(seen.len(), 6, "all tables should appear in 2-table queries");
    }

    #[test]
    fn restrict_limits_nodes_and_edges() {
        let db = imdb_database(&ImdbConfig::tiny(5));
        let g = JoinGraph::from_database(&db);
        let title = db.table_id("title").unwrap();
        let mk = db.table_id("movie_keyword").unwrap();
        let ci = db.table_id("cast_info").unwrap();
        let r = g.restrict(&[title, mk]);
        assert_eq!(r.nodes(), &[title.min(mk), title.max(mk)]);
        assert_eq!(r.max_component_size(), 2);
        assert_eq!(r.neighbors(title).len(), 1);
        assert!(r.neighbors(ci).is_empty());
        // Subtrees never leave the allowed set.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let (tables, _) = r.random_subtree(&mut rng, 2).unwrap();
            assert!(tables.iter().all(|t| *t == title || *t == mk));
        }
        assert!(r.random_subtree(&mut rng, 3).is_none());
    }

    #[test]
    fn restrict_to_disconnected_pair_yields_singletons_only() {
        let db = imdb_database(&ImdbConfig::tiny(6));
        let g = JoinGraph::from_database(&db);
        let mk = db.table_id("movie_keyword").unwrap();
        let ci = db.table_id("cast_info").unwrap();
        let r = g.restrict(&[mk, ci]); // both leaves; no edge between them
        assert!(r.joinable_tables().is_empty());
        let mut rng = StdRng::seed_from_u64(4);
        let (tables, edges) = r.random_subtree(&mut rng, 1).unwrap();
        assert!(edges.is_empty());
        assert!(tables[0] == mk || tables[0] == ci);
        assert!(r.random_subtree(&mut rng, 2).is_none());
    }

    #[test]
    fn oversized_subtree_returns_none() {
        let db = imdb_database(&ImdbConfig::tiny(4));
        let g = JoinGraph::from_database(&db);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(g.random_subtree(&mut rng, 7).is_none());
    }
}
