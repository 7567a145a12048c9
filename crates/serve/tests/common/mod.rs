//! The one fixture of the serve suites: a tiny synthetic IMDb, a sketch
//! that trains on it in well under a second, and a server over the two.

// Each suite is its own crate and uses its own subset of this module.
#![allow(dead_code)]

use std::sync::Arc;

use ds_core::builder::SketchBuilder;
use ds_core::sketch::DeepSketch;
use ds_core::store::SketchStore;
use ds_query::workloads::imdb_predicate_columns;
use ds_serve::{ServeConfig, Server};
use ds_storage::catalog::Database;
use ds_storage::gen::{imdb_database, ImdbConfig};

/// The tiny synthetic IMDb generated from `seed`.
pub fn tiny_db(seed: u64) -> Arc<Database> {
    Arc::new(imdb_database(&ImdbConfig::tiny(seed)))
}

/// A sketch small enough to train per test; `seed` picks the training
/// queries and the initial weights, so different seeds answer differently.
pub fn tiny_sketch(db: &Database, seed: u64) -> DeepSketch {
    SketchBuilder::new(db, imdb_predicate_columns(db))
        .training_queries(120)
        .epochs(2)
        .sample_size(8)
        .hidden_units(8)
        .seed(seed)
        .build()
        .expect("tiny sketch")
}

/// The standard pair: `tiny_db(42)` and a store serving `tiny_sketch(.., 7)`
/// as `imdb`.
pub fn fixture() -> (Arc<Database>, Arc<SketchStore>) {
    let db = tiny_db(42);
    let store = Arc::new(SketchStore::new());
    store.insert("imdb", tiny_sketch(&db, 7)).unwrap();
    (db, store)
}

/// A server over [`fixture`], with the database and store it serves.
pub fn start(cfg: ServeConfig) -> (Server, Arc<Database>, Arc<SketchStore>) {
    let (db, store) = fixture();
    let server = Server::start(Arc::clone(&db), Arc::clone(&store), cfg).unwrap();
    (server, db, store)
}
