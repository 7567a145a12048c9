//! Every bit both feature schemas write is pinned: what
//! `Featurizer::append_indices` writes (table bitsets, join and predicate
//! entries, per-query element counts) and the dense rows of
//! `Featurizer::featurize`, hashed per featurizer.
//!
//! The workload is generated with the extended operators, so `IN` and
//! `LIKE` predicates appear; the vocabulary lacks two of the generator's
//! predicate columns, so comparisons, `IN` and `LIKE` all land on columns
//! outside it; and one query qualifies no sample tuple.

use ds_core::featurize::{Featurizer, ServedFeatures};
use ds_nn::frozen::IndexSet;
use ds_query::parser::parse_query;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::{GeneratorConfig, QueryGenerator};
use ds_storage::gen::{imdb_database, ImdbConfig};
use ds_storage::sample::sample_all;

const SAMPLE_SIZE: usize = 40;

struct Fnv1a64(u64);

impl Fnv1a64 {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn entries(&mut self, set: &IndexSet) {
        self.u64(set.elems.len() as u64);
        for &(start, len) in &set.elems {
            self.u64(u64::from(len));
            for &(i, v) in &set.entries[start as usize..(start + len) as usize] {
                self.u64((u64::from(i) << 32) | u64::from(v.to_bits()));
            }
        }
    }

    fn rows(&mut self, rows: &[Vec<f32>]) {
        self.u64(rows.len() as u64);
        for row in rows {
            self.u64(row.len() as u64);
            row.iter().for_each(|v| self.u64(u64::from(v.to_bits())));
        }
    }
}

/// Per featurizer, in the order of `featurizers` below: what it wrote over
/// the workload, hashed with FNV-1a-64. Recorded while each schema still
/// had an encoder of its own.
const GOLDEN: [(&str, u64); 5] = [
    ("v1", 0x89fd_2cdc_ec38_aae6),
    ("v2, no predicate bitmap", 0xb454_cfd0_f490_37f8),
    ("v2, 16-bit predicate bitmap", 0x7e20_9297_6700_797a),
    ("v1 without sample bitmaps", 0xbf2c_fc76_8608_fa39),
    ("v2, 16 bits, without sample bitmaps", 0x6868_6d2b_a343_fd9d),
];

#[test]
fn both_schemas_featurize_to_the_golden_bits() {
    let db = imdb_database(&ImdbConfig::tiny(4));
    let samples = sample_all(&db, SAMPLE_SIZE, 9);
    let columns = imdb_predicate_columns(&db);
    let config = GeneratorConfig::new(columns.clone(), 43).with_extended_ops();
    let mut queries = QueryGenerator::new(&db, config).generate_batch(120);
    queries.push(
        parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year > 99999",
        )
        .expect("parses"),
    );
    let vocabulary = &columns[2..];

    // The workload reaches every case of the layout.
    let outside: Vec<_> = queries
        .iter()
        .flat_map(|q| q.qualified_predicates())
        .filter(|(cr, _)| !vocabulary.contains(cr))
        .map(|(_, p)| p.op_kind().index())
        .collect();
    for kind in 0..5 {
        assert!(outside.contains(&kind), "no operator {kind} outside");
    }
    let empty = queries.iter().any(|q| {
        q.tables
            .iter()
            .any(|&t| samples[t.0].qualifying_bitmap(q.preds_of(t)).count_ones() == 0)
    });
    assert!(empty, "no zero-tuple bitmap");

    let v1 = || Featurizer::build(&db, vocabulary, SAMPLE_SIZE);
    let no_bitmaps = || Featurizer::build_with_options(&db, vocabulary, SAMPLE_SIZE, false);
    let featurizers = [
        v1(),
        v1().with_schema_v2(0),
        v1().with_schema_v2(16),
        no_bitmaps(),
        no_bitmaps().with_schema_v2(16),
    ];

    let mut measured = Vec::new();
    for f in &featurizers {
        let mut h = Fnv1a64::new();
        for dim in [f.table_dim(), f.join_dim(), f.pred_dim()] {
            h.u64(dim as u64);
        }
        let mut served = ServedFeatures::default();
        let mut tables = IndexSet::default();
        for q in &queries {
            served.clear();
            tables.clear();
            for count in f.append_indices(q, &samples, &mut served) {
                h.u64(u64::from(count));
            }
            h.u64(served.tables.width() as u64);
            for r in 0..served.tables.len() {
                served.tables.expand_into(r, &mut tables);
            }
            h.entries(&tables);
            h.entries(&served.joins);
            h.entries(&served.preds);
            let dense = f.featurize(q, &samples);
            h.rows(&dense.table_rows);
            h.rows(&dense.join_rows);
            h.rows(&dense.pred_rows);
        }
        measured.push(h.0);
    }
    for ((name, _), measured) in GOLDEN.iter().zip(&measured) {
        println!("{name}: {measured:#018x}");
    }
    let golden: Vec<u64> = GOLDEN.iter().map(|&(_, hash)| hash).collect();
    assert_eq!(measured, golden, "a featurized bit changed");
}
