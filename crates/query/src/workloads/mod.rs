//! Evaluation workloads and per-schema predicate-column registries.

pub mod job_light;
pub mod stats;
pub mod tpch;

use ds_storage::catalog::{ColRef, Database};

/// Dimension attributes of the synthetic IMDb that predicates may range
/// over — everything except surrogate `id` keys and `movie_id` join keys,
/// matching the attribute set used by JOB-light / MSCN.
pub fn imdb_predicate_columns(db: &Database) -> Vec<ColRef> {
    [
        "title.kind_id",
        "title.production_year",
        "movie_companies.company_id",
        "movie_companies.company_type_id",
        "cast_info.person_id",
        "cast_info.role_id",
        "movie_info.info_type_id",
        "movie_info_idx.info_type_id",
        "movie_keyword.keyword_id",
    ]
    .iter()
    .map(|q| {
        db.resolve(q)
            .unwrap_or_else(|| panic!("missing column {q}"))
    })
    .collect()
}

/// Dimension attributes of the synthetic TPC-H subset eligible for
/// predicates.
pub fn tpch_predicate_columns(db: &Database) -> Vec<ColRef> {
    [
        "customer.c_acctbal",
        "customer.c_mktsegment",
        "orders.o_orderdate",
        "orders.o_orderstatus",
        "orders.o_orderpriority",
        "lineitem.l_quantity",
        "lineitem.l_discount",
        "lineitem.l_shipdate",
        "part.p_size",
        "part.p_brand",
        "part.p_retailprice",
        "supplier.s_acctbal",
    ]
    .iter()
    .map(|q| {
        db.resolve(q)
            .unwrap_or_else(|| panic!("missing column {q}"))
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_storage::gen::{imdb_database, tpch_database, ImdbConfig, TpchConfig};

    #[test]
    fn imdb_columns_resolve() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let cols = imdb_predicate_columns(&db);
        assert_eq!(cols.len(), 9);
        // No id / movie_id columns.
        for cr in cols {
            let name = db.col_name(cr);
            assert!(
                !name.ends_with(".id") && !name.ends_with(".movie_id"),
                "{name}"
            );
        }
    }

    #[test]
    fn tpch_columns_resolve() {
        let db = tpch_database(&TpchConfig::tiny(1));
        let cols = tpch_predicate_columns(&db);
        assert_eq!(cols.len(), 12);
        for cr in cols {
            let name = db.col_name(cr);
            assert!(!name.contains("key"), "join keys excluded: {name}");
        }
    }
}
