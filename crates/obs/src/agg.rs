//! Fleet-wide exposition aggregation: merges per-shard `STATS`
//! documents into one pane of glass.
//!
//! [`merge_expositions`] takes each shard's exposition as typed families
//! ([`crate::prom::parse_families`]) and folds them by declared type:
//!
//! * **counters** sum — the fleet served the sum of what its shards
//!   served;
//! * **histograms** merge bucket-wise, exactly reproducing
//!   [`HistogramSnapshot::merge`] over the per-shard distributions
//!   (their `_min`/`_max` sibling gauges are folded into the same
//!   reconstruction, so an empty shard cannot drag the fleet min to 0);
//! * **gauges** take the max — "worst shard wins" is the right default
//!   for breaker-open flags, queue depths, and SLO burn rates;
//! * **summaries** cannot be merged exactly: quantile samples take the
//!   max (an upper bound on every shard's tail), `_sum`/`_count` sum.
//!
//! Families are emitted in first-seen document order, so merging a
//! single document is the identity up to float formatting. A family
//! whose declared kind disagrees across shards keeps the first kind and
//! skips mismatched occurrences rather than mixing semantics.

use std::collections::HashMap;

use crate::hist::HistogramSnapshot;
use crate::prom::{FamilyKind, PromFamily, PromText};

/// Reconstructs the dense [`HistogramSnapshot`] behind one exposition
/// histogram family. `min_gauge`/`max_gauge` are the sibling `_min` /
/// `_max` gauges from the same document (ignored when the family is
/// empty — an empty histogram's sentinel min must survive the trip).
fn snapshot_of(
    fam: &PromFamily,
    min_gauge: Option<f64>,
    max_gauge: Option<f64>,
) -> Option<HistogramSnapshot> {
    let words_len = HistogramSnapshot::new().to_words().len();
    let buckets_len = words_len - 4;
    let mut buckets = vec![0u64; buckets_len];
    let mut prev_cumulative = 0u64;
    let bucket_name = format!("{}_bucket", fam.name);
    for s in &fam.samples {
        if s.name != bucket_name {
            continue;
        }
        let le = match s.labels.iter().find(|(k, _)| k == "le") {
            Some((_, v)) => v.as_str(),
            None => return None,
        };
        if le == "+Inf" {
            continue; // always equals _count; validated below
        }
        let le: u64 = le.parse().ok()?;
        // le is 0 (the zeros bucket) or 2^i - 1 for bucket i.
        let idx = if le == 0 {
            0
        } else {
            let up = le.checked_add(1)?;
            if !up.is_power_of_two() {
                return None;
            }
            up.trailing_zeros() as usize
        };
        if idx >= buckets_len {
            return None;
        }
        let cumulative = s.value as u64;
        buckets[idx] = cumulative.checked_sub(prev_cumulative)?;
        prev_cumulative = cumulative;
    }
    let count = fam.suffixed("count")? as u64;
    let sum = fam.suffixed("sum")? as u64;
    let (min, max) = if count == 0 {
        (u64::MAX, 0)
    } else {
        (min_gauge? as u64, max_gauge? as u64)
    };
    let mut words = Vec::with_capacity(words_len);
    words.extend([count, sum, min, max]);
    words.extend(buckets);
    // from_words re-checks the bucket-sum-equals-count invariant, so a
    // shard serving corrupt cumulative counts is rejected, not merged.
    HistogramSnapshot::from_words(&words)
}

fn label_text(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", body.join(","))
}

/// Per-sample accumulator keyed by `(name, labels)`, preserving
/// first-seen order for deterministic output.
struct SampleFold {
    order: Vec<(String, String)>,
    values: HashMap<(String, String), f64>,
}

impl SampleFold {
    fn new() -> Self {
        Self {
            order: Vec::new(),
            values: HashMap::new(),
        }
    }

    fn fold(
        &mut self,
        name: &str,
        labels: &[(String, String)],
        value: f64,
        f: impl Fn(f64, f64) -> f64,
    ) {
        let key = (name.to_string(), label_text(labels));
        match self.values.get_mut(&key) {
            Some(v) => *v = f(*v, value),
            None => {
                self.order.push(key.clone());
                self.values.insert(key, value);
            }
        }
    }

    fn emit(&self, out: &mut PromText) {
        for key in &self.order {
            out.sample(&key.0, &key.1, self.values[key]);
        }
    }
}

/// Merges per-shard expositions (one slice of parsed families per shard)
/// into one document. See the module docs for the per-type semantics.
/// Returns `None` when a histogram family is internally inconsistent.
pub fn merge_expositions(parsed: &[&[PromFamily]]) -> Option<String> {
    // First-seen family order across all documents.
    let mut order: Vec<String> = Vec::new();
    let mut kinds: HashMap<String, FamilyKind> = HashMap::new();
    // Histogram families swallow their `_min`/`_max` sibling gauges into
    // the snapshot reconstruction; remember which names those are.
    let mut swallowed: std::collections::HashSet<String> = std::collections::HashSet::new();
    for fams in parsed {
        for fam in fams.iter() {
            if !kinds.contains_key(&fam.name) {
                kinds.insert(fam.name.clone(), fam.kind);
                order.push(fam.name.clone());
            }
            if fam.kind == FamilyKind::Histogram {
                swallowed.insert(format!("{}_min", fam.name));
                swallowed.insert(format!("{}_max", fam.name));
            }
        }
    }

    let sibling = |fams: &[PromFamily], name: &str| -> Option<f64> {
        fams.iter()
            .find(|f| f.name == name)
            .and_then(|f| f.scalar())
    };

    let mut out = PromText::new();
    for name in &order {
        if swallowed.contains(name) {
            continue;
        }
        let kind = kinds[name];
        // Every same-kind occurrence of this family across the documents,
        // paired with its document (histograms need their siblings).
        let occurrences: Vec<(&[PromFamily], &PromFamily)> = parsed
            .iter()
            .flat_map(|&fams| {
                fams.iter()
                    .filter(|f| &f.name == name && f.kind == kind)
                    .map(move |f| (fams, f))
            })
            .collect();
        match kind {
            FamilyKind::Counter => {
                out.header(name, "counter");
                let mut fold = SampleFold::new();
                for (_, fam) in &occurrences {
                    for s in &fam.samples {
                        fold.fold(&s.name, &s.labels, s.value, |a, b| a + b);
                    }
                }
                fold.emit(&mut out);
            }
            FamilyKind::Gauge | FamilyKind::Untyped => {
                out.header(
                    name,
                    if kind == FamilyKind::Gauge {
                        "gauge"
                    } else {
                        "untyped"
                    },
                );
                let mut fold = SampleFold::new();
                for (_, fam) in &occurrences {
                    for s in &fam.samples {
                        fold.fold(&s.name, &s.labels, s.value, f64::max);
                    }
                }
                fold.emit(&mut out);
            }
            FamilyKind::Summary => {
                out.header(name, "summary");
                let sum_name = format!("{name}_sum");
                let count_name = format!("{name}_count");
                let mut fold = SampleFold::new();
                for (_, fam) in &occurrences {
                    for s in &fam.samples {
                        if s.name == sum_name || s.name == count_name {
                            fold.fold(&s.name, &s.labels, s.value, |a, b| a + b);
                        } else {
                            fold.fold(&s.name, &s.labels, s.value, f64::max);
                        }
                    }
                }
                fold.emit(&mut out);
            }
            FamilyKind::Histogram => {
                let mut merged = HistogramSnapshot::new();
                for (fams, fam) in &occurrences {
                    let snap = snapshot_of(
                        fam,
                        sibling(fams, &format!("{name}_min")),
                        sibling(fams, &format!("{name}_max")),
                    )?;
                    merged.merge(&snap);
                }
                out.histogram_sanitized(name, &merged);
                out.header(&format!("{name}_min"), "gauge");
                out.sample(&format!("{name}_min"), "", merged.min() as f64);
                out.header(&format!("{name}_max"), "gauge");
                out.sample(&format!("{name}_max"), "", merged.max() as f64);
            }
        }
    }
    out.finish().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LogHistogram;
    use crate::prom::parse_families;

    fn merge_docs(docs: &[&str]) -> Option<String> {
        let parsed: Vec<Vec<PromFamily>> = docs
            .iter()
            .map(|d| parse_families(d).expect("parse shard document"))
            .collect();
        let refs: Vec<&[PromFamily]> = parsed.iter().map(Vec::as_slice).collect();
        merge_expositions(&refs)
    }

    fn shard_doc(reqs: u64, queue: f64, lats: &[u64]) -> String {
        let h = LogHistogram::new();
        for &v in lats {
            h.record(v);
        }
        let mut p = PromText::new();
        p.counter("serve/requests", reqs)
            .gauge("serve/queue_len", queue)
            .histogram("serve/latency_us/hist", &h.snapshot())
            .summary("serve/latency_us", &h.snapshot());
        p.finish().unwrap()
    }

    #[test]
    fn counters_sum_gauges_max_histograms_merge_exactly() {
        let a = shard_doc(10, 3.0, &[1, 5, 5, 200]);
        let b = shard_doc(32, 1.0, &[0, 7, 4096]);
        let merged = merge_docs(&[&a, &b]).expect("merge");
        let fams = parse_families(&merged).expect("parse merged");
        let get = |n: &str| fams.iter().find(|f| f.name == n).expect(n);
        assert_eq!(get("ds_serve_requests").scalar(), Some(42.0));
        assert_eq!(get("ds_serve_queue_len").scalar(), Some(3.0));

        // The merged histogram family must equal HistogramSnapshot::merge
        // of the two shards' distributions — the acceptance invariant.
        let expect = LogHistogram::new();
        for v in [1u64, 5, 5, 200, 0, 7, 4096] {
            expect.record(v);
        }
        let union = expect.snapshot();
        let hist = get("ds_serve_latency_us_hist");
        let rebuilt = snapshot_of(
            hist,
            get("ds_serve_latency_us_hist_min").scalar(),
            get("ds_serve_latency_us_hist_max").scalar(),
        )
        .expect("rebuild merged");
        assert_eq!(rebuilt, union);

        // Summary: quantiles upper-bound, sum/count exact.
        let summary = get("ds_serve_latency_us");
        assert_eq!(summary.suffixed("count"), Some(7.0));
        assert_eq!(summary.suffixed("sum"), Some(union.sum() as f64));
    }

    #[test]
    fn empty_shard_histogram_does_not_poison_the_fleet_min() {
        let a = shard_doc(1, 0.0, &[500, 900]);
        let b = shard_doc(0, 0.0, &[]);
        let merged = merge_docs(&[&a, &b]).expect("merge");
        let fams = parse_families(&merged).expect("parse merged");
        let get = |n: &str| fams.iter().find(|f| f.name == n).expect(n);
        assert_eq!(get("ds_serve_latency_us_hist_min").scalar(), Some(500.0));
        assert_eq!(get("ds_serve_latency_us_hist_max").scalar(), Some(900.0));
    }

    #[test]
    fn merging_one_document_is_the_identity_on_values() {
        let a = shard_doc(7, 2.0, &[3, 9]);
        let merged = merge_docs(&[&a]).expect("merge");
        let before = parse_families(&a).unwrap();
        let after = parse_families(&merged).unwrap();
        // Same families, same scalar/suffixed values (order preserved).
        assert_eq!(before.len(), after.len());
        for (x, y) in before.iter().zip(after.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.samples, y.samples, "family {}", x.name);
        }
    }

    #[test]
    fn corrupt_histograms_are_rejected_not_merged() {
        let good = shard_doc(1, 0.0, &[4]);
        // Lie about the count: bucket sum no longer matches.
        let bad = good.replace(
            "ds_serve_latency_us_hist_count 1",
            "ds_serve_latency_us_hist_count 3",
        );
        assert!(merge_docs(&[&good, &bad]).is_none());
    }
}
