//! Base-table predicates.
//!
//! The paper's query model (and JOB-light) uses conjunctions of simple
//! comparison predicates `column op literal` with `op ∈ {=, <, >}`. The
//! MSCN+ line of work extends the operator vocabulary with `IN`-lists and
//! `LIKE` patterns (`OPS = ['lt','eq','in','like']`), which this module
//! models as a [`PredTest`] per predicate. NULL values never satisfy a
//! predicate, following SQL three-valued logic for `WHERE` clauses.
//!
//! Every column in this engine is integer-typed (string domains are
//! dictionary-encoded upstream), so `LIKE` patterns match against the
//! decimal rendering of the value — `id LIKE '19%'` qualifies 19, 190,
//! 1999, …. This keeps the storage layer string-free while still
//! exercising the pattern-predicate featurization path end to end.

use crate::bitmap::{Bitmap, Kernel};
use crate::column::Column;

/// Comparison operator of a base-table predicate. The paper enumerates
/// exactly these three and one-hot encodes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `>`
    Gt,
}

impl CmpOp {
    /// All operators, in the one-hot encoding order used by the featurizer.
    pub const ALL: [CmpOp; 3] = [CmpOp::Eq, CmpOp::Lt, CmpOp::Gt];

    /// Stable index of this operator in [`CmpOp::ALL`].
    pub fn index(self) -> usize {
        match self {
            CmpOp::Eq => 0,
            CmpOp::Lt => 1,
            CmpOp::Gt => 2,
        }
    }

    /// SQL token for this operator.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
        }
    }

    /// Applies the comparison to a non-NULL value.
    #[inline]
    pub fn eval(self, value: i64, literal: i64) -> bool {
        match self {
            CmpOp::Eq => value == literal,
            CmpOp::Lt => value < literal,
            CmpOp::Gt => value > literal,
        }
    }
}

impl std::fmt::Display for CmpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.sql())
    }
}

/// Operator kind across the full predicate vocabulary — the axis of the
/// featurizer's extended one-hot encoding. The first three indices agree
/// with [`CmpOp::index`] so comparison encodings are stable across schema
/// versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PredOpKind {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `IN (v1, …, vk)`
    In,
    /// `LIKE 'pattern'`
    Like,
}

impl PredOpKind {
    /// All operator kinds in one-hot encoding order.
    pub const ALL: [PredOpKind; 5] = [
        PredOpKind::Eq,
        PredOpKind::Lt,
        PredOpKind::Gt,
        PredOpKind::In,
        PredOpKind::Like,
    ];

    /// Stable index of this kind in [`PredOpKind::ALL`]. Comparison kinds
    /// keep their [`CmpOp::index`] values.
    pub fn index(self) -> usize {
        match self {
            PredOpKind::Eq => 0,
            PredOpKind::Lt => 1,
            PredOpKind::Gt => 2,
            PredOpKind::In => 3,
            PredOpKind::Like => 4,
        }
    }

    /// SQL token for this kind.
    pub fn sql(self) -> &'static str {
        match self {
            PredOpKind::Eq => "=",
            PredOpKind::Lt => "<",
            PredOpKind::Gt => ">",
            PredOpKind::In => "IN",
            PredOpKind::Like => "LIKE",
        }
    }
}

/// A SQL `LIKE` pattern (`%` = any run of characters, `_` = any single
/// character), matched against the decimal rendering of an integer value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LikePattern {
    raw: String,
}

impl LikePattern {
    /// Wraps a raw pattern string.
    pub fn new(pattern: impl Into<String>) -> Self {
        Self {
            raw: pattern.into(),
        }
    }

    /// The raw pattern text (without quotes).
    pub fn as_str(&self) -> &str {
        &self.raw
    }

    /// True if the pattern starts with a literal prefix followed by `%`
    /// and nothing else — the cheap prefix-scan class of patterns.
    pub fn is_prefix(&self) -> bool {
        let b = self.raw.as_bytes();
        !b.is_empty()
            && b[b.len() - 1] == b'%'
            && b[..b.len() - 1].iter().all(|&c| c != b'%' && c != b'_')
    }

    /// Matches the pattern against the decimal rendering of `value`
    /// (negatives include the `-` sign). Stack-allocated: no heap work on
    /// the sample-bitmap hot path.
    #[inline]
    pub fn matches(&self, value: i64) -> bool {
        let mut buf = [0u8; 20]; // i64::MIN is 20 bytes incl. sign
        let s = format_i64(value, &mut buf);
        like_match(self.raw.as_bytes(), s)
    }
}

impl std::fmt::Display for LikePattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.raw)
    }
}

/// Renders `value` in decimal into `buf`, returning the used slice.
#[inline]
fn format_i64(value: i64, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    // Work in the negative domain so i64::MIN needs no special case.
    let neg = value < 0;
    let mut v = if neg { value } else { -value };
    loop {
        i -= 1;
        buf[i] = b'0' + (-(v % 10)) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if neg {
        i -= 1;
        buf[i] = b'-';
    }
    &buf[i..]
}

/// Iterative greedy `LIKE` matcher with `%`-backtracking (linear in
/// `|s| · |pat|` worst case, linear typical).
fn like_match(pat: &[u8], s: &[u8]) -> bool {
    let (mut p, mut si) = (0usize, 0usize);
    let mut star: Option<usize> = None;
    let mut mark = 0usize;
    while si < s.len() {
        if p < pat.len() {
            match pat[p] {
                b'%' => {
                    star = Some(p);
                    mark = si;
                    p += 1;
                    continue;
                }
                b'_' => {
                    p += 1;
                    si += 1;
                    continue;
                }
                c if c == s[si] => {
                    p += 1;
                    si += 1;
                    continue;
                }
                _ => {}
            }
        }
        match star {
            Some(sp) => {
                p = sp + 1;
                mark += 1;
                si = mark;
            }
            None => return false,
        }
    }
    while p < pat.len() && pat[p] == b'%' {
        p += 1;
    }
    p == pat.len()
}

/// The test applied by a predicate to a non-NULL column value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PredTest {
    /// `op literal` with `op ∈ {=, <, >}`.
    Cmp(CmpOp, i64),
    /// `IN (v1, …, vk)` — canonical form: sorted ascending, deduplicated,
    /// non-empty. Use [`ColPredicate::is_in`] to construct.
    In(Vec<i64>),
    /// `LIKE 'pattern'` over the decimal rendering of the value.
    Like(LikePattern),
}

impl PredTest {
    /// Operator kind of this test.
    pub fn op_kind(&self) -> PredOpKind {
        match self {
            PredTest::Cmp(CmpOp::Eq, _) => PredOpKind::Eq,
            PredTest::Cmp(CmpOp::Lt, _) => PredOpKind::Lt,
            PredTest::Cmp(CmpOp::Gt, _) => PredOpKind::Gt,
            PredTest::In(_) => PredOpKind::In,
            PredTest::Like(_) => PredOpKind::Like,
        }
    }

    /// Applies the test to a non-NULL value.
    #[inline]
    pub fn eval(&self, value: i64) -> bool {
        match self {
            PredTest::Cmp(op, lit) => op.eval(value, *lit),
            PredTest::In(vals) => vals.binary_search(&value).is_ok(),
            PredTest::Like(pat) => pat.matches(value),
        }
    }
}

/// A predicate `column <test>` on one column of one table. The column is
/// identified positionally within the owning table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColPredicate {
    /// Index of the column within the table.
    pub col: usize,
    /// The test applied to the column's value.
    pub test: PredTest,
}

impl ColPredicate {
    /// Creates a comparison predicate `column op literal` — the original
    /// three-operator vocabulary.
    pub fn new(col: usize, op: CmpOp, literal: i64) -> Self {
        Self {
            col,
            test: PredTest::Cmp(op, literal),
        }
    }

    /// Creates an `IN`-list predicate. The list is canonicalized (sorted,
    /// deduplicated) so equal predicates compare and hash equal regardless
    /// of surface order.
    ///
    /// # Panics
    /// Panics if `values` is empty — `IN ()` is not valid SQL; parsers
    /// must reject it before constructing a predicate.
    pub fn is_in(col: usize, mut values: Vec<i64>) -> Self {
        assert!(!values.is_empty(), "IN list must be non-empty");
        values.sort_unstable();
        values.dedup();
        Self {
            col,
            test: PredTest::In(values),
        }
    }

    /// Creates a `LIKE` predicate over the decimal rendering of the value.
    pub fn like(col: usize, pattern: impl Into<String>) -> Self {
        Self {
            col,
            test: PredTest::Like(LikePattern::new(pattern)),
        }
    }

    /// Operator kind of this predicate.
    pub fn op_kind(&self) -> PredOpKind {
        self.test.op_kind()
    }

    /// The `(op, literal)` pair if this is a plain comparison.
    pub fn as_cmp(&self) -> Option<(CmpOp, i64)> {
        match &self.test {
            PredTest::Cmp(op, lit) => Some((*op, *lit)),
            _ => None,
        }
    }

    /// Evaluates the predicate against row `row` of `column`.
    /// NULL rows never qualify.
    #[inline]
    pub fn eval_row(&self, column: &Column, row: usize) -> bool {
        match column.get(row) {
            Some(v) => self.test.eval(v),
            None => false,
        }
    }

    /// Clears bit `row` of `bm` for every row below `bm.len()` of `column`
    /// this predicate rejects ([`ColPredicate::eval_row`]); bits past the
    /// column's rows are left alone. On AVX-512 a comparison or an `IN`
    /// list tests every row, set bit or not, eight rows to an instruction
    /// (an `IN` list ORs one equality per value), and a column with NULLs
    /// then clears its null mask, one AND-NOT per word. The portable path,
    /// the oracle and the fallback without AVX-512, tests a comparison on
    /// a column without NULLs 64 rows to a word (`Bitmap::and_where`) and
    /// everything else a set row at a time, as both paths test `LIKE`.
    ///
    /// # Panics
    /// Panics when the CPU lacks the kernel's instructions.
    pub fn and_into(&self, kernel: Kernel, column: &Column, bm: &mut Bitmap) {
        assert!(kernel.is_available(), "this CPU cannot run {kernel:?}");
        let values = &column.data()[..column.len().min(bm.len())];
        match (&self.test, kernel, column.null_mask()) {
            #[cfg(target_arch = "x86_64")]
            (PredTest::Cmp(..) | PredTest::In(_), Kernel::Avx512, nulls) => {
                // SAFETY: AVX-512F support was just verified at runtime.
                unsafe { x86::and_test(bm.words_mut(), values, &self.test) };
                if let Some(nulls) = nulls {
                    bm.and_not(nulls);
                }
            }
            (&PredTest::Cmp(op, lit), _, None) => match op {
                CmpOp::Eq => bm.and_where(values, |v| v == lit),
                CmpOp::Lt => bm.and_where(values, |v| v < lit),
                CmpOp::Gt => bm.and_where(values, |v| v > lit),
            },
            _ => bm.retain(|row| row >= values.len() || self.eval_row(column, row)),
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{CmpOp, PredTest};
    use crate::bitmap::x86::and_lanes;

    /// [`PredTest::eval`] over `values` into `words`, a comparison as one
    /// 8-lane signed compare per eight values and an `IN` list as one
    /// equality per list value, ORed. `LIKE` has no lane form.
    #[target_feature(enable = "avx512f")]
    pub(super) fn and_test(words: &mut [u64], values: &[i64], test: &PredTest) {
        match *test {
            PredTest::Cmp(op, lit) => {
                let lit = _mm512_set1_epi64(lit);
                match op {
                    CmpOp::Eq => and_lanes(words, values, |v| _mm512_cmpeq_epi64_mask(v, lit)),
                    CmpOp::Lt => and_lanes(words, values, |v| _mm512_cmplt_epi64_mask(v, lit)),
                    CmpOp::Gt => and_lanes(words, values, |v| _mm512_cmpgt_epi64_mask(v, lit)),
                }
            }
            PredTest::In(ref list) => and_lanes(words, values, |v| {
                list.iter().fold(0, |passed, &x| {
                    passed | _mm512_cmpeq_epi64_mask(v, _mm512_set1_epi64(x))
                })
            }),
            PredTest::Like(_) => unreachable!("LIKE is tested a row at a time"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_eval_truth_table() {
        assert!(CmpOp::Eq.eval(5, 5));
        assert!(!CmpOp::Eq.eval(5, 6));
        assert!(CmpOp::Lt.eval(4, 5));
        assert!(!CmpOp::Lt.eval(5, 5));
        assert!(CmpOp::Gt.eval(6, 5));
        assert!(!CmpOp::Gt.eval(5, 5));
    }

    #[test]
    fn op_indices_match_all_order() {
        for (i, op) in CmpOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
        for (i, k) in PredOpKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        // Cmp kinds keep the CmpOp indices — schema v1/v2 agreement.
        for op in CmpOp::ALL {
            assert_eq!(
                op.index(),
                PredTest::Cmp(op, 0).op_kind().index(),
                "{op:?} index drifted between CmpOp and PredOpKind"
            );
        }
    }

    #[test]
    fn sql_tokens() {
        assert_eq!(CmpOp::Eq.to_string(), "=");
        assert_eq!(CmpOp::Lt.to_string(), "<");
        assert_eq!(CmpOp::Gt.to_string(), ">");
        assert_eq!(PredOpKind::In.sql(), "IN");
        assert_eq!(PredOpKind::Like.sql(), "LIKE");
    }

    #[test]
    fn null_never_qualifies() {
        let mut nulls = Bitmap::new(2);
        nulls.set(0);
        let col = Column::with_nulls("c", vec![7, 7], nulls);
        let p = ColPredicate::new(0, CmpOp::Eq, 7);
        assert!(!p.eval_row(&col, 0));
        assert!(p.eval_row(&col, 1));
        let p = ColPredicate::is_in(0, vec![7, 9]);
        assert!(!p.eval_row(&col, 0));
        assert!(p.eval_row(&col, 1));
        let p = ColPredicate::like(0, "7%");
        assert!(!p.eval_row(&col, 0));
        assert!(p.eval_row(&col, 1));
    }

    #[test]
    fn in_list_canonicalized_and_evaluated() {
        let p = ColPredicate::is_in(0, vec![9, 3, 3, 7]);
        assert_eq!(p, ColPredicate::is_in(0, vec![3, 7, 9]));
        assert!(p.test.eval(3));
        assert!(p.test.eval(7));
        assert!(p.test.eval(9));
        assert!(!p.test.eval(5));
        assert_eq!(p.op_kind(), PredOpKind::In);
        assert_eq!(p.as_cmp(), None);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_in_list_panics() {
        let _ = ColPredicate::is_in(0, vec![]);
    }

    #[test]
    fn like_matches_decimal_rendering() {
        let p = LikePattern::new("19%");
        assert!(p.matches(19));
        assert!(p.matches(190));
        assert!(p.matches(1999));
        assert!(!p.matches(9));
        assert!(!p.matches(219));
        // `_` matches exactly one character.
        let p = LikePattern::new("1_3");
        assert!(p.matches(123));
        assert!(p.matches(103));
        assert!(!p.matches(13));
        assert!(!p.matches(1234));
        // `%` in the middle and multiple wildcards.
        let p = LikePattern::new("1%3");
        assert!(p.matches(13));
        assert!(p.matches(123));
        assert!(p.matches(100_003));
        assert!(!p.matches(132));
        let p = LikePattern::new("%");
        assert!(p.matches(0));
        assert!(p.matches(-5));
        // Empty pattern matches nothing (every rendering is non-empty).
        let p = LikePattern::new("");
        assert!(!p.matches(0));
    }

    #[test]
    fn like_handles_negatives_and_extremes() {
        assert!(LikePattern::new("-4%").matches(-42));
        assert!(!LikePattern::new("-4%").matches(42));
        assert!(LikePattern::new("%8").matches(i64::MIN)); // …775808
        assert!(LikePattern::new("92%").matches(i64::MAX)); // 92233…
        assert!(LikePattern::new("0").matches(0));
        assert!(!LikePattern::new("0").matches(10));
    }

    #[test]
    fn like_prefix_classification() {
        assert!(LikePattern::new("19%").is_prefix());
        assert!(LikePattern::new("%").is_prefix());
        assert!(!LikePattern::new("1%3").is_prefix());
        assert!(!LikePattern::new("1_%").is_prefix());
        assert!(!LikePattern::new("19").is_prefix());
        assert!(!LikePattern::new("").is_prefix());
    }

    #[test]
    fn like_backtracking_terminates() {
        // Pathological backtracking pattern still answers correctly.
        let p = LikePattern::new("%1%1%1%2");
        assert!(p.matches(1_110_102)); // contains 1,1,1 then ends in 2
        assert!(!p.matches(1_110_101));
    }
}
