//! A parser for the SQL subset of the paper:
//!
//! ```sql
//! SELECT COUNT(*)
//! FROM title t, movie_keyword mk
//! WHERE mk.movie_id = t.id
//!   AND mk.keyword_id = 117
//!   AND t.production_year > 2005
//!   AND t.kind_id = ?
//! ```
//!
//! Supported: `SELECT COUNT(*)`, comma-separated `FROM` list with optional
//! aliases, conjunctive `WHERE` with column-column equi-joins, column-literal
//! comparisons (`=`, `<`, `>`), inclusive `BETWEEN a AND b` (desugared to a
//! `>`/`<` pair over integers), `IN (v1, …, vk)` lists, `LIKE 'pattern'`
//! over the decimal rendering of the value, and at most one `?` placeholder
//! (for query templates). Case-insensitive keywords, negative integer
//! literals, single-quoted string literals (no escapes).

use std::cell::RefCell;
use std::fmt;

use ds_storage::catalog::{ColRef, Database, TableId};
use ds_storage::exec::JoinEdge;
use ds_storage::predicate::{CmpOp, ColPredicate};

use crate::query::Query;

/// Parse errors with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Result of parsing: the query plus the placeholder column, if the SQL
/// contained a `column op ?` term.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedQuery {
    /// The parsed query (without the placeholder predicate).
    pub query: Query,
    /// Placeholder predicate `(column, operator)` if present.
    pub placeholder: Option<(ColRef, CmpOp)>,
}

thread_local! {
    /// The parser behind [`parse`] and [`parse_query`], so their callers
    /// allocate the returned [`Query`] and nothing else.
    static PARSER: RefCell<Parser> = RefCell::default();
}

/// Parses a SQL string into a [`Query`]; rejects placeholders.
///
/// ```
/// use ds_query::parser::parse_query;
/// use ds_storage::gen::{imdb_database, ImdbConfig};
/// let db = imdb_database(&ImdbConfig::tiny(1));
/// let q = parse_query(&db, "SELECT COUNT(*) FROM title t, movie_keyword mk \
///                           WHERE mk.movie_id = t.id AND t.production_year > 2000").unwrap();
/// assert_eq!(q.tables.len(), 2);
/// assert_eq!(q.num_joins(), 1);
/// assert_eq!(q.num_predicates(), 1);
/// ```
pub fn parse_query(db: &Database, sql: &str) -> Result<Query, ParseError> {
    let mut query = Query::default();
    PARSER.with_borrow_mut(|p| p.parse_query(db, sql, &mut query))?;
    Ok(query)
}

/// Parses a SQL string, allowing one `?` placeholder (query templates).
pub fn parse(db: &Database, sql: &str) -> Result<ParsedQuery, ParseError> {
    let mut query = Query::default();
    let placeholder = PARSER.with_borrow_mut(|p| p.parse(db, sql, &mut query))?;
    Ok(ParsedQuery { query, placeholder })
}

/// A token of the statement, borrowing its text from the SQL string.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Token<'a> {
    Word(&'a str), // identifier or keyword, as written (folded where it is read)
    Number(i64),   // integer literal
    Str(&'a str),  // single-quoted string literal (verbatim, unquoted)
    Symbol(char),  // ( ) , = < > . * ?
}

/// Error messages quote tokens through this; a word shows the way the
/// grammar reads it, with its ASCII letters folded to lower case.
impl fmt::Debug for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Word(w) => write!(f, "Word({:?})", w.to_ascii_lowercase()),
            Token::Number(n) => write!(f, "Number({n:?})"),
            Token::Str(s) => write!(f, "Str({s:?})"),
            Token::Symbol(c) => write!(f, "Symbol({c:?})"),
        }
    }
}

/// The character starting at byte `at` of `sql` and the offset just past it.
fn char_at(sql: &str, at: usize) -> Option<(char, usize)> {
    let b = *sql.as_bytes().get(at)?;
    if b.is_ascii() {
        return Some((char::from(b), at + 1));
    }
    let c = sql[at..].chars().next()?;
    Some((c, at + c.len_utf8()))
}

/// Splits the whole statement into `out`, so a lexical error anywhere in it
/// is reported before any syntax error.
fn tokenize<'a>(sql: &'a str, out: &mut Vec<Token<'a>>) -> Result<(), ParseError> {
    let mut at = 0;
    while let Some((c, next)) = char_at(sql, at) {
        let start = at;
        at = next;
        match c {
            c if c.is_whitespace() => {}
            ';' => {}
            '(' | ')' | ',' | '=' | '<' | '>' | '*' | '?' | '.' => out.push(Token::Symbol(c)),
            '-' | '0'..='9' => {
                let overflow = || ParseError("integer literal overflow".into());
                let digits = if c == '-' { at } else { start };
                at = digits;
                // Accumulated below zero, where `i64` has one value more:
                // `i64::MIN` is a literal `to_sql` prints.
                let mut n: i64 = 0;
                while let Some(d) = sql.as_bytes().get(at).filter(|d| d.is_ascii_digit()) {
                    n = n
                        .checked_mul(10)
                        .and_then(|x| x.checked_sub(i64::from(d - b'0')))
                        .ok_or_else(overflow)?;
                    at += 1;
                }
                if at == digits {
                    return err("'-' must start an integer literal");
                }
                out.push(Token::Number(if c == '-' {
                    n
                } else {
                    n.checked_neg().ok_or_else(overflow)?
                }));
            }
            c if c.is_alphabetic() || c == '_' => {
                while let Some((d, next)) = char_at(sql, at) {
                    if !(d.is_alphanumeric() || d == '_') {
                        break;
                    }
                    at = next;
                }
                out.push(Token::Word(&sql[start..at]));
            }
            '\'' => match sql.as_bytes()[at..].iter().position(|&b| b == b'\'') {
                Some(len) => {
                    out.push(Token::Str(&sql[at..at + len]));
                    at += len + 1;
                }
                None => return err("unterminated string literal"),
            },
            other => return err(format!("unexpected character '{other}'")),
        }
    }
    Ok(())
}

/// `word` as the grammar reads it — ASCII letters folded to lower case —
/// copied into `buf` only when it carries an upper-case byte.
fn folded<'b>(word: &'b str, buf: &'b mut String) -> &'b str {
    if !word.bytes().any(|b| b.is_ascii_uppercase()) {
        return word;
    }
    buf.clear();
    buf.push_str(word);
    buf.make_ascii_lowercase();
    buf
}

/// A `table_or_alias.column` reference before resolution.
#[derive(Debug, Clone, Copy)]
struct RawCol<'a> {
    qualifier: &'a str,
    column: &'a str,
}

#[derive(Debug)]
enum Term<'a> {
    Join(RawCol<'a>, RawCol<'a>),
    Pred(RawCol<'a>, CmpOp, i64),
    InList(RawCol<'a>, Vec<i64>),
    LikePat(RawCol<'a>, &'a str),
    Placeholder(RawCol<'a>, CmpOp),
}

/// The names a `FROM` list binds — tables and their aliases, as written.
/// A handful per statement, so a scan beats hashing them.
type Aliases<'a> = Vec<(&'a str, TableId)>;

/// Binds `name` to `table`; returns the table it was bound to before.
fn bind<'a>(aliases: &mut Aliases<'a>, name: &'a str, table: TableId) -> Option<TableId> {
    match aliases
        .iter_mut()
        .find(|(bound, _)| bound.eq_ignore_ascii_case(name))
    {
        Some((_, old)) => Some(std::mem::replace(old, table)),
        None => {
            aliases.push((name, table));
            None
        }
    }
}

/// An empty vector on `v`'s allocation, for elements that borrow from
/// another statement. `collect` hands a vector's own iterator its buffer
/// back when source and target elements share a layout, as the two
/// lifetimes of one type do (`ds-serve`'s `request_allocations` test holds
/// it to that); no element crosses over, the vector is emptied first.
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| unreachable!("emptied")).collect()
}

/// The parser with its working memory: the token, term and alias buffers of
/// one statement serve the next, so a parser that has seen a statement of
/// each size parses a comparison-only query into a reused [`Query`] without
/// allocating (`IN` lists and `LIKE` patterns allocate what their
/// [`ColPredicate`] owns). [`parse`] and [`parse_query`] run one per thread.
#[derive(Debug, Default)]
pub struct Parser {
    tokens: Vec<Token<'static>>,
    terms: Vec<Term<'static>>,
    aliases: Aliases<'static>,
    fold: String,
}

impl Parser {
    /// [`parse_query`] into `out`, whose vectors are cleared and refilled.
    /// `out` holds no meaningful query after an error.
    pub fn parse_query(
        &mut self,
        db: &Database,
        sql: &str,
        out: &mut Query,
    ) -> Result<(), ParseError> {
        if self.parse(db, sql, out)?.is_some() {
            return err("placeholder '?' not allowed here; use parse() for templates");
        }
        Ok(())
    }

    /// [`parse`] into `out`, whose vectors are cleared and refilled; returns
    /// the placeholder. `out` holds no meaningful query after an error.
    pub fn parse(
        &mut self,
        db: &Database,
        sql: &str,
        out: &mut Query,
    ) -> Result<Option<(ColRef, CmpOp)>, ParseError> {
        // The buffers are empty between statements, so they lend themselves
        // to any statement's lifetime and come back through `recycle`.
        let mut statement = Statement {
            tokens: std::mem::take(&mut self.tokens),
            pos: 0,
            terms: std::mem::take(&mut self.terms),
            aliases: std::mem::take(&mut self.aliases),
            fold: &mut self.fold,
            db,
        };
        let result = statement.parse(sql, out);
        self.tokens = recycle(statement.tokens);
        self.terms = recycle(statement.terms);
        self.aliases = recycle(statement.aliases);
        result
    }
}

/// One statement being parsed, over the [`Parser`]'s buffers.
struct Statement<'a, 'p> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    terms: Vec<Term<'a>>,
    aliases: Aliases<'a>,
    fold: &'p mut String,
    db: &'p Database,
}

impl<'a> Statement<'a, '_> {
    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Whether the next token is the keyword `kw` (lower case).
    fn at_word(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn expect_word(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw) => Ok(()),
            other => err(format!("expected '{kw}', found {other:?}")),
        }
    }

    fn expect_symbol(&mut self, s: char) -> Result<(), ParseError> {
        match self.next() {
            Some(Token::Symbol(c)) if c == s => Ok(()),
            other => err(format!("expected '{s}', found {other:?}")),
        }
    }

    fn parse(
        &mut self,
        sql: &'a str,
        out: &mut Query,
    ) -> Result<Option<(ColRef, CmpOp)>, ParseError> {
        out.tables.clear();
        out.joins.clear();
        out.predicates.clear();
        tokenize(sql, &mut self.tokens)?;

        self.expect_word("select")?;
        self.expect_word("count")?;
        self.expect_symbol('(')?;
        self.expect_symbol('*')?;
        self.expect_symbol(')')?;
        self.expect_word("from")?;

        // FROM list with optional aliases.
        loop {
            let name = match self.next() {
                Some(Token::Word(w)) => w,
                other => return err(format!("expected table name, found {other:?}")),
            };
            let tid = self.db.table_id(folded(name, self.fold)).ok_or_else(|| {
                ParseError(format!("unknown table '{}'", name.to_ascii_lowercase()))
            })?;
            if out.tables.contains(&tid) {
                return err(format!(
                    "table '{}' listed twice",
                    name.to_ascii_lowercase()
                ));
            }
            out.tables.push(tid);
            bind(&mut self.aliases, name, tid);
            // Optional alias: a word that is not WHERE.
            if let Some(Token::Word(alias)) = self.peek() {
                if !alias.eq_ignore_ascii_case("where") {
                    self.pos += 1;
                    if bind(&mut self.aliases, alias, tid).is_some_and(|old| old != tid) {
                        let alias = alias.to_ascii_lowercase();
                        return err(format!("alias '{alias}' is ambiguous"));
                    }
                }
            }
            if self.peek() != Some(Token::Symbol(',')) {
                break;
            }
            self.pos += 1;
        }

        // Optional WHERE with AND-separated terms.
        if self.at_word("where") {
            self.pos += 1;
            loop {
                self.parse_term()?;
                if !self.at_word("and") {
                    break;
                }
                self.pos += 1;
            }
        }
        if self.pos != self.tokens.len() {
            return err(format!("trailing tokens at {:?}", self.peek()));
        }

        self.assemble(out)
    }

    /// Parses one `AND`-separated term onto `terms` (`BETWEEN` makes two).
    fn parse_term(&mut self) -> Result<(), ParseError> {
        let lhs = self.parse_rawcol()?;
        // Inclusive BETWEEN desugars to an exclusive >/< pair (integers).
        if self.at_word("between") {
            self.pos += 1;
            let lo = self.expect_number()?;
            self.expect_word("and")?;
            let hi = self.expect_number()?;
            if lo > hi {
                return err(format!("empty BETWEEN range {lo}..{hi}"));
            }
            let lo_excl = lo
                .checked_sub(1)
                .ok_or_else(|| ParseError("BETWEEN lower bound overflow".into()))?;
            let hi_excl = hi
                .checked_add(1)
                .ok_or_else(|| ParseError("BETWEEN upper bound overflow".into()))?;
            self.terms.push(Term::Pred(lhs, CmpOp::Gt, lo_excl));
            self.terms.push(Term::Pred(lhs, CmpOp::Lt, hi_excl));
            return Ok(());
        }
        // IN-list: `col IN (v1, v2, …)` — non-empty, integers only.
        if self.at_word("in") {
            self.pos += 1;
            self.expect_symbol('(')?;
            let mut values = Vec::new();
            loop {
                values.push(self.expect_number()?);
                match self.next() {
                    Some(Token::Symbol(',')) => {}
                    Some(Token::Symbol(')')) => break,
                    other => {
                        return err(format!("expected ',' or ')' in IN list, found {other:?}"))
                    }
                }
            }
            self.terms.push(Term::InList(lhs, values));
            return Ok(());
        }
        // LIKE: `col LIKE 'pattern'` — pattern is a string literal.
        if self.at_word("like") {
            self.pos += 1;
            match self.next() {
                Some(Token::Str(pat)) => self.terms.push(Term::LikePat(lhs, pat)),
                other => {
                    return err(format!(
                        "expected quoted pattern after LIKE, found {other:?}"
                    ))
                }
            }
            return Ok(());
        }
        let op = match self.next() {
            Some(Token::Symbol('=')) => CmpOp::Eq,
            Some(Token::Symbol('<')) => CmpOp::Lt,
            Some(Token::Symbol('>')) => CmpOp::Gt,
            other => return err(format!("expected comparison operator, found {other:?}")),
        };
        match self.peek() {
            Some(Token::Number(n)) => {
                self.pos += 1;
                self.terms.push(Term::Pred(lhs, op, n));
            }
            Some(Token::Symbol('?')) => {
                self.pos += 1;
                self.terms.push(Term::Placeholder(lhs, op));
            }
            Some(Token::Word(_)) => {
                let rhs = self.parse_rawcol()?;
                if op != CmpOp::Eq {
                    return err("joins must use '='");
                }
                self.terms.push(Term::Join(lhs, rhs));
            }
            Some(Token::Str(_)) => return err("string literals are only allowed after LIKE"),
            other => return err(format!("expected literal, '?', or column, found {other:?}")),
        }
        Ok(())
    }

    fn expect_number(&mut self) -> Result<i64, ParseError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            other => err(format!("expected integer literal, found {other:?}")),
        }
    }

    fn parse_rawcol(&mut self) -> Result<RawCol<'a>, ParseError> {
        let qualifier = match self.next() {
            Some(Token::Word(w)) => w,
            other => return err(format!("expected column reference, found {other:?}")),
        };
        self.expect_symbol('.')?;
        let column = match self.next() {
            Some(Token::Word(w)) => w,
            other => return err(format!("expected column name after '.', found {other:?}")),
        };
        Ok(RawCol { qualifier, column })
    }

    /// Resolves the terms against the `FROM` list's names, in order, into
    /// `out`'s joins and predicates.
    fn assemble(&mut self, out: &mut Query) -> Result<Option<(ColRef, CmpOp)>, ParseError> {
        let Self {
            terms,
            aliases,
            fold,
            db,
            ..
        } = self;
        let mut resolve = |rc: RawCol<'_>| -> Result<ColRef, ParseError> {
            let tid = aliases
                .iter()
                .find(|(bound, _)| bound.eq_ignore_ascii_case(rc.qualifier))
                .map(|&(_, tid)| tid)
                .ok_or_else(|| {
                    ParseError(format!(
                        "unknown table or alias '{}'",
                        rc.qualifier.to_ascii_lowercase()
                    ))
                })?;
            let table = db.table(tid);
            let col = table.column_index(folded(rc.column, fold)).ok_or_else(|| {
                ParseError(format!(
                    "unknown column '{}' of table '{}'",
                    rc.column.to_ascii_lowercase(),
                    table.name()
                ))
            })?;
            Ok(ColRef::new(tid, col))
        };
        let mut placeholder = None;
        for term in terms.drain(..) {
            match term {
                Term::Join(l, r) => {
                    let lc = resolve(l)?;
                    let rc = resolve(r)?;
                    if lc.table == rc.table {
                        return err("self-joins are not supported");
                    }
                    out.joins.push(JoinEdge::new(lc, rc).canonical());
                }
                Term::Pred(c, op, lit) => {
                    let cr = resolve(c)?;
                    out.predicates
                        .push((cr.table, ColPredicate::new(cr.col, op, lit)));
                }
                Term::InList(c, values) => {
                    let cr = resolve(c)?;
                    out.predicates
                        .push((cr.table, ColPredicate::is_in(cr.col, values)));
                }
                Term::LikePat(c, pat) => {
                    let cr = resolve(c)?;
                    out.predicates
                        .push((cr.table, ColPredicate::like(cr.col, pat)));
                }
                Term::Placeholder(c, op) => {
                    if placeholder.is_some() {
                        return err("only one '?' placeholder is supported");
                    }
                    placeholder = Some((resolve(c)?, op));
                }
            }
        }
        Ok(placeholder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sqlgen::to_sql;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    fn db() -> Database {
        imdb_database(&ImdbConfig::tiny(1))
    }

    #[test]
    fn parses_the_papers_example() {
        let db = db();
        let sql = "SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k";
        // `keyword` does not exist in our schema; adapt the paper's example.
        let _ = sql;
        let parsed = parse(
            &db,
            "SELECT COUNT(*) FROM title t, movie_keyword mk \
             WHERE mk.movie_id = t.id AND mk.keyword_id = 11 AND t.production_year = ?",
        )
        .unwrap();
        assert_eq!(parsed.query.tables.len(), 2);
        assert_eq!(parsed.query.num_joins(), 1);
        assert_eq!(parsed.query.num_predicates(), 1);
        let (cr, op) = parsed.placeholder.unwrap();
        assert_eq!(db.col_name(cr), "title.production_year");
        assert_eq!(op, CmpOp::Eq);
    }

    #[test]
    fn roundtrips_generated_sql() {
        let db = db();
        let mut q = Query::new();
        q.add_table(&db, "title").unwrap();
        q.add_table(&db, "movie_info").unwrap();
        q.add_predicate(&db, "movie_info.info_type_id", CmpOp::Lt, 50)
            .unwrap();
        q.add_predicate(&db, "title.production_year", CmpOp::Gt, 1990)
            .unwrap();
        let sql = to_sql(&db, &q);
        let parsed = parse_query(&db, &sql).unwrap();
        assert_eq!(parsed, q);
    }

    #[test]
    fn case_insensitive_keywords_and_whitespace() {
        let db = db();
        let q = parse_query(
            &db,
            "select   Count( * )\nFROM title\nwhere title.kind_id > 2",
        )
        .unwrap();
        assert_eq!(q.tables.len(), 1);
        assert_eq!(q.num_predicates(), 1);
    }

    #[test]
    fn negative_literals() {
        let db = db();
        let q = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id > -5").unwrap();
        assert_eq!(q.predicates[0].1.as_cmp(), Some((CmpOp::Gt, -5)));
    }

    #[test]
    fn parses_in_list_and_canonicalizes() {
        let db = db();
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.kind_id IN (5, 2, 5, 3)",
        )
        .unwrap();
        assert_eq!(q.num_predicates(), 1);
        assert_eq!(q.predicates[0].1, ColPredicate::is_in(1, vec![2, 3, 5]));
        // Canonical re-rendering sorts and dedups the list.
        assert_eq!(
            to_sql(&db, &q),
            "SELECT COUNT(*) FROM title WHERE title.kind_id IN (2, 3, 5)"
        );
    }

    #[test]
    fn parses_like_pattern_verbatim() {
        let db = db();
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title t WHERE t.production_year LIKE '19%'",
        )
        .unwrap();
        assert_eq!(q.num_predicates(), 1);
        assert_eq!(q.predicates[0].1, ColPredicate::like(2, "19%"));
        // Pattern case is preserved even though keywords fold.
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.kind_id like '_2'",
        )
        .unwrap();
        assert_eq!(q.predicates[0].1, ColPredicate::like(1, "_2"));
    }

    #[test]
    fn rejects_malformed_in_and_like() {
        let db = db();
        for bad in [
            "SELECT COUNT(*) FROM title WHERE title.kind_id IN ()",
            "SELECT COUNT(*) FROM title WHERE title.kind_id IN (1,)",
            "SELECT COUNT(*) FROM title WHERE title.kind_id IN (1, 2",
            "SELECT COUNT(*) FROM title WHERE title.kind_id IN 1",
            "SELECT COUNT(*) FROM title WHERE title.kind_id IN ('a')",
            "SELECT COUNT(*) FROM title WHERE title.kind_id LIKE 19",
            "SELECT COUNT(*) FROM title WHERE title.kind_id LIKE '19",
            "SELECT COUNT(*) FROM title WHERE title.kind_id LIKE",
            "SELECT COUNT(*) FROM title WHERE title.kind_id = '2'",
        ] {
            assert!(parse(&db, bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn rejects_malformed() {
        let db = db();
        for bad in [
            "SELECT * FROM title",
            "SELECT COUNT(*) FROM nonexistent",
            "SELECT COUNT(*) FROM title, title",
            "SELECT COUNT(*) FROM title WHERE title.nope = 1",
            "SELECT COUNT(*) FROM title WHERE bogus.kind_id = 1",
            "SELECT COUNT(*) FROM title WHERE title.kind_id != 1",
            "SELECT COUNT(*) FROM title t WHERE t.id < t.kind_id", // col-col non-join
            "SELECT COUNT(*) FROM title WHERE title.kind_id = 1 OR title.kind_id = 2",
            "SELECT COUNT(*) FROM title WHERE title.kind_id = ? AND title.production_year = ?",
        ] {
            assert!(parse(&db, bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn rejects_self_join() {
        let db = db();
        let r = parse(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.id = title.kind_id",
        );
        assert!(r.is_err());
    }

    #[test]
    fn parse_query_rejects_placeholder() {
        let db = db();
        let r = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = ?");
        assert!(r.is_err());
    }

    #[test]
    fn alias_and_full_name_both_resolve() {
        let db = db();
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title t WHERE title.kind_id = 1 AND t.production_year > 2000",
        )
        .unwrap();
        assert_eq!(q.num_predicates(), 2);
    }

    #[test]
    fn between_desugars_to_range_pair() {
        let db = db();
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year BETWEEN 1990 AND 1999",
        )
        .unwrap();
        assert_eq!(q.num_predicates(), 2);
        let preds: Vec<_> = q
            .predicates
            .iter()
            .filter_map(|(_, p)| p.as_cmp())
            .collect();
        assert!(preds.contains(&(CmpOp::Gt, 1989)));
        assert!(preds.contains(&(CmpOp::Lt, 2000)));
        // Inclusive semantics: equivalent to >= 1990 AND <= 1999.
        assert!(parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year BETWEEN 2000 AND 1990",
        )
        .is_err());
        assert!(parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year BETWEEN 1990",
        )
        .is_err());
    }

    #[test]
    fn a_reused_parser_decides_like_a_fresh_one() {
        let db = db();
        // Each statement parses over the buffers the one before left behind,
        // whichever way that one ended: accepted, a lexical error, a syntax
        // error with terms already collected, a name that does not resolve.
        let statements = [
            "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id = t.id AND t.kind_id < 3",
            "SELECT COUNT(*) FROM title WHERE title.kind_id = 1 AND title.kind_id = #",
            "SELECT COUNT(*) FROM title WHERE title.kind_id IN (4, 2) AND title.kind_id LIKE '1%' AND",
            "SELECT COUNT(*) FROM title t WHERE t.kind_id IN (1, 2, 3) AND nope.kind_id = 1",
            "SELECT COUNT(*) FROM Title T WHERE T.Kind_Id = ? AND TITLE.production_year BETWEEN 1990 AND 1999",
            "SELECT COUNT(*) FROM title",
        ];
        let mut parser = Parser::default();
        let mut query = Query::default();
        for sql in statements.iter().chain(statements.iter().rev()) {
            let reused = parser
                .parse(&db, sql, &mut query)
                .map(|placeholder| ParsedQuery {
                    query: query.clone(),
                    placeholder,
                });
            let mut fresh = Query::default();
            let fresh = Parser::default()
                .parse(&db, sql, &mut fresh)
                .map(|placeholder| ParsedQuery {
                    query: fresh,
                    placeholder,
                });
            assert_eq!(reused, fresh, "sql: {sql}");
            assert_eq!(reused, parse(&db, sql), "sql: {sql}");
        }
    }

    #[test]
    fn messages_show_words_folded_to_lower_case() {
        let db = db();
        for (sql, message) in [
            (
                "SELECT COUNT(*) FROM Title Trailing Tokens",
                "trailing tokens at Some(Word(\"tokens\"))",
            ),
            ("SELECT COUNT(*) FROM NoSuch", "unknown table 'nosuch'"),
            (
                "SELECT COUNT(*) FROM title, TITLE",
                "table 'title' listed twice",
            ),
            (
                "SELECT COUNT(*) FROM title X, movie_keyword x",
                "alias 'x' is ambiguous",
            ),
            (
                "SELECT COUNT(*) FROM title WHERE Other.kind_id = 1",
                "unknown table or alias 'other'",
            ),
            (
                "SELECT COUNT(*) FROM title WHERE title.Kind = 1",
                "unknown column 'kind' of table 'title'",
            ),
            (
                "SELECT COUNT(*) FROM title WHERE title.kind_id LIKE Pattern",
                "expected quoted pattern after LIKE, found Some(Word(\"pattern\"))",
            ),
            // String literals are shown as written.
            (
                "SELECT COUNT(*) FROM title WHERE title.kind_id 'Ab'",
                "expected comparison operator, found Some(Str(\"Ab\"))",
            ),
        ] {
            assert_eq!(parse(&db, sql), Err(ParseError(message.into())), "{sql}");
        }
    }

    #[test]
    fn trailing_semicolon_ok() {
        let db = db();
        assert!(parse_query(&db, "SELECT COUNT(*) FROM title;").is_ok());
    }
}
