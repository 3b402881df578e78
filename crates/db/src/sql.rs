//! A miniature SQL front-end over the mask algebra.
//!
//! Supports the canonical statement shape of §V.B —
//!
//! ```sql
//! SELECT col1, col2 FROM t WHERE f1 = 'v1' AND f2 IN ('a', 'b')
//! ```
//!
//! — parsed into [`Pred`] lists and executed as ⊗/⊕ mask algebra on the
//! exploded-schema [`AssocTable`] (and by scan on the [`RowTable`]
//! baseline). One connective kind per `WHERE` clause (all `AND` or all
//! `OR`), matching the paper's select discussion; compose queries for
//! anything fancier.
//!
//! Parse failures are typed [`SqlError`]s with byte positions and
//! expected-token detail; both executors return a [`ResultSet`], so the
//! duality checks compare engines with one `==`.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::SqlError;
use crate::query::{Pred, PredExpr, Select};
use crate::result::ResultSet;
use crate::{AssocTable, RowTable};

/// A parsed query.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Projected fields; `None` means `*`.
    pub projection: Option<Vec<String>>,
    /// Table name (uninterpreted — execution receives the table).
    pub table: String,
    /// WHERE predicates (empty = no filter).
    pub preds: Vec<Pred>,
    /// `true` for AND-connected predicates, `false` for OR.
    pub conjunctive: bool,
}

impl Query {
    /// The WHERE clause as one [`PredExpr`] tree (`None` when
    /// unfiltered) — the shape every [`Select`] engine evaluates.
    pub fn expr(&self) -> Option<PredExpr> {
        let (first, rest) = self.preds.split_first()?;
        let mut e = PredExpr::from(first.clone());
        for p in rest {
            e = if self.conjunctive {
                e.and(p.clone())
            } else {
                e.or(p.clone())
            };
        }
        Some(e)
    }
}

/// Parse one SQL statement.
pub fn parse(sql: &str) -> Result<Query, SqlError> {
    let toks = tokenize(sql)?;
    let mut t = Tokens { toks, pos: 0 };

    t.expect_kw("SELECT")?;
    let projection = if t.peek_is("*") {
        t.next_tok("column list")?;
        None
    } else {
        let mut cols = vec![t.ident()?];
        while t.peek_is(",") {
            t.next_tok("column")?;
            cols.push(t.ident()?);
        }
        Some(cols)
    };

    t.expect_kw("FROM")?;
    let table = t.ident()?;

    let mut preds = Vec::new();
    let mut conjunctive = true;
    if t.peek_kw("WHERE") {
        t.next_tok("WHERE")?;
        preds.push(parse_pred(&mut t)?);
        let mut connective: Option<bool> = None;
        loop {
            if t.peek_kw("AND") || t.peek_kw("OR") {
                let is_and = t.peek_kw("AND");
                match connective {
                    None => connective = Some(is_and),
                    Some(c) if c != is_and => {
                        return Err(SqlError::MixedConnectives {
                            position: t.peek_position(),
                        })
                    }
                    _ => {}
                }
                t.next_tok("connective")?;
                preds.push(parse_pred(&mut t)?);
            } else {
                break;
            }
        }
        conjunctive = connective.unwrap_or(true);
    }
    if t.pos != t.toks.len() {
        return Err(SqlError::TrailingTokens {
            position: t.peek_position(),
            found: t.toks[t.pos..]
                .iter()
                .map(|(_, s)| s.as_str())
                .collect::<Vec<_>>()
                .join(" "),
        });
    }
    Ok(Query {
        projection,
        table,
        preds,
        conjunctive,
    })
}

fn parse_pred(t: &mut Tokens) -> Result<Pred, SqlError> {
    let field = t.ident()?;
    if t.peek_is("=") {
        t.next_tok("=")?;
        Ok(Pred::Eq(field, t.string()?))
    } else if t.peek_kw("IN") {
        t.next_tok("IN")?;
        t.expect_tok("(")?;
        let mut vals = vec![t.string()?];
        while t.peek_is(",") {
            t.next_tok("value")?;
            vals.push(t.string()?);
        }
        t.expect_tok(")")?;
        Ok(Pred::In(field, vals))
    } else {
        match t.toks.get(t.pos) {
            Some((position, found)) => Err(SqlError::UnexpectedToken {
                position: *position,
                found: found.clone(),
                expected: "'=' or IN after field",
            }),
            None => Err(SqlError::UnexpectedEnd {
                expected: "'=' or IN after field",
            }),
        }
    }
}

/// The projected columns of `q` over the matched rows: the projection
/// list itself, or — for `SELECT *` — the sorted union of fields the
/// matched rows actually populate.
fn result_columns<'a>(
    q: &Query,
    matched: impl Iterator<Item = &'a BTreeMap<String, String>>,
) -> Vec<String> {
    match &q.projection {
        Some(p) => p.clone(),
        None => {
            let mut cols = BTreeSet::new();
            for cells in matched {
                cols.extend(cells.keys().cloned());
            }
            cols.into_iter().collect()
        }
    }
}

fn keep_field(q: &Query, field: &str) -> bool {
    match &q.projection {
        None => true,
        Some(p) => p.iter().any(|f| f == field),
    }
}

/// Execute against the associative-array table: the WHERE clause runs as
/// ⊗/⊕ mask algebra, projection as row extraction.
pub fn execute(q: &Query, table: &AssocTable) -> ResultSet {
    let ids = match q.expr() {
        None => table.all_ids(),
        Some(e) => table.select(&e),
    };
    let rows: Vec<(String, BTreeMap<String, String>)> = ids
        .into_iter()
        .map(|id| {
            let mut cells = BTreeMap::new();
            for (col, _) in table.array().row(&id) {
                let (field, value) = col.split_once('|').unwrap_or((col.as_str(), ""));
                if keep_field(q, field) {
                    cells.insert(field.to_string(), value.to_string());
                }
            }
            (id, cells)
        })
        .collect();
    let columns = result_columns(q, rows.iter().map(|(_, c)| c));
    ResultSet::from_rows(columns, rows)
}

/// Execute by scan against the row-store baseline. Returns the same
/// [`ResultSet`] shape as [`execute`], so `execute(q, &assoc) ==
/// execute_baseline(q, &rows)` is the whole duality check.
pub fn execute_baseline(q: &Query, table: &RowTable) -> ResultSet {
    let ids = match q.expr() {
        None => table.all_ids(),
        Some(e) => table.select(&e),
    };
    let by_id: std::collections::HashMap<&str, _> = table.iter().collect();
    let rows: Vec<(String, BTreeMap<String, String>)> = ids
        .into_iter()
        .map(|id| {
            let row = &by_id[id.as_str()];
            let cells = row
                .iter()
                .filter(|(f, _)| keep_field(q, f))
                .map(|(f, v)| (f.clone(), v.clone()))
                .collect();
            (id, cells)
        })
        .collect();
    let columns = result_columns(q, rows.iter().map(|(_, c)| c));
    ResultSet::from_rows(columns, rows)
}

/// Parse and execute in one step — the serving layer's SQL entry point.
pub fn try_execute(sql: &str, table: &AssocTable) -> Result<ResultSet, SqlError> {
    Ok(execute(&parse(sql)?, table))
}

/// Parse and execute against the row-store baseline in one step.
pub fn try_execute_baseline(sql: &str, table: &RowTable) -> Result<ResultSet, SqlError> {
    Ok(execute_baseline(&parse(sql)?, table))
}

// ---- lexer ----

#[derive(Debug)]
struct Tokens {
    /// `(byte offset, token text)` pairs.
    toks: Vec<(usize, String)>,
    pos: usize,
}

impl Tokens {
    fn next_tok(&mut self, expected: &'static str) -> Result<&str, SqlError> {
        let (_, t) = self
            .toks
            .get(self.pos)
            .ok_or(SqlError::UnexpectedEnd { expected })?;
        self.pos += 1;
        Ok(t)
    }
    fn peek_position(&self) -> usize {
        self.toks.get(self.pos).map_or(0, |(p, _)| *p)
    }
    fn peek_is(&self, sym: &str) -> bool {
        self.toks.get(self.pos).is_some_and(|(_, t)| t == sym)
    }
    fn peek_kw(&self, kw: &str) -> bool {
        self.toks
            .get(self.pos)
            .is_some_and(|(_, t)| t.eq_ignore_ascii_case(kw))
    }
    fn expect_kw(&mut self, kw: &'static str) -> Result<(), SqlError> {
        let position = self.peek_position();
        let t = self.next_tok(kw)?;
        if t.eq_ignore_ascii_case(kw) {
            Ok(())
        } else {
            Err(SqlError::UnexpectedToken {
                position,
                found: t.to_string(),
                expected: kw,
            })
        }
    }
    fn expect_tok(&mut self, sym: &'static str) -> Result<(), SqlError> {
        let position = self.peek_position();
        let t = self.next_tok(sym)?;
        if t == sym {
            Ok(())
        } else {
            Err(SqlError::UnexpectedToken {
                position,
                found: t.to_string(),
                expected: sym,
            })
        }
    }
    fn ident(&mut self) -> Result<String, SqlError> {
        let position = self.peek_position();
        let t = self.next_tok("identifier")?;
        if t.chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '.')
            && !t.is_empty()
        {
            Ok(t.to_string())
        } else {
            Err(SqlError::UnexpectedToken {
                position,
                found: t.to_string(),
                expected: "identifier",
            })
        }
    }
    fn string(&mut self) -> Result<String, SqlError> {
        let position = self.peek_position();
        let t = self.next_tok("'string literal'")?;
        t.strip_prefix('\'')
            .and_then(|x| x.strip_suffix('\''))
            .map(String::from)
            .ok_or_else(|| SqlError::UnexpectedToken {
                position,
                found: t.to_string(),
                expected: "'string literal'",
            })
    }
}

fn tokenize(sql: &str) -> Result<Vec<(usize, String)>, SqlError> {
    let mut out = Vec::new();
    let mut chars = sql.char_indices().peekable();
    while let Some(&(at, ch)) = chars.peek() {
        match ch {
            c if c.is_whitespace() => {
                chars.next();
            }
            ',' | '(' | ')' | '=' | '*' => {
                out.push((at, ch.to_string()));
                chars.next();
            }
            '\'' => {
                chars.next();
                let mut lit = String::from("'");
                loop {
                    match chars.next() {
                        Some((_, '\'')) => {
                            lit.push('\'');
                            break;
                        }
                        Some((_, c)) => lit.push(c),
                        None => return Err(SqlError::UnterminatedString { position: at }),
                    }
                }
                out.push((at, lit));
            }
            c if c.is_alphanumeric() || c == '_' || c == '.' => {
                let mut ident = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '.' {
                        ident.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((at, ident));
            }
            other => {
                return Err(SqlError::UnexpectedChar {
                    position: at,
                    found: other,
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{flows, FlowParams};

    fn tables() -> (AssocTable, RowTable) {
        let records = flows(
            FlowParams {
                n_records: 300,
                n_hosts: 20,
                skew: 1.0,
            },
            3,
        );
        (
            AssocTable::from_records(records.clone()),
            RowTable::from_records(records),
        )
    }

    #[test]
    fn parse_star_and_projection() {
        let q = parse("SELECT * FROM flows").unwrap();
        assert_eq!(q.projection, None);
        assert!(q.preds.is_empty());
        let q = parse("SELECT src, dst FROM flows").unwrap();
        assert_eq!(q.projection, Some(vec!["src".into(), "dst".into()]));
        assert_eq!(q.table, "flows");
    }

    #[test]
    fn utf8_input_keeps_byte_positions_and_never_splits_chars() {
        // Multi-byte UTF-8 inside a string literal round-trips through
        // the lexer without char-boundary panics.
        let q = parse("SELECT * FROM t WHERE src = 'héllo→世界'").unwrap();
        assert_eq!(q.preds[0], Pred::Eq("src".into(), "héllo→世界".into()));

        // An error *after* a multi-byte literal carries the true byte
        // offset (9 bytes of UTF-8 inside 'é→世' shift it past the char
        // count), and that offset is a valid char boundary.
        let sql = "SELECT * FROM t WHERE src = 'é→世' ;";
        match parse(sql).unwrap_err() {
            SqlError::UnexpectedChar { position, found } => {
                assert_eq!(found, ';');
                assert_eq!(position, sql.find(';').unwrap());
                assert!(sql.is_char_boundary(position));
            }
            other => panic!("expected UnexpectedChar, got {other:?}"),
        }

        // Trailing tokens after a multi-byte literal: same property.
        let sql = "SELECT * FROM t WHERE src = '日本' extra";
        match parse(sql).unwrap_err() {
            SqlError::TrailingTokens { position, found } => {
                assert_eq!(found, "extra");
                assert_eq!(position, sql.find("extra").unwrap());
            }
            other => panic!("expected TrailingTokens, got {other:?}"),
        }

        // An unterminated literal opened after multi-byte identifier
        // text points at its opening quote.
        let sql = "SELECT * FROM tä WHERE col = 'ope";
        match parse(sql).unwrap_err() {
            SqlError::UnterminatedString { position } => {
                assert_eq!(position, sql.find('\'').unwrap());
            }
            other => panic!("expected UnterminatedString, got {other:?}"),
        }
    }

    #[test]
    fn parse_where_clauses() {
        let q = parse("SELECT * FROM t WHERE src = '1.1.1.1' AND port = '443'").unwrap();
        assert!(q.conjunctive);
        assert_eq!(q.preds.len(), 2);
        let q = parse("SELECT * FROM t WHERE port = '80' OR port = '443'").unwrap();
        assert!(!q.conjunctive);
        let q = parse("SELECT * FROM t WHERE port IN ('22', '53')").unwrap();
        assert_eq!(
            q.preds[0],
            Pred::In("port".into(), vec!["22".into(), "53".into()])
        );
    }

    #[test]
    fn parse_errors_are_typed_and_positioned() {
        assert_eq!(
            parse("SELECT"),
            Err(SqlError::UnexpectedEnd {
                expected: "identifier"
            })
        );
        let mixed = parse("SELECT * FROM t WHERE a = 'x' OR b = 'y' AND c = 'z'").unwrap_err();
        assert_eq!(mixed, SqlError::MixedConnectives { position: 41 });
        let unquoted = parse("SELECT * FROM t WHERE a = unquoted").unwrap_err();
        assert_eq!(
            unquoted,
            SqlError::UnexpectedToken {
                position: 26,
                found: "unquoted".into(),
                expected: "'string literal'",
            }
        );
        let trailing = parse("SELECT * FROM t extra").unwrap_err();
        assert!(matches!(
            trailing,
            SqlError::TrailingTokens { position: 16, .. }
        ));
        let unterminated = parse("SELECT * FROM t WHERE a = 'oops").unwrap_err();
        assert_eq!(unterminated, SqlError::UnterminatedString { position: 26 });
        let bad_char = parse("SELECT * FROM t WHERE a = 'x' ; drop").unwrap_err();
        assert_eq!(
            bad_char,
            SqlError::UnexpectedChar {
                position: 30,
                found: ';'
            }
        );
    }

    #[test]
    fn execution_matches_baseline() {
        let (a, r) = tables();
        for sql in [
            "SELECT * FROM flows WHERE src = '1.1.1.1'",
            "SELECT dst FROM flows WHERE src = '1.1.1.1' AND port = '443'",
            "SELECT src, dst FROM flows WHERE port = '22' OR port = '53'",
            "SELECT * FROM flows WHERE port IN ('80', '8080')",
            "SELECT * FROM flows",
        ] {
            let q = parse(sql).unwrap();
            // ResultSets are id-sorted, so the duality check is one ==.
            assert_eq!(execute(&q, &a), execute_baseline(&q, &r), "{sql}");
        }
    }

    #[test]
    fn try_execute_threads_parse_errors() {
        let (a, r) = tables();
        assert!(try_execute("SELECT * FROM flows", &a).is_ok());
        assert!(matches!(
            try_execute("SELECT *", &a),
            Err(SqlError::UnexpectedEnd { .. })
        ));
        assert!(matches!(
            try_execute_baseline("SELECT *", &r),
            Err(SqlError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn projection_limits_fields() {
        let (a, _) = tables();
        let q = parse("SELECT dst FROM flows WHERE src = '1.1.1.1'").unwrap();
        let rows = execute(&q, &a);
        assert!(!rows.is_empty());
        assert_eq!(rows.columns(), ["dst".to_string()]);
        for row in &rows {
            assert!(row.cells().all(|(c, _)| c == "dst"));
            assert_eq!(row.len(), 1);
        }
        assert!(rows.column("dst").iter().all(Option::is_some));
    }

    #[test]
    fn star_columns_are_union_of_fields() {
        let (a, _) = tables();
        let q = parse("SELECT * FROM flows WHERE src = '1.1.1.1'").unwrap();
        let rows = execute(&q, &a);
        assert_eq!(
            rows.columns(),
            ["bytes", "dst", "port", "src"].map(String::from)
        );
    }

    #[test]
    fn case_insensitive_keywords() {
        let q = parse("select * from flows where port = '80'").unwrap();
        assert_eq!(q.preds.len(), 1);
    }
}
