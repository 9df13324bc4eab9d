//! A SQL-subset frontend: conjunctive `SELECT … FROM … WHERE` queries.
//!
//! The paper's algorithms order joins for *conjunctive queries*; this
//! module accepts them in their natural syntax and lowers them to the
//! same [`ParsedQuery`] the rest of the workspace consumes:
//!
//! ```sql
//! SELECT *
//! FROM customer /*+ rows=150000 */ c,
//!      orders   /*+ rows=1500000 */ o,
//!      lineitem /*+ rows=6000000 */ l
//! WHERE c.ck = o.ck        /*+ sel=6.7e-6 */
//!   AND o.ok = l.ok        /*+ sel=6.7e-7 */
//!   AND l.tax + o.rate = c.bracket   -- complex predicate → hyperedge
//!   AND c.region = 4       /*+ sel=0.25 */  -- filter: scales |customer|
//! ```
//!
//! Supported surface:
//!
//! * `SELECT *` (projection does not affect join ordering);
//! * `FROM table [alias]` list, with optional `/*+ rows=N */` hints
//!   (default 1 000 rows);
//! * `WHERE` as an `AND`-conjunction of equality predicates, each with
//!   an optional `/*+ sel=F */` hint (default 0.1);
//! * predicate sides are arbitrary `+ - * /` expressions over
//!   `alias.column` references and literals:
//!   * two disjoint, non-empty relation sets → a join predicate (a
//!     hyperedge when more than two relations are involved);
//!   * exactly one relation overall → a *filter*, folded into that
//!     relation's cardinality;
//! * `--` line comments and `/* … */` block comments.
//!
//! The lowering is deliberately lossy (column identity is discarded):
//! join ordering only needs the relation sets and the statistics.

use joinopt_cost::Catalog;
use joinopt_qgraph::hypergraph::Hypergraph;
use joinopt_qgraph::QueryGraph;
use joinopt_relset::RelSet;

use crate::parser::ParsedQuery;

/// Errors produced by the SQL frontend, with byte offsets into the
/// source for tooling.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexical problem (unterminated comment, stray character).
    Lex {
        /// Byte offset.
        at: usize,
        /// Description.
        message: String,
    },
    /// Structural problem (missing keyword, unexpected token).
    Syntax {
        /// Byte offset of the offending token.
        at: usize,
        /// Description.
        message: String,
    },
    /// An `alias.column` referenced an undeclared alias.
    UnknownAlias {
        /// Byte offset.
        at: usize,
        /// The alias.
        alias: String,
    },
    /// The same table alias was declared twice.
    DuplicateAlias {
        /// Byte offset.
        at: usize,
        /// The alias.
        alias: String,
    },
    /// A predicate references no relation at all, or the same relations
    /// on both sides.
    UnusablePredicate {
        /// Byte offset.
        at: usize,
        /// Description.
        message: String,
    },
    /// A hint value was malformed or out of domain.
    BadHint {
        /// Byte offset.
        at: usize,
        /// Description.
        message: String,
    },
    /// More than 64 relations.
    TooManyRelations {
        /// Number declared.
        n: usize,
    },
}

impl core::fmt::Display for SqlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SqlError::Lex { at, message } => write!(f, "byte {at}: {message}"),
            SqlError::Syntax { at, message } => write!(f, "byte {at}: {message}"),
            SqlError::UnknownAlias { at, alias } => {
                write!(f, "byte {at}: unknown table alias `{alias}`")
            }
            SqlError::DuplicateAlias { at, alias } => {
                write!(f, "byte {at}: duplicate table alias `{alias}`")
            }
            SqlError::UnusablePredicate { at, message } => write!(f, "byte {at}: {message}"),
            SqlError::BadHint { at, message } => write!(f, "byte {at}: {message}"),
            SqlError::TooManyRelations { n } => {
                write!(f, "{n} relations exceed the supported maximum of 64")
            }
        }
    }
}

impl std::error::Error for SqlError {}

/// Default base cardinality when a table carries no `rows` hint.
pub const DEFAULT_ROWS: f64 = 1_000.0;
/// Default predicate selectivity when no `sel` hint is given.
pub const DEFAULT_SEL: f64 = 0.1;

// ---------------------------------------------------------------- lexer

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Punct(char),
    /// `/*+ key=value … */`
    Hint(Vec<(String, f64)>),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    at: usize,
}

fn lex(src: &str) -> Result<Vec<Token>, SqlError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
        } else if c == '-' && bytes.get(i + 1) == Some(&b'-') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
        } else if c == '/' && bytes.get(i + 1) == Some(&b'*') {
            let start = i;
            let is_hint = bytes.get(i + 2) == Some(&b'+');
            let body_start = if is_hint { i + 3 } else { i + 2 };
            let Some(end) = src[body_start..].find("*/").map(|p| p + body_start) else {
                return Err(SqlError::Lex {
                    at: start,
                    message: "unterminated comment".into(),
                });
            };
            if is_hint {
                out.push(Token {
                    tok: Tok::Hint(parse_hint(&src[body_start..end], start)?),
                    at: start,
                });
            }
            i = end + 2;
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            out.push(Token {
                tok: Tok::Ident(src[start..i].to_string()),
                at: start,
            });
        } else if c.is_ascii_digit()
            || (c == '.' && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()))
        {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_digit()
                    || bytes[i] == b'.'
                    || bytes[i] == b'e'
                    || bytes[i] == b'E'
                    || ((bytes[i] == b'+' || bytes[i] == b'-')
                        && matches!(bytes.get(i - 1), Some(b'e') | Some(b'E'))))
            {
                i += 1;
            }
            let text = &src[start..i];
            let value: f64 = text.parse().map_err(|_| SqlError::Lex {
                at: start,
                message: format!("invalid number `{text}`"),
            })?;
            out.push(Token {
                tok: Tok::Number(value),
                at: start,
            });
        } else if "*,.=+-/();<>".contains(c) {
            out.push(Token {
                tok: Tok::Punct(c),
                at: i,
            });
            i += 1;
        } else {
            return Err(SqlError::Lex {
                at: i,
                message: format!("unexpected character `{c}`"),
            });
        }
    }
    Ok(out)
}

fn parse_hint(body: &str, at: usize) -> Result<Vec<(String, f64)>, SqlError> {
    let mut out = Vec::new();
    for piece in body.split_whitespace() {
        let Some((key, value)) = piece.split_once('=') else {
            return Err(SqlError::BadHint {
                at,
                message: format!("hint `{piece}` is not key=value"),
            });
        };
        let value: f64 = value.parse().map_err(|_| SqlError::BadHint {
            at,
            message: format!("hint `{key}` has non-numeric value `{value}`"),
        })?;
        out.push((key.to_ascii_lowercase(), value));
    }
    Ok(out)
}

// --------------------------------------------------------------- parser

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn at(&self) -> usize {
        self.peek().map_or(usize::MAX, |t| t.at)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        match self.next() {
            Some(Token {
                tok: Tok::Ident(w), ..
            }) if w.eq_ignore_ascii_case(kw) => Ok(()),
            Some(Token { at, .. }) => Err(SqlError::Syntax {
                at,
                message: format!("expected `{kw}`"),
            }),
            None => Err(SqlError::Syntax {
                at: usize::MAX,
                message: format!("expected `{kw}`, found end of input"),
            }),
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token { tok: Tok::Ident(w), .. }) if w.eq_ignore_ascii_case(kw))
    }

    fn take_hint(&mut self) -> Option<Vec<(String, f64)>> {
        if let Some(Token {
            tok: Tok::Hint(h), ..
        }) = self.peek()
        {
            let h = h.clone();
            self.pos += 1;
            Some(h)
        } else {
            None
        }
    }
}

struct TableDecl {
    alias: String,
    rows: f64,
    at: usize,
}

/// Whether `text` is conjunctive SQL rather than the native DSL: its
/// first significant line starts with `select` (case-insensitive).
/// Blank lines, `--` SQL comments and `#` DSL comments are skipped, so
/// either kind of file may lead with comments.
pub fn looks_like_sql(text: &str) -> bool {
    text.lines()
        .map(str::trim_start)
        .find(|l| !l.is_empty() && !l.starts_with("--") && !l.starts_with('#'))
        .is_some_and(|l| l.get(..6).is_some_and(|p| p.eq_ignore_ascii_case("select")))
}

/// Parses a conjunctive SQL query into a [`ParsedQuery`].
///
/// # Errors
///
/// Returns [`SqlError`] with a byte offset for lexical, syntactic and
/// semantic problems (unknown aliases, unusable predicates, bad hints).
pub fn parse_sql(src: &str) -> Result<ParsedQuery, SqlError> {
    let mut p = Parser {
        tokens: lex(src)?,
        pos: 0,
    };

    p.keyword("select")?;
    match p.next() {
        Some(Token {
            tok: Tok::Punct('*'),
            ..
        }) => {}
        Some(Token { at, .. }) => {
            return Err(SqlError::Syntax {
                at,
                message: "only `SELECT *` is supported (projection does not affect join order)"
                    .into(),
            })
        }
        None => {
            return Err(SqlError::Syntax {
                at: usize::MAX,
                message: "truncated query".into(),
            })
        }
    }
    p.keyword("from")?;

    // FROM list.
    let mut tables: Vec<TableDecl> = Vec::new();
    loop {
        let at = p.at();
        let Some(Token {
            tok: Tok::Ident(name),
            ..
        }) = p.next()
        else {
            return Err(SqlError::Syntax {
                at,
                message: "expected a table name".into(),
            });
        };
        let mut rows = DEFAULT_ROWS;
        if let Some(hints) = p.take_hint() {
            for (key, value) in hints {
                match key.as_str() {
                    "rows" if value >= 1.0 && value.is_finite() => rows = value,
                    "rows" => {
                        return Err(SqlError::BadHint {
                            at,
                            message: format!("rows={value} must be finite and ≥ 1"),
                        })
                    }
                    other => {
                        return Err(SqlError::BadHint {
                            at,
                            message: format!("unknown table hint `{other}`"),
                        })
                    }
                }
            }
        }
        // Optional alias (an identifier that is not a clause keyword).
        let alias = if matches!(p.peek(), Some(Token { tok: Tok::Ident(w), .. })
            if !w.eq_ignore_ascii_case("where"))
        {
            let Some(Token {
                tok: Tok::Ident(a), ..
            }) = p.next()
            else {
                unreachable!("peeked an identifier")
            };
            a
        } else {
            name.clone()
        };
        if tables.iter().any(|t| t.alias == alias) {
            return Err(SqlError::DuplicateAlias { at, alias });
        }
        tables.push(TableDecl { alias, rows, at });
        match p.peek() {
            Some(Token {
                tok: Tok::Punct(','),
                ..
            }) => {
                p.pos += 1;
            }
            _ => break,
        }
    }
    if tables.len() > 64 {
        return Err(SqlError::TooManyRelations { n: tables.len() });
    }

    let alias_index = |alias: &str| tables.iter().position(|t| t.alias == alias);

    // WHERE clause (optional — a pure cross product is rejected later by
    // the optimizer, but single-table queries are fine).
    let mut joins: Vec<(RelSet, RelSet, f64, usize)> = Vec::new();
    let mut filters: Vec<(usize, f64)> = Vec::new(); // (relation, selectivity)
    if p.is_keyword("where") {
        p.pos += 1;
        loop {
            let pred_at = p.at();
            let left = parse_expr_side(&mut p, &alias_index)?;
            match p.next() {
                Some(Token {
                    tok: Tok::Punct('='),
                    ..
                }) => {}
                Some(Token { at, .. }) => {
                    return Err(SqlError::Syntax {
                        at,
                        message: "only equality predicates are supported".into(),
                    })
                }
                None => {
                    return Err(SqlError::Syntax {
                        at: usize::MAX,
                        message: "truncated predicate".into(),
                    })
                }
            }
            let right = parse_expr_side(&mut p, &alias_index)?;
            let mut sel = DEFAULT_SEL;
            if let Some(hints) = p.take_hint() {
                for (key, value) in hints {
                    match key.as_str() {
                        "sel" if value > 0.0 && value <= 1.0 => sel = value,
                        "sel" => {
                            return Err(SqlError::BadHint {
                                at: pred_at,
                                message: format!("sel={value} must be in (0, 1]"),
                            })
                        }
                        other => {
                            return Err(SqlError::BadHint {
                                at: pred_at,
                                message: format!("unknown predicate hint `{other}`"),
                            })
                        }
                    }
                }
            }
            let all = left | right;
            if all.is_empty() {
                return Err(SqlError::UnusablePredicate {
                    at: pred_at,
                    message: "predicate references no relation".into(),
                });
            } else if all.is_singleton() {
                filters.push((all.min_index().expect("singleton"), sel));
            } else if left.is_empty() || right.is_empty() || left.overlaps(right) {
                return Err(SqlError::UnusablePredicate {
                    at: pred_at,
                    message: "join predicate must reference disjoint, non-empty relation sets on \
                         each side of `=`"
                        .into(),
                });
            } else {
                joins.push((left, right, sel, pred_at));
            }
            if p.is_keyword("and") {
                p.pos += 1;
            } else {
                break;
            }
        }
    }

    // Optional trailing semicolon, then end of input.
    if matches!(
        p.peek(),
        Some(Token {
            tok: Tok::Punct(';'),
            ..
        })
    ) {
        p.pos += 1;
    }
    if let Some(t) = p.peek() {
        return Err(SqlError::Syntax {
            at: t.at,
            message: "unexpected trailing input".into(),
        });
    }

    // Lower to hypergraph + catalog.
    let n = tables.len();
    let mut hypergraph = Hypergraph::new(n).map_err(|_| SqlError::TooManyRelations { n })?;
    let mut selectivities = Vec::with_capacity(joins.len());
    for &(l, r, sel, at) in &joins {
        match hypergraph.add_edge(l, r) {
            Ok(_) => selectivities.push(sel),
            Err(_) => {
                // Duplicate predicate over the same relation sets: fold
                // its selectivity into the existing edge (conjunction).
                let edge = joinopt_qgraph::Hyperedge::new(l, r);
                let id = hypergraph.edges().iter().position(|e| *e == edge).ok_or(
                    SqlError::UnusablePredicate {
                        at,
                        message: "unsupported duplicate predicate".into(),
                    },
                )?;
                selectivities[id] *= sel;
            }
        }
    }
    let graph = if hypergraph.num_complex_edges() == 0 {
        let mut g = QueryGraph::new(n).expect("size validated");
        for e in hypergraph.edges() {
            g.add_edge(
                e.u.min_index().expect("non-empty"),
                e.v.min_index().expect("non-empty"),
            )
            .expect("deduplicated");
        }
        Some(g)
    } else {
        None
    };

    let mut catalog = Catalog::with_shape(n, hypergraph.num_edges());
    for (i, t) in tables.iter().enumerate() {
        let mut rows = t.rows;
        for &(rel, sel) in &filters {
            if rel == i {
                rows *= sel;
            }
        }
        catalog
            .set_cardinality(i, rows.max(1.0))
            .map_err(|e| SqlError::BadHint {
                at: t.at,
                message: e.to_string(),
            })?;
    }
    for (id, &sel) in selectivities.iter().enumerate() {
        catalog
            .set_selectivity(id, sel.max(f64::MIN_POSITIVE))
            .map_err(|e| SqlError::BadHint {
                at: 0,
                message: e.to_string(),
            })?;
    }

    let names = tables.into_iter().map(|t| t.alias).collect();
    Ok(ParsedQuery::from_parts(hypergraph, graph, catalog, names))
}

/// Parses one side of an equality predicate: a `+ - * /` expression over
/// `alias.column` references and numeric literals. Returns the set of
/// referenced relations.
fn parse_expr_side(
    p: &mut Parser,
    alias_index: &dyn Fn(&str) -> Option<usize>,
) -> Result<RelSet, SqlError> {
    let mut rels = RelSet::EMPTY;
    let mut expect_operand = true;
    loop {
        if expect_operand {
            let at = p.at();
            match p.next() {
                Some(Token {
                    tok: Tok::Ident(alias),
                    at,
                }) => {
                    // Must be alias.column.
                    match p.next() {
                        Some(Token {
                            tok: Tok::Punct('.'),
                            ..
                        }) => {}
                        _ => {
                            return Err(SqlError::Syntax {
                                at,
                                message: format!(
                                    "expected `.column` after `{alias}` (bare identifiers \
                                     are not valid operands)"
                                ),
                            })
                        }
                    }
                    match p.next() {
                        Some(Token {
                            tok: Tok::Ident(_), ..
                        }) => {}
                        _ => {
                            return Err(SqlError::Syntax {
                                at,
                                message: "expected a column name after `.`".into(),
                            })
                        }
                    }
                    let Some(i) = alias_index(&alias) else {
                        return Err(SqlError::UnknownAlias { at, alias });
                    };
                    rels.insert(i);
                }
                Some(Token {
                    tok: Tok::Number(_),
                    ..
                }) => {}
                Some(Token {
                    tok: Tok::Punct('('),
                    ..
                }) => {
                    // Parenthesized sub-expression.
                    rels |= parse_expr_side(p, alias_index)?;
                    match p.next() {
                        Some(Token {
                            tok: Tok::Punct(')'),
                            ..
                        }) => {}
                        _ => {
                            return Err(SqlError::Syntax {
                                at,
                                message: "expected `)`".into(),
                            })
                        }
                    }
                }
                _ => {
                    return Err(SqlError::Syntax {
                        at,
                        message: "expected an operand (alias.column or literal)".into(),
                    })
                }
            }
            expect_operand = false;
        } else {
            match p.peek() {
                Some(Token {
                    tok: Tok::Punct(op),
                    ..
                }) if "+-*/".contains(*op) => {
                    p.pos += 1;
                    expect_operand = true;
                }
                _ => return Ok(rels),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TPCH_ISH: &str = "
        SELECT *
        FROM customer /*+ rows=150000 */ c,
             orders   /*+ rows=1500000 */ o,
             lineitem /*+ rows=6000000 */ l
        WHERE c.ck = o.ck /*+ sel=6.7e-6 */
          AND o.ok = l.ok /*+ sel=6.7e-7 */
    ";

    #[test]
    fn sql_is_sniffed_past_both_comment_styles() {
        let cases = [
            ("SELECT * FROM a", true),
            ("  select * from a", true),
            ("-- a SQL comment\n\nSelect * FROM a", true),
            ("# a DSL comment\nSELECT * FROM a", true),
            ("relation a 10", false),
            ("# select in a comment\nrelation a 10", false),
            ("-- select in a comment\nrelation a 10", false),
            ("selec", false),
            ("", false),
        ];
        for (text, sql) in cases {
            assert_eq!(looks_like_sql(text), sql, "{text:?}");
        }
    }

    #[test]
    fn parses_simple_join_query() {
        let q = parse_sql(TPCH_ISH).unwrap();
        assert!(q.is_simple());
        assert_eq!(q.names(), &["c", "o", "l"]);
        assert_eq!(q.catalog.cardinality(0), 150_000.0);
        assert!((q.catalog.selectivity(1) - 6.7e-7).abs() < 1e-18);
        let g = q.graph().unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(g.edge_between(0, 1).is_some());
        assert!(g.edge_between(1, 2).is_some());
    }

    #[test]
    fn optimizes_end_to_end() {
        use joinopt_core::{DpCcp, JoinOrderer};
        use joinopt_cost::Cout;
        let q = parse_sql(TPCH_ISH).unwrap();
        let r = DpCcp
            .optimize(q.graph().unwrap(), &q.catalog, &Cout)
            .unwrap();
        assert_eq!(r.tree.num_relations(), 3);
        assert!(q.render_tree(&r.tree).contains('⋈'));
    }

    #[test]
    fn table_without_alias_uses_its_name() {
        let q = parse_sql("SELECT * FROM nation, region WHERE nation.rk = region.rk").unwrap();
        assert_eq!(q.names(), &["nation", "region"]);
        assert_eq!(q.catalog.cardinality(0), DEFAULT_ROWS);
        assert_eq!(q.catalog.selectivity(0), DEFAULT_SEL);
    }

    #[test]
    fn complex_predicate_becomes_hyperedge() {
        let q =
            parse_sql("SELECT * FROM a, b, c WHERE a.x = b.x AND a.u + b.v = c.w /*+ sel=0.05 */")
                .unwrap();
        assert!(!q.is_simple());
        assert_eq!(q.hypergraph.num_complex_edges(), 1);
        assert_eq!(q.catalog.selectivity(1), 0.05);
    }

    #[test]
    fn filters_scale_cardinality() {
        let q = parse_sql(
            "SELECT * FROM a /*+ rows=1000 */, b WHERE a.x = b.x AND a.age = 42 /*+ sel=0.2 */",
        )
        .unwrap();
        assert_eq!(q.catalog.cardinality(0), 200.0);
        assert_eq!(q.catalog.cardinality(1), DEFAULT_ROWS);
        // Filter with an expression on both sides but one relation.
        let q2 = parse_sql("SELECT * FROM a WHERE a.x = a.y + 1 /*+ sel=0.5 */").unwrap();
        assert_eq!(q2.catalog.cardinality(0), 500.0);
    }

    #[test]
    fn duplicate_predicates_fold_selectivities() {
        let q = parse_sql(
            "SELECT * FROM a, b WHERE a.x = b.x /*+ sel=0.1 */ AND a.y = b.y /*+ sel=0.5 */",
        )
        .unwrap();
        assert_eq!(q.hypergraph.num_edges(), 1);
        assert!((q.catalog.selectivity(0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn comments_and_semicolon_ok() {
        let q =
            parse_sql("-- leading comment\nSELECT * FROM t /* block */ WHERE t.a = 1; ").unwrap();
        assert_eq!(q.names(), &["t"]);
    }

    #[test]
    fn parenthesized_expressions() {
        let q = parse_sql("SELECT * FROM a, b, c WHERE (a.x + b.y) * 2 = c.z").unwrap();
        assert_eq!(q.hypergraph.num_complex_edges(), 1);
    }

    #[test]
    fn error_unknown_alias() {
        let e = parse_sql("SELECT * FROM a WHERE ghost.x = a.y").unwrap_err();
        assert!(matches!(e, SqlError::UnknownAlias { alias, .. } if alias == "ghost"));
    }

    #[test]
    fn error_duplicate_alias() {
        let e = parse_sql("SELECT * FROM a t, b t").unwrap_err();
        assert!(matches!(e, SqlError::DuplicateAlias { .. }));
    }

    #[test]
    fn error_non_equality_predicate() {
        let e = parse_sql("SELECT * FROM a, b WHERE a.x < b.y").unwrap_err();
        assert!(matches!(e, SqlError::Syntax { .. }), "{e:?}");
    }

    #[test]
    fn error_overlapping_sides() {
        let e = parse_sql("SELECT * FROM a, b WHERE a.x + b.y = b.z").unwrap_err();
        assert!(matches!(e, SqlError::UnusablePredicate { .. }));
    }

    #[test]
    fn error_constant_predicate() {
        let e = parse_sql("SELECT * FROM a WHERE 1 = 2").unwrap_err();
        assert!(matches!(e, SqlError::UnusablePredicate { .. }));
    }

    #[test]
    fn error_projection_list() {
        let e = parse_sql("SELECT a.x FROM a").unwrap_err();
        assert!(matches!(e, SqlError::Syntax { .. }));
    }

    #[test]
    fn error_bad_hints() {
        assert!(matches!(
            parse_sql("SELECT * FROM a /*+ rows=0 */").unwrap_err(),
            SqlError::BadHint { .. }
        ));
        assert!(matches!(
            parse_sql("SELECT * FROM a, b WHERE a.x = b.y /*+ sel=2 */").unwrap_err(),
            SqlError::BadHint { .. }
        ));
        assert!(matches!(
            parse_sql("SELECT * FROM a /*+ rows */").unwrap_err(),
            SqlError::BadHint { .. }
        ));
        assert!(matches!(
            parse_sql("SELECT * FROM a /*+ pages=3 */").unwrap_err(),
            SqlError::BadHint { .. }
        ));
    }

    #[test]
    fn error_lexical() {
        assert!(matches!(
            parse_sql("SELECT * FROM a /* unterminated").unwrap_err(),
            SqlError::Lex { .. }
        ));
        assert!(matches!(
            parse_sql("SELECT * FROM a WHERE a.x = 1 ~ 2").unwrap_err(),
            SqlError::Lex { .. } | SqlError::Syntax { .. }
        ));
    }

    #[test]
    fn error_trailing_input() {
        let e = parse_sql("SELECT * FROM a; SELECT * FROM b").unwrap_err();
        assert!(matches!(e, SqlError::Syntax { .. }));
    }

    #[test]
    fn byte_offsets_are_meaningful() {
        let src = "SELECT * FROM a WHERE ghost.x = a.y";
        let e = parse_sql(src).unwrap_err();
        let SqlError::UnknownAlias { at, .. } = e else {
            panic!("wrong error kind");
        };
        assert_eq!(&src[at..at + 5], "ghost");
    }
}
