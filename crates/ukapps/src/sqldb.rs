//! A SQLite-style embedded SQL database.
//!
//! Implements the SQL subset the paper's evaluation needs — `CREATE
//! TABLE`, `INSERT`, `SELECT` (with `WHERE col = value`), `DELETE` — with
//! a real tokenizer and recursive-descent parser. Every inserted record
//! is allocated from a `ukalloc` backend, which is why Figure 16's
//! allocator comparison (tinyalloc fast below ~1000 queries, mimalloc
//! winning under load) reproduces: 60k inserts mean 60k live allocator
//! blocks plus index churn.

use std::collections::{BTreeMap, HashMap};

use ukalloc::{Allocator, GpAddr};
use ukplat::{Errno, Result};

/// A SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// INTEGER.
    Int(i64),
    /// TEXT.
    Text(String),
    /// NULL.
    Null,
}

impl Value {
    fn encoded_size(&self) -> usize {
        match self {
            Value::Int(_) => 8,
            Value::Text(s) => s.len() + 4,
            Value::Null => 1,
        }
    }
}

/// Tokenizer output.
#[derive(Debug, Clone, PartialEq)]
enum Token {
    Word(String),
    Int(i64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Star,
    Eq,
    Semi,
}

fn tokenize(sql: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = sql.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semi);
                i += 1;
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(Errno::Inval);
                }
                tokens.push(Token::Str(sql[start..j].to_string()));
                i = j + 1;
            }
            '-' | '0'..='9' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = sql[start..i].parse().map_err(|_| Errno::Inval)?;
                tokens.push(Token::Int(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Word(sql[start..i].to_string()));
            }
            _ => return Err(Errno::Inval),
        }
    }
    Ok(tokens)
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// CREATE TABLE name (col, …)
    CreateTable {
        /// Table name.
        name: String,
        /// Column names.
        columns: Vec<String>,
    },
    /// INSERT INTO name VALUES (v, …)
    Insert {
        /// Table name.
        table: String,
        /// Row values.
        values: Vec<Value>,
    },
    /// SELECT cols FROM name [WHERE col = value]
    Select {
        /// Table name.
        table: String,
        /// Columns (empty = `*`).
        columns: Vec<String>,
        /// Optional equality filter.
        filter: Option<(String, Value)>,
    },
    /// DELETE FROM name WHERE col = value
    Delete {
        /// Table name.
        table: String,
        /// Equality filter.
        filter: (String, Value),
    },
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self.tokens.get(self.pos).cloned().ok_or(Errno::Inval)?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_word(&mut self, kw: &str) -> Result<()> {
        match self.next()? {
            Token::Word(w) if w.eq_ignore_ascii_case(kw) => Ok(()),
            _ => Err(Errno::Inval),
        }
    }

    fn word(&mut self) -> Result<String> {
        match self.next()? {
            Token::Word(w) => Ok(w),
            _ => Err(Errno::Inval),
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.next()? {
            Token::Int(n) => Ok(Value::Int(n)),
            Token::Str(s) => Ok(Value::Text(s)),
            Token::Word(w) if w.eq_ignore_ascii_case("null") => Ok(Value::Null),
            _ => Err(Errno::Inval),
        }
    }

    fn expect(&mut self, t: Token) -> Result<()> {
        if self.next()? == t {
            Ok(())
        } else {
            Err(Errno::Inval)
        }
    }
}

/// Parses one SQL statement.
pub fn parse(sql: &str) -> Result<Statement> {
    let mut p = Parser {
        tokens: tokenize(sql)?,
        pos: 0,
    };
    let head = p.word()?;
    let stmt = if head.eq_ignore_ascii_case("create") {
        p.expect_word("table")?;
        let name = p.word()?;
        p.expect(Token::LParen)?;
        let mut columns = vec![p.word()?];
        while p.peek() == Some(&Token::Comma) {
            p.next()?;
            columns.push(p.word()?);
        }
        p.expect(Token::RParen)?;
        Statement::CreateTable { name, columns }
    } else if head.eq_ignore_ascii_case("insert") {
        p.expect_word("into")?;
        let table = p.word()?;
        p.expect_word("values")?;
        p.expect(Token::LParen)?;
        let mut values = vec![p.value()?];
        while p.peek() == Some(&Token::Comma) {
            p.next()?;
            values.push(p.value()?);
        }
        p.expect(Token::RParen)?;
        Statement::Insert { table, values }
    } else if head.eq_ignore_ascii_case("select") {
        let mut columns = Vec::new();
        if p.peek() == Some(&Token::Star) {
            p.next()?;
        } else {
            columns.push(p.word()?);
            while p.peek() == Some(&Token::Comma) {
                p.next()?;
                columns.push(p.word()?);
            }
        }
        p.expect_word("from")?;
        let table = p.word()?;
        let filter = if matches!(p.peek(), Some(Token::Word(w)) if w.eq_ignore_ascii_case("where"))
        {
            p.next()?;
            let col = p.word()?;
            p.expect(Token::Eq)?;
            Some((col, p.value()?))
        } else {
            None
        };
        Statement::Select {
            table,
            columns,
            filter,
        }
    } else if head.eq_ignore_ascii_case("delete") {
        p.expect_word("from")?;
        let table = p.word()?;
        p.expect_word("where")?;
        let col = p.word()?;
        p.expect(Token::Eq)?;
        let v = p.value()?;
        Statement::Delete {
            table,
            filter: (col, v),
        }
    } else {
        return Err(Errno::Inval);
    };
    Ok(stmt)
}

struct Row {
    values: Vec<Value>,
    gp: GpAddr,
}

struct Table {
    columns: Vec<String>,
    rows: BTreeMap<u64, Row>,
    next_rowid: u64,
}

/// The database engine.
pub struct SqlDb {
    tables: HashMap<String, Table>,
    alloc: Box<dyn Allocator>,
}

impl std::fmt::Debug for SqlDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SqlDb")
            .field("tables", &self.tables.len())
            .finish()
    }
}

impl SqlDb {
    /// Creates an empty database over an initialized allocator.
    pub fn new(alloc: Box<dyn Allocator>) -> Self {
        SqlDb {
            tables: HashMap::new(),
            alloc,
        }
    }

    /// Executes one statement; returns result rows (SELECT) or empty.
    pub fn execute(&mut self, sql: &str) -> Result<Vec<Vec<Value>>> {
        match parse(sql)? {
            Statement::CreateTable { name, columns } => {
                if self.tables.contains_key(&name) {
                    return Err(Errno::Exist);
                }
                self.tables.insert(
                    name,
                    Table {
                        columns,
                        rows: BTreeMap::new(),
                        next_rowid: 1,
                    },
                );
                Ok(Vec::new())
            }
            Statement::Insert { table, values } => {
                let size: usize = values.iter().map(Value::encoded_size).sum();
                // The record's backing store comes from ukalloc.
                let gp = self.alloc.malloc(size.max(16)).ok_or(Errno::NoMem)?;
                let t = self.tables.get_mut(&table).ok_or(Errno::NoEnt)?;
                if values.len() != t.columns.len() {
                    self.alloc.free(gp);
                    return Err(Errno::Inval);
                }
                let rowid = t.next_rowid;
                t.next_rowid += 1;
                t.rows.insert(rowid, Row { values, gp });
                Ok(Vec::new())
            }
            Statement::Select {
                table,
                columns,
                filter,
            } => {
                let t = self.tables.get(&table).ok_or(Errno::NoEnt)?;
                let col_idx: Vec<usize> = if columns.is_empty() {
                    (0..t.columns.len()).collect()
                } else {
                    columns
                        .iter()
                        .map(|c| {
                            t.columns
                                .iter()
                                .position(|tc| tc == c)
                                .ok_or(Errno::Inval)
                        })
                        .collect::<Result<_>>()?
                };
                let filter_idx = match &filter {
                    Some((col, v)) => Some((
                        t.columns
                            .iter()
                            .position(|tc| tc == col)
                            .ok_or(Errno::Inval)?,
                        v.clone(),
                    )),
                    None => None,
                };
                let mut out = Vec::new();
                for row in t.rows.values() {
                    if let Some((fi, fv)) = &filter_idx {
                        if &row.values[*fi] != fv {
                            continue;
                        }
                    }
                    out.push(col_idx.iter().map(|&i| row.values[i].clone()).collect());
                }
                Ok(out)
            }
            Statement::Delete { table, filter } => {
                let t = self.tables.get_mut(&table).ok_or(Errno::NoEnt)?;
                let fi = t
                    .columns
                    .iter()
                    .position(|tc| *tc == filter.0)
                    .ok_or(Errno::Inval)?;
                let victims: Vec<u64> = t
                    .rows
                    .iter()
                    .filter(|(_, r)| r.values[fi] == filter.1)
                    .map(|(id, _)| *id)
                    .collect();
                let mut freed = Vec::new();
                for id in victims {
                    if let Some(row) = t.rows.remove(&id) {
                        freed.push(row.gp);
                    }
                }
                for gp in freed {
                    self.alloc.free(gp);
                }
                Ok(Vec::new())
            }
        }
    }

    /// Rows stored in a table.
    pub fn row_count(&self, table: &str) -> usize {
        self.tables.get(table).map(|t| t.rows.len()).unwrap_or(0)
    }

    /// Allocator statistics.
    pub fn alloc_stats(&self) -> ukalloc::AllocStats {
        self.alloc.stats()
    }

    /// Runs the paper's insert workload: `n` single-row inserts into a
    /// fresh `kv` table (Figure 17's "60k SQLite insertions").
    pub fn insert_workload(&mut self, n: u64) -> Result<()> {
        self.execute("CREATE TABLE kv (id, body)")?;
        for i in 0..n {
            let stmt = format!("INSERT INTO kv VALUES ({i}, 'value-{i}-padding-padding')");
            self.execute(&stmt)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukalloc::AllocBackend;

    fn db() -> SqlDb {
        let mut a = AllocBackend::Tlsf.instantiate();
        a.init(1 << 22, 64 << 20).unwrap();
        SqlDb::new(a)
    }

    #[test]
    fn tokenizer_handles_strings_and_ints() {
        let t = tokenize("INSERT INTO t VALUES (42, 'hi there')").unwrap();
        assert!(t.contains(&Token::Int(42)));
        assert!(t.contains(&Token::Str("hi there".into())));
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let mut db = db();
        db.execute("CREATE TABLE users (id, name)").unwrap();
        db.execute("INSERT INTO users VALUES (1, 'ada')").unwrap();
        db.execute("INSERT INTO users VALUES (2, 'grace')").unwrap();
        let rows = db.execute("SELECT * FROM users").unwrap();
        assert_eq!(rows.len(), 2);
        let rows = db
            .execute("SELECT name FROM users WHERE id = 2")
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Text("grace".into())]]);
    }

    #[test]
    fn select_with_column_projection() {
        let mut db = db();
        db.execute("CREATE TABLE t (a, b, c)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x', 9)").unwrap();
        let rows = db.execute("SELECT c, a FROM t").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(9), Value::Int(1)]]);
    }

    #[test]
    fn delete_frees_record_memory() {
        let mut db = db();
        db.execute("CREATE TABLE t (k)").unwrap();
        db.execute("INSERT INTO t VALUES (7)").unwrap();
        let live_before = db.alloc_stats().live();
        db.execute("DELETE FROM t WHERE k = 7").unwrap();
        assert_eq!(db.row_count("t"), 0);
        assert_eq!(db.alloc_stats().live(), live_before - 1);
    }

    #[test]
    fn errors_are_reported() {
        let mut db = db();
        assert_eq!(db.execute("DROP TABLE x").unwrap_err(), Errno::Inval);
        assert_eq!(
            db.execute("INSERT INTO nope VALUES (1)").unwrap_err(),
            Errno::NoEnt
        );
        db.execute("CREATE TABLE t (a)").unwrap();
        assert_eq!(
            db.execute("INSERT INTO t VALUES (1, 2)").unwrap_err(),
            Errno::Inval
        );
        assert_eq!(
            db.execute("CREATE TABLE t (x)").unwrap_err(),
            Errno::Exist
        );
    }

    #[test]
    fn insert_workload_allocates_per_row() {
        let mut db = db();
        db.insert_workload(1000).unwrap();
        assert_eq!(db.row_count("kv"), 1000);
        assert_eq!(db.alloc_stats().live(), 1000);
    }

    #[test]
    fn wrong_where_column_is_error() {
        let mut db = db();
        db.execute("CREATE TABLE t (a)").unwrap();
        assert_eq!(
            db.execute("SELECT * FROM t WHERE b = 1").unwrap_err(),
            Errno::Inval
        );
    }
}
