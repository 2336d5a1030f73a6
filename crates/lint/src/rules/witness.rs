//! RL-X001/RL-X002: static-vs-dynamic lock-order cross-check.
//!
//! `cargo test --features sanitize` runs the suite with instrumented
//! lock guards (`rocket-sanitize`): every acquisition records which
//! named locks were already held, building the *witnessed* edge set, and
//! each process dumps a witness JSON (`witness-<pid>.json` under
//! `$ROCKET_WITNESS_DIR`). `rocket-lint --witness PATH` (a file or a
//! directory of witness files, merged) compares that against the static
//! model from [`crate::rules::lock_order`]:
//!
//! - **RL-X001** — a static edge between two *witnessed* locks that was
//!   never observed at runtime: the static model is stale (an
//!   overapproximation worth a `lint:allow(RL-X001)` rationale at the
//!   edge's source line) or a suppression outlived the code it excused.
//!   Edges touching locks the test run never exercised are skipped —
//!   absence of evidence is not disagreement.
//! - **RL-X002** — a witnessed edge the static pass never derived: an
//!   analysis gap (unresolved call, dynamic dispatch, name drift
//!   between the `Mutex::named` label and the field). Hard failure at
//!   the witness file itself; fix the model or the label.
//!
//! The witness format is `{"schema": 1, "locks": [...], "edges":
//! [{"from": .., "to": ..}]}`, parsed by the minimal JSON reader below
//! (no serde in the lint crate).

use std::collections::BTreeSet;
use std::path::Path;

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::rules::emit;
use crate::rules::lock_order::static_edges;
use crate::source::SourceFile;

const RULE: &str = "lock-order";

/// Merged witness data from one or more sanitize runs.
#[derive(Debug, Default, Clone)]
pub struct Witness {
    pub locks: BTreeSet<String>,
    pub edges: BTreeSet<(String, String)>,
}

impl Witness {
    /// Loads a witness file, or merges every `*.json` in a directory.
    pub fn load(path: &Path) -> Result<Witness, String> {
        let mut w = Witness::default();
        if path.is_dir() {
            let mut files: Vec<_> = std::fs::read_dir(path)
                .map_err(|e| format!("read {}: {e}", path.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            files.sort();
            if files.is_empty() {
                return Err(format!(
                    "witness directory {} holds no .json files — did the sanitize \
                     run set ROCKET_WITNESS_DIR?",
                    path.display()
                ));
            }
            for f in files {
                w.merge_file(&f)?;
            }
        } else {
            w.merge_file(path)?;
        }
        Ok(w)
    }

    fn merge_file(&mut self, path: &Path) -> Result<(), String> {
        let src =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let value = Json::parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        let schema = value
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{}: missing \"schema\"", path.display()))?;
        if schema != 1 {
            return Err(format!(
                "{}: unsupported witness schema {schema} (expected 1)",
                path.display()
            ));
        }
        for lock in value.get("locks").and_then(Json::as_array).unwrap_or(&[]) {
            if let Some(s) = lock.as_str() {
                self.locks.insert(s.to_string());
            }
        }
        for edge in value.get("edges").and_then(Json::as_array).unwrap_or(&[]) {
            let (Some(from), Some(to)) = (
                edge.get("from").and_then(Json::as_str),
                edge.get("to").and_then(Json::as_str),
            ) else {
                return Err(format!("{}: edge without from/to", path.display()));
            };
            self.edges.insert((from.to_string(), to.to_string()));
        }
        Ok(())
    }
}

/// Cross-checks the static edge set against the witness. `witness_path`
/// is only used as the diagnostic location for RL-X002 (there is no
/// source line for an edge the model never derived); callers pass it
/// workspace-relative, like every other diagnostic path.
pub fn check(
    files: &[SourceFile],
    witness: &Witness,
    witness_path: &str,
    out: &mut Vec<Diagnostic>,
) {
    let graph = CallGraph::build(files);
    let edges = static_edges(&graph);
    let static_set: BTreeSet<(String, String)> = edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();

    for e in &edges {
        // Only edges whose *both* locks were exercised by the sanitize
        // run can be contradicted by it.
        if !witness.locks.contains(&e.from) || !witness.locks.contains(&e.to) {
            continue;
        }
        if !witness.edges.contains(&(e.from.clone(), e.to.clone())) {
            let Some(file) = files.get(e.file_idx) else {
                continue;
            };
            emit(
                out,
                file,
                "RL-X001",
                RULE,
                e.line,
                format!(
                    "static lock edge `{}` -> `{}` was never witnessed at runtime — \
                     stale model or dead suppression",
                    e.from, e.to
                ),
            );
        }
    }
    for (from, to) in &witness.edges {
        if !static_set.contains(&(from.clone(), to.clone())) {
            out.push(Diagnostic {
                code: "RL-X002",
                rule: RULE,
                path: witness_path.to_string(),
                line: 0,
                message: format!(
                    "runtime witnessed lock edge `{from}` -> `{to}` that the static \
                     model never derived — analysis gap or Mutex::named label drift"
                ),
                suppressed: false,
            });
        }
    }
}

/// A minimal JSON value and recursive-descent parser — just enough for
/// the witness format (objects, arrays, strings, unsigned integers,
/// booleans, null).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    Str(String),
    Num(u64),
    Bool(bool),
    Null,
}

impl Json {
    pub(crate) fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at offset {}", b as char, pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let val = parse_value(bytes, pos)?;
                pairs.push((key, val));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at offset {start}"))
        }
        _ => Err(format!("unexpected byte at offset {pos}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => {
                return String::from_utf8(out).map_err(|_| "invalid utf-8 in string".to_string())
            }
            b'\\' => {
                let esc = bytes.get(*pos).copied().ok_or("dangling escape")?;
                *pos += 1;
                match esc {
                    b'"' | b'\\' | b'/' => out.push(esc),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    other => return Err(format!("unsupported escape `\\{}`", other as char)),
                }
            }
            other => out.push(other),
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn witness(locks: &[&str], edges: &[(&str, &str)]) -> Witness {
        Witness {
            locks: locks.iter().map(|s| s.to_string()).collect(),
            edges: edges
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
        }
    }

    const SRC: &str =
        "fn ingest(&self) { let a = self.intake.lock(); let b = self.ledger.lock(); }";

    fn run(w: &Witness) -> Vec<Diagnostic> {
        let f = SourceFile::new("x.rs".into(), SRC);
        let mut out = Vec::new();
        check(&[f], w, "witness.json", &mut out);
        out
    }

    #[test]
    fn matching_edge_is_clean() {
        let w = witness(&["intake", "ledger"], &[("intake", "ledger")]);
        assert!(run(&w).is_empty());
    }

    #[test]
    fn unwitnessed_static_edge_is_x001() {
        let w = witness(&["intake", "ledger"], &[]);
        let diags = run(&w);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RL-X001");
        assert_eq!(diags[0].path, "x.rs");
    }

    #[test]
    fn unexercised_lock_is_not_contradicted() {
        // The run never touched `ledger`, so the static edge stands.
        let w = witness(&["intake"], &[]);
        assert!(run(&w).is_empty());
    }

    #[test]
    fn unmodeled_dynamic_edge_is_x002() {
        let w = witness(
            &["intake", "ledger"],
            &[("intake", "ledger"), ("ledger", "intake")],
        );
        let diags = run(&w);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RL-X002");
        assert_eq!(diags[0].path, "witness.json");
        assert!(diags[0].message.contains("`ledger` -> `intake`"));
    }

    #[test]
    fn json_parser_roundtrips_witness() {
        let src = r#"{"schema": 1, "locks": ["a", "b"], "edges": [{"from": "a", "to": "b"}]}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("schema").and_then(Json::as_u64), Some(1));
        let locks = v.get("locks").and_then(Json::as_array).unwrap();
        assert_eq!(locks.len(), 2);
        let edges = v.get("edges").and_then(Json::as_array).unwrap();
        assert_eq!(edges[0].get("from").and_then(Json::as_str), Some("a"));
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let dir = std::env::temp_dir().join("rocket-lint-witness-schema-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("w.json");
        std::fs::write(&p, r#"{"schema": 9, "locks": [], "edges": []}"#).unwrap();
        let err = Witness::load(&p).unwrap_err();
        assert!(err.contains("unsupported witness schema 9"), "{err}");
    }
}
