//! The rule families. Each rule walks a lexed token stream and emits
//! raw findings; severity, scoping, and waivers are applied by the
//! engine.
//!
//! Working on tokens rather than an AST means every check is a
//! heuristic. The rules are tuned so that their false positives are
//! rare, local, and cheap to waive (`// lint:allow(rule) -- reason`),
//! while their true positives are exactly the invariant violations the
//! validation harness (PR 3) can only catch dynamically.

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// A finding before severity/waiver resolution.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Rule key.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Description.
    pub message: String,
}

fn raw(rule: &'static str, t: &Tok, message: String) -> RawFinding {
    RawFinding { rule, line: t.line, col: t.col, message }
}

/// `panic_free`: `.unwrap()` / `.expect(...)` and panicking macros are
/// forbidden in non-test code on `Result`-bearing paths — the model
/// core, numerics, and serving layer must degrade through typed errors.
pub fn panic_free(toks: &[Tok], out: &mut Vec<RawFinding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if t.is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
            && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
        {
            let m = &toks[i + 1];
            out.push(raw(
                "panic_free",
                m,
                format!(
                    ".{}() panics on the error path; return a typed error \
                     (MathError/ModelError/ServiceError) or waive with the invariant",
                    m.text
                ),
            ));
        }
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            out.push(raw(
                "panic_free",
                t,
                format!("{}! aborts the process; return a typed error instead", t.text),
            ));
        }
    }
}

/// `indexing` (advisory): direct `expr[i]` indexing panics out of
/// bounds. Range slicing (`&xs[..n]`) and macro brackets are ignored.
pub fn indexing(toks: &[Tok], out: &mut Vec<RawFinding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || !t.is_punct("[") || i == 0 {
            continue;
        }
        let prev = &toks[i - 1];
        let indexable = (prev.kind == TokKind::Ident
            && !matches!(
                prev.text.as_str(),
                "in" | "return"
                    | "break"
                    | "mut"
                    | "ref"
                    | "as"
                    | "else"
                    | "match"
                    | "if"
                    | "while"
                    | "loop"
                    | "move"
                    | "box"
                    | "dyn"
                    | "impl"
                    | "where"
                    | "yield"
            ))
            || prev.is_punct(")")
            || prev.is_punct("]");
        if !indexable {
            continue;
        }
        // Find the matching `]`; ranges inside mean slicing, not indexing.
        let mut depth = 0i32;
        let mut has_range = false;
        for n in &toks[i..] {
            if n.is_punct("[") {
                depth += 1;
            } else if n.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if n.is_punct("..") {
                has_range = true;
            }
        }
        if !has_range {
            out.push(raw(
                "indexing",
                t,
                "direct indexing panics when out of bounds; prefer .get()/.get_mut()".to_string(),
            ));
        }
    }
}

/// `nan_safe`: raw `==`/`!=` against float literals, and
/// `.partial_cmp(..).unwrap()`, outside the blessed comparator helpers
/// in `mathkit::float`. NaN makes both silently wrong: NaN compares
/// unequal to everything and `partial_cmp` returns `None`.
pub fn nan_safe(toks: &[Tok], out: &mut Vec<RawFinding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if t.is_punct("==") || t.is_punct("!=") {
            let lhs_float = i > 0 && toks[i - 1].kind == TokKind::FloatLit;
            let rhs_float = match toks.get(i + 1) {
                Some(n) if n.kind == TokKind::FloatLit => true,
                // `== -1.0`
                Some(n) if n.is_punct("-") => {
                    toks.get(i + 2).is_some_and(|m| m.kind == TokKind::FloatLit)
                }
                _ => false,
            };
            if lhs_float || rhs_float {
                out.push(raw(
                    "nan_safe",
                    t,
                    format!(
                        "raw float {} is NaN-unsafe; use mathkit::float \
                         (exactly_zero/approx_eq/bits_eq) or waive with the invariant",
                        t.text
                    ),
                ));
            }
        }
        if t.is_punct(".") && toks.get(i + 1).is_some_and(|n| n.is_ident("partial_cmp")) {
            // `.partial_cmp(x).unwrap()` / `.expect(...)`: skip the
            // argument parens, then look for the panicking adapter.
            let mut j = i + 2;
            let mut depth = 0i32;
            while let Some(n) = toks.get(j) {
                if n.is_punct("(") {
                    depth += 1;
                } else if n.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let panicking = toks.get(j + 1).is_some_and(|n| n.is_punct("."))
                && toks.get(j + 2).is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"));
            if panicking {
                out.push(raw(
                    "nan_safe",
                    &toks[i + 1],
                    "partial_cmp().unwrap() panics on NaN; use f64::total_cmp".to_string(),
                ));
            }
        }
    }
}

/// `determinism`: wall-clock reads and `RandomState`-hashed map/set
/// iteration in code whose results must be bit-identical regardless of
/// process order (fingerprinting, equilibrium, caches). `HashMap`
/// lookup is allowed; *iteration* without a canonical sort is flagged.
pub fn determinism(toks: &[Tok], out: &mut Vec<RawFinding>) {
    // Pass 1: names bound or typed as HashMap/HashSet in this file.
    let mut hashed: BTreeSet<&str> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !matches!(t.text.as_str(), "HashMap" | "HashSet") {
            continue;
        }
        // `name: [path::]HashMap<..>` (field or let ascription): walk
        // back over the type path to the `:` and take the ident before.
        let mut j = i;
        while j >= 2 && (toks[j - 1].is_punct("::") || toks[j - 1].kind == TokKind::Ident) {
            j -= 1;
        }
        if j >= 2 && toks[j - 1].is_punct(":") && toks[j - 2].kind == TokKind::Ident {
            hashed.insert(&toks[j - 2].text);
        }
        // `let [mut] name = HashMap::new()` and friends.
        if j >= 2 && toks[j - 1].is_punct("=") && toks[j - 2].kind == TokKind::Ident {
            hashed.insert(&toks[j - 2].text);
        }
    }

    const ITER_METHODS: &[&str] =
        &["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain", "retain"];
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        // Wall-clock reads.
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "Instant" | "SystemTime")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("now"))
        {
            out.push(raw(
                "determinism",
                t,
                format!(
                    "{}::now() reads the wall clock in order-independence-critical code; \
                     results must not depend on time (waive for diagnostics-only use)",
                    t.text
                ),
            ));
        }
        if t.is_ident("RandomState") {
            out.push(raw(
                "determinism",
                t,
                "RandomState is seeded per-process; hashing order will differ across runs"
                    .to_string(),
            ));
        }
        // `name.iter()` etc. on a HashMap/HashSet-typed name.
        if t.kind == TokKind::Ident
            && hashed.contains(t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("."))
        {
            if let Some(m) = toks.get(i + 2) {
                if m.kind == TokKind::Ident
                    && ITER_METHODS.contains(&m.text.as_str())
                    && toks.get(i + 3).is_some_and(|n| n.is_punct("("))
                {
                    out.push(raw(
                        "determinism",
                        m,
                        format!(
                            "iterating `{}` (RandomState-hashed) yields nondeterministic \
                             order; sort by a canonical key or use BTreeMap/BTreeSet",
                            t.text
                        ),
                    ));
                }
            }
        }
        // `for x in [&[mut]] name` over a hashed collection.
        if t.is_ident("for") {
            let mut j = i + 1;
            let mut depth = 0i32;
            while let Some(n) = toks.get(j) {
                if n.is_ident("in") && depth == 0 {
                    break;
                }
                if n.is_punct("(") || n.is_punct("[") {
                    depth += 1;
                } else if n.is_punct(")") || n.is_punct("]") {
                    depth -= 1;
                }
                if n.is_punct("{") || j > i + 24 {
                    j = toks.len();
                    break;
                }
                j += 1;
            }
            let mut k = j + 1;
            while toks.get(k).is_some_and(|n| n.is_punct("&") || n.is_ident("mut")) {
                k += 1;
            }
            // Walk a dotted path (`self.cache.map`): the final segment
            // names the collection being iterated.
            while toks.get(k).is_some_and(|n| n.kind == TokKind::Ident)
                && toks.get(k + 1).is_some_and(|n| n.is_punct("."))
                && toks.get(k + 2).is_some_and(|n| n.kind == TokKind::Ident)
            {
                k += 2;
            }
            if let Some(n) = toks.get(k) {
                if n.kind == TokKind::Ident
                    && hashed.contains(n.text.as_str())
                    && toks.get(k + 1).is_some_and(|m| m.is_punct("{"))
                {
                    out.push(raw(
                        "determinism",
                        n,
                        format!(
                            "for-loop over `{}` (RandomState-hashed) yields nondeterministic \
                             order; sort by a canonical key or use BTreeMap/BTreeSet",
                            n.text
                        ),
                    ));
                }
            }
        }
    }
}

/// `lock_hygiene`: `.lock().unwrap()` (and `.read()`/`.write()`)
/// poisons-propagates a panic from another thread into this one; the
/// workspace idiom is `.unwrap_or_else(|e| e.into_inner())`. In the
/// service, blocking I/O in the same statement as a lock acquisition
/// holds the guard across the call, stalling every other connection.
pub fn lock_hygiene(relpath: &str, toks: &[Tok], out: &mut Vec<RawFinding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if t.is_punct(".")
            && toks.get(i + 1).is_some_and(|n| matches!(n.text.as_str(), "lock" | "read" | "write"))
            && toks[i + 1].kind == TokKind::Ident
            && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
            && toks.get(i + 3).is_some_and(|n| n.is_punct(")"))
            && toks.get(i + 4).is_some_and(|n| n.is_punct("."))
            && toks.get(i + 5).is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
        {
            out.push(raw(
                "lock_hygiene",
                &toks[i + 5],
                format!(
                    ".{}().{}() panics if another thread poisoned the lock; \
                     use .unwrap_or_else(|e| e.into_inner())",
                    toks[i + 1].text,
                    toks[i + 5].text
                ),
            ));
        }
    }

    // Guard-across-blocking-I/O heuristic, service only: a statement
    // that both acquires a lock and performs blocking I/O.
    if !relpath.starts_with("crates/service/src") {
        return;
    }
    const BLOCKING: &[&str] =
        &["read_line", "write_all", "read_to_string", "read_exact", "accept", "recv", "join"];
    let mut stmt_start = 0usize;
    for i in 0..=toks.len() {
        let boundary = i == toks.len()
            || (toks[i].kind == TokKind::Punct && matches!(toks[i].text.as_str(), ";" | "{" | "}"));
        if !boundary {
            continue;
        }
        let stmt = &toks[stmt_start..i];
        let acquire = stmt.iter().enumerate().find(|(k, t)| {
            t.is_punct(".")
                && stmt
                    .get(k + 1)
                    .is_some_and(|n| matches!(n.text.as_str(), "lock" | "read" | "write"))
                && stmt[k + 1].kind == TokKind::Ident
                && stmt.get(k + 2).is_some_and(|n| n.is_punct("("))
                && stmt.get(k + 3).is_some_and(|n| n.is_punct(")"))
        });
        if let Some((_, dot)) = acquire {
            if !dot.in_test
                && stmt
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && BLOCKING.contains(&t.text.as_str()))
            {
                out.push(raw(
                    "lock_hygiene",
                    dot,
                    "blocking I/O in the same statement as a lock acquisition holds the \
                     guard across the call; split the statement so the guard drops first"
                        .to_string(),
                ));
            }
        }
        stmt_start = i + 1;
    }
}

/// `bounded_io` (advisory): unbounded reads and peer-sized allocations
/// in the wire-facing layer. A network peer controls both the length of
/// what it sends and any numbers inside it, so:
///
/// - `.read_to_string()` / `.read_to_end()` buffer until the peer stops
///   sending — a slow flood is an OOM, not an error;
/// - `.read_line()` grows its buffer until the peer deigns to send a
///   newline — the capped `LineReader` idiom is the replacement;
/// - `with_capacity(n)` / `reserve(n)` where `n` traces to a
///   wire-decoded number (`as_usize`/`as_f64` in the argument or in the
///   flagged name's binding statement) lets the peer command the
///   allocation before any validation runs.
///
/// Sizes taken from already-materialized collections (`.len()`) are
/// fine: that memory is already spent and capped upstream.
pub fn bounded_io(toks: &[Tok], out: &mut Vec<RawFinding>) {
    // Pass 1: names bound from wire-decoded numbers — a `let` whose
    // initializer statement calls the JSON number decoders.
    let mut wire_sized: BTreeSet<&str> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        while toks.get(j).is_some_and(|n| n.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = toks.get(j).filter(|n| n.kind == TokKind::Ident) else { continue };
        let mut k = j + 1;
        while let Some(n) = toks.get(k) {
            if n.is_punct(";") {
                break;
            }
            if n.kind == TokKind::Ident && matches!(n.text.as_str(), "as_usize" | "as_f64") {
                wire_sized.insert(&name.text);
                break;
            }
            k += 1;
        }
    }

    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        // Unbounded reads.
        if t.is_punct(".")
            && toks.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Ident
                    && matches!(n.text.as_str(), "read_to_string" | "read_to_end" | "read_line")
            })
            && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
        {
            let m = &toks[i + 1];
            let hint = if m.text == "read_line" {
                "grows its buffer until the peer sends a newline; use a capped line \
                 reader (the server's LineReader idiom) or Read::take"
            } else {
                "buffers until the peer stops sending; bound it with Read::take \
                 or an incremental capped reader"
            };
            out.push(raw("bounded_io", m, format!(".{}() {hint}", m.text)));
        }
        // Peer-sized allocations.
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "with_capacity" | "reserve" | "reserve_exact")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            let mut depth = 0i32;
            let mut tainted = false;
            for n in &toks[i + 1..] {
                if n.is_punct("(") {
                    depth += 1;
                } else if n.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if n.kind == TokKind::Ident
                    && (matches!(n.text.as_str(), "as_usize" | "as_f64")
                        || wire_sized.contains(n.text.as_str()))
                {
                    tainted = true;
                }
            }
            if tainted {
                out.push(raw(
                    "bounded_io",
                    t,
                    "allocation sized by a wire-decoded number lets the peer command \
                     memory before validation; clamp the size first"
                        .to_string(),
                ));
            }
        }
    }
}

/// `unsafe_audit`: no `unsafe` anywhere, and every crate root must carry
/// `#![forbid(unsafe_code)]` (`deny` is accepted only under a waiver).
pub fn unsafe_audit(is_crate_root: bool, toks: &[Tok], out: &mut Vec<RawFinding>) {
    for t in toks {
        if t.is_ident("unsafe") {
            // `unsafe_code` inside the forbid attribute is one ident and
            // never matches `unsafe` exactly.
            out.push(raw(
                "unsafe_audit",
                t,
                "`unsafe` is forbidden workspace-wide; the models need no unsafe code".to_string(),
            ));
        }
    }
    if !is_crate_root {
        return;
    }
    // Look for `#![forbid(unsafe_code)]` / `#![deny(unsafe_code)]`.
    let mut found_forbid = false;
    let mut deny_at: Option<&Tok> = None;
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct("#")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && toks.get(i + 2).is_some_and(|n| n.is_punct("["))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("forbid") || n.is_ident("deny"))
            && toks.get(i + 4).is_some_and(|n| n.is_punct("("))
            && toks.get(i + 5).is_some_and(|n| n.is_ident("unsafe_code"))
        {
            if toks[i + 3].is_ident("forbid") {
                found_forbid = true;
            } else {
                deny_at = Some(&toks[i + 3]);
            }
        }
    }
    if !found_forbid {
        match deny_at {
            Some(t) => out.push(raw(
                "unsafe_audit",
                t,
                "#![deny(unsafe_code)] is overridable; use forbid, or waive with the reason \
                 the override must stay possible"
                    .to_string(),
            )),
            None => out.push(RawFinding {
                rule: "unsafe_audit",
                line: 1,
                col: 1,
                message: "crate root is missing #![forbid(unsafe_code)]".to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rule: fn(&[Tok], &mut Vec<RawFinding>), src: &str) -> Vec<RawFinding> {
        let mut out = Vec::new();
        rule(&lex(src).toks, &mut out);
        out
    }

    #[test]
    fn panic_free_catches_unwrap_expect_macros() {
        let f = run(panic_free, "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"n\"); }");
        let rules: Vec<_> = f.iter().map(|f| f.message.split_whitespace().next()).collect();
        assert_eq!(f.len(), 3, "{rules:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn panic_free_allows_unwrap_or_and_tests() {
        assert!(run(panic_free, "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); }").is_empty());
        assert!(run(panic_free, "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }").is_empty());
        assert!(run(panic_free, "fn f() { std::panic::catch_unwind(|| {}); }").is_empty());
    }

    #[test]
    fn nan_safe_catches_float_literal_comparison() {
        let f = run(nan_safe, "fn f(x: f64) -> bool { x == 0.0 || -1.5 != x }");
        assert_eq!(f.len(), 2);
        let f = run(nan_safe, "fn f(x: f64) -> bool { x == -0.5 }");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn nan_safe_allows_int_comparison_and_helpers() {
        assert!(run(nan_safe, "fn f(x: usize) -> bool { x == 0 }").is_empty());
        assert!(run(nan_safe, "fn f(x: f64) -> bool { exactly_zero(x) }").is_empty());
    }

    #[test]
    fn nan_safe_catches_partial_cmp_unwrap() {
        let f = run(nan_safe, "fn f() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }");
        assert_eq!(f.len(), 1);
        assert!(run(nan_safe, "fn f() { let o = a.partial_cmp(&b); }").is_empty());
    }

    #[test]
    fn determinism_catches_clock_and_map_iteration() {
        let f = run(determinism, "fn f() { let t = Instant::now(); }");
        assert_eq!(f.len(), 1);
        let src = "struct S { m: HashMap<String, u32> }\nfn f(s: &S) { for (k, v) in &s.m {} let x: Vec<_> = s.m.keys().collect(); }";
        let f = run(determinism, src);
        assert_eq!(f.len(), 2, "{f:?}");
        let src = "fn f() { let mut m = HashMap::new(); m.insert(1, 2); let _ = m.get(&1); }";
        assert!(run(determinism, src).is_empty(), "lookup is allowed");
        let src = "fn f() { let mut m = HashMap::new(); for x in m.drain() {} }";
        assert_eq!(run(determinism, src).len(), 1);
    }

    #[test]
    fn determinism_allows_btree_iteration() {
        let src =
            "fn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); for x in &m {} m.iter(); }";
        assert!(run(determinism, src).is_empty());
    }

    #[test]
    fn lock_hygiene_catches_poison_unsafe_unwrap() {
        let mut out = Vec::new();
        lock_hygiene(
            "crates/core/src/x.rs",
            &lex("fn f() { m.lock().unwrap(); r.read().expect(\"m\"); }").toks,
            &mut out,
        );
        assert_eq!(out.len(), 2);
        let mut out = Vec::new();
        lock_hygiene(
            "crates/core/src/x.rs",
            &lex("fn f() { m.lock().unwrap_or_else(|e| e.into_inner()); stdin.lock(); f.read(&mut buf).unwrap(); }").toks,
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn lock_hygiene_catches_io_under_guard_in_service() {
        let src = "fn f() { out.write_all(reg.read().render().as_bytes()); }";
        let mut out = Vec::new();
        lock_hygiene("crates/service/src/server.rs", &lex(src).toks, &mut out);
        assert_eq!(out.len(), 1);
        // Split statements: guard drops before the write.
        let src = "fn f() { let text = reg.read().render(); out.write_all(text.as_bytes()); }";
        let mut out = Vec::new();
        lock_hygiene("crates/service/src/server.rs", &lex(src).toks, &mut out);
        assert!(out.is_empty(), "{out:?}");
        // Outside the service the heuristic does not run.
        let src = "fn f() { out.write_all(reg.read().render().as_bytes()); }";
        let mut out = Vec::new();
        lock_hygiene("crates/core/src/x.rs", &lex(src).toks, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn unsafe_audit_requires_forbid_at_crate_root() {
        let mut out = Vec::new();
        unsafe_audit(
            true,
            &lex("//! docs\n#![forbid(unsafe_code)]\npub fn f() {}\n").toks,
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        let mut out = Vec::new();
        unsafe_audit(true, &lex("pub fn f() {}\n").toks, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
        let mut out = Vec::new();
        unsafe_audit(true, &lex("#![deny(unsafe_code)]\npub fn f() {}\n").toks, &mut out);
        assert_eq!(out.len(), 1, "deny needs a waiver");
        let mut out = Vec::new();
        unsafe_audit(
            false,
            &lex("fn f() { unsafe { std::hint::unreachable_unchecked() } }").toks,
            &mut out,
        );
        assert_eq!(out.len(), 1, "unsafe blocks are flagged everywhere");
    }

    #[test]
    fn bounded_io_catches_unbounded_reads() {
        let f = run(
            bounded_io,
            "fn f(r: &mut impl BufRead) { r.read_line(&mut s); sock.read_to_string(&mut t); \
             sock.read_to_end(&mut v); }",
        );
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(run(bounded_io, "fn f(r: &mut impl BufRead) { let b = r.fill_buf(); }").is_empty());
        assert!(
            run(bounded_io, "#[cfg(test)]\nmod tests { fn t() { r.read_line(&mut s); } }")
                .is_empty(),
            "tests read however they like"
        );
    }

    #[test]
    fn bounded_io_catches_peer_sized_allocations() {
        // Direct decode in the argument, and a decode laundered through
        // a `let` binding.
        let f = run(bounded_io, "fn f(j: &Json) { let v = Vec::with_capacity(j.as_usize()); }");
        assert_eq!(f.len(), 1, "{f:?}");
        let src =
            "fn f(j: &Json) { let n = j.get(\"count\").and_then(Json::as_usize).unwrap_or(0); \
                   let mut v = Vec::new(); v.reserve(n); }";
        assert_eq!(run(bounded_io, src).len(), 1);
        // `.len()` of a materialized collection is already-spent memory.
        let src = "fn f(items: &[Json]) { let v: Vec<f64> = Vec::with_capacity(items.len()); }";
        assert!(run(bounded_io, src).is_empty());
    }

    #[test]
    fn indexing_flags_direct_and_allows_ranges() {
        let f = run(indexing, "fn f() { let x = xs[3]; let y = &xs[..n]; let z = vec![1, 2]; }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(run(indexing, "fn f(a: [u8; 4]) { for x in [1, 2] {} }").is_empty());
    }
}
