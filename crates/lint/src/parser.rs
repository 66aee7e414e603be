//! Syntax-aware layer over the lexer: a lossless brace tree and an
//! item parser producing per-file `fn`/`impl`/`mod` items with spans.
//!
//! PR 5's rules pattern-match a flat token stream; the interprocedural
//! families (cancellation propagation, lock order, determinism taint)
//! need to know *which function* a token belongs to and how blocks
//! nest. This module adds exactly that structure and nothing more:
//!
//! - [`BraceTree`]: every `{ ... }` group as a node with token-index
//!   spans, built by a single total pass. Unbalanced input never
//!   panics — a stray `}` is ignored, an unclosed `{` is closed at
//!   end-of-file — so a half-edited file still parses ("recovers
//!   balance", pinned by the proptest in `tests/parser_props.rs`).
//! - [`FnItem`]: each `fn` with its qualified name (module path and
//!   `impl` type folded in), signature span, and body group.
//!
//! The parser is *lossless* in the sense that it never drops or
//! rewrites tokens: items carry index ranges into the caller's token
//! vector, so rule code can always drop back to raw-token matching
//! within a span.
//!
//! Soundness caveats (shared with the call graph, see DESIGN.md §17):
//! no macro expansion, no type inference, and `fn` bodies are located
//! by scanning for the first `{` at bracket depth 0 after the
//! signature — exotic const-generic default expressions in signatures
//! could confuse the scan, but none exist in this workspace and the
//! failure mode is a skipped item, never a panic.

use crate::lexer::{Tok, TokKind};

/// One `{ ... }` group. `open`/`close` are token indices of the braces
/// themselves; `close == toks.len()` means the group was recovered at
/// end-of-file.
#[derive(Debug, Clone)]
pub struct Brace {
    /// Token index of the `{`.
    pub open: usize,
    /// Token index of the matching `}` (or `toks.len()` if recovered).
    pub close: usize,
    /// Indices into [`BraceTree::nodes`] of directly nested groups.
    pub children: Vec<usize>,
}

/// All brace groups of a file, as a forest ordered by `open` index.
#[derive(Debug, Default, Clone)]
pub struct BraceTree {
    /// Every group, in order of its opening brace.
    pub nodes: Vec<Brace>,
    /// Indices of top-level (unnested) groups.
    pub roots: Vec<usize>,
    /// Whether the stream was brace-balanced as written.
    pub balanced: bool,
}

impl BraceTree {
    /// Builds the tree. Total: never panics, recovers imbalance.
    pub fn build(toks: &[Tok]) -> BraceTree {
        let mut tree = BraceTree { balanced: true, ..BraceTree::default() };
        // Stack of node indices for currently open groups.
        let mut open: Vec<usize> = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.is_punct("{") {
                let id = tree.nodes.len();
                tree.nodes.push(Brace { open: i, close: toks.len(), children: Vec::new() });
                match open.last() {
                    Some(&parent) => tree.nodes[parent].children.push(id),
                    None => tree.roots.push(id),
                }
                open.push(id);
            } else if t.is_punct("}") {
                match open.pop() {
                    Some(id) => tree.nodes[id].close = i,
                    // Stray close brace: ignore it (recovery).
                    None => tree.balanced = false,
                }
            }
        }
        if !open.is_empty() {
            // Unclosed groups keep close == toks.len() (recovery).
            tree.balanced = false;
        }
        tree
    }

    /// Whether every recorded group has `open < close` and children
    /// nest strictly inside their parent — the invariant the proptest
    /// pins even for garbage input.
    pub fn is_well_nested(&self) -> bool {
        self.nodes.iter().enumerate().all(|(id, n)| {
            n.open < n.close
                && n.children.iter().all(|&c| {
                    self.nodes
                        .get(c)
                        .is_some_and(|ch| c > id && ch.open > n.open && ch.close <= n.close)
                })
        })
    }
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name (`solve_batch`).
    pub name: String,
    /// Qualified name: module path and impl type joined with `::`
    /// (`eqcache::EquilibriumCache::peek`).
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range `[sig_start, body_open)` covering the signature
    /// (from the `fn` keyword to just before the body brace).
    pub sig: (usize, usize),
    /// Token range `(body_open, body_close)` of the body *contents*
    /// (exclusive of both braces); `None` for body-less trait methods.
    pub body: Option<(usize, usize)>,
    /// Whether the item sits in test-only code.
    pub in_test: bool,
}

/// A parsed file: brace tree plus extracted items.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// The brace forest.
    pub tree: BraceTree,
    /// Every `fn`, in source order (nested fns included).
    pub fns: Vec<FnItem>,
}

/// Context a `{` opens, tracked while scanning items.
#[derive(Debug, Clone)]
enum Ctx {
    /// `mod name { ... }` — pushes a module-path segment.
    Mod(String),
    /// `impl [Trait for] Type { ... }` — pushes a type segment.
    Impl(String),
    /// Any other group (fn body, block, struct body, match, ...).
    Other,
}

/// Parses `toks` into a brace tree and `fn` items. Total.
pub fn parse(toks: &[Tok]) -> ParsedFile {
    let tree = BraceTree::build(toks);
    let mut fns = Vec::new();
    // Stack of contexts, one per currently open brace group.
    let mut ctx: Vec<Ctx> = Vec::new();
    // Module/impl path segments currently in force.
    let mut path: Vec<String> = Vec::new();
    // The context the *next* `{` should open, decided by the tokens
    // seen since the last statement boundary.
    let mut pending: Option<Ctx> = None;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Ident if t.text == "mod" => {
                if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    // `mod name;` (out-of-line) never reaches its `{`;
                    // the `;` clears the pending context below.
                    pending = Some(Ctx::Mod(name.text.clone()));
                }
                i += 1;
            }
            TokKind::Ident if t.text == "impl" => {
                pending = Some(Ctx::Impl(impl_type_name(toks, i + 1)));
                i += 1;
            }
            TokKind::Ident if t.text == "fn" => {
                let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
                    i += 1;
                    continue;
                };
                let (body_open, after) = find_fn_body(toks, i + 2);
                let qual = if path.is_empty() {
                    name_tok.text.clone()
                } else {
                    format!("{}::{}", path.join("::"), name_tok.text)
                };
                let body = body_open.map(|open| {
                    let close =
                        tree.nodes.iter().find(|n| n.open == open).map_or(toks.len(), |n| n.close);
                    (open + 1, close)
                });
                fns.push(FnItem {
                    name: name_tok.text.clone(),
                    qual,
                    line: t.line,
                    sig: (i, body_open.unwrap_or(after)),
                    body,
                    in_test: t.in_test,
                });
                // Continue scanning *inside* the body too (nested fns,
                // and the brace bookkeeping below needs every token).
                i += 1;
            }
            TokKind::Punct if t.text == "{" => {
                let c = pending.take().unwrap_or(Ctx::Other);
                if let Ctx::Mod(name) = &c {
                    path.push(name.clone());
                } else if let Ctx::Impl(name) = &c {
                    path.push(name.clone());
                }
                ctx.push(c);
                i += 1;
            }
            TokKind::Punct if t.text == "}" => {
                if let Some(c) = ctx.pop() {
                    if matches!(c, Ctx::Mod(_) | Ctx::Impl(_)) {
                        path.pop();
                    }
                }
                i += 1;
            }
            TokKind::Punct if t.text == ";" => {
                // A `;` at item level discharges `mod name;` / trait
                // method declarations before their `{` ever arrives.
                pending = None;
                i += 1;
            }
            _ => i += 1,
        }
    }
    ParsedFile { tree, fns }
}

/// The type segment an `impl` header contributes: the last path ident
/// before the body `{` — after `for` when present (`impl Trait for
/// Type`), skipping generic arguments.
fn impl_type_name(toks: &[Tok], mut i: usize) -> String {
    let mut angle = 0i32;
    let mut best = String::new();
    while let Some(t) = toks.get(i) {
        match t.kind {
            TokKind::Punct if t.text == "{" && angle <= 0 => break,
            TokKind::Punct if t.text == ";" => break,
            TokKind::Punct if t.text == "<" => angle += 1,
            TokKind::Punct if t.text == ">" => angle -= 1,
            // `where` clauses trail the type; stop collecting there.
            TokKind::Ident if t.text == "where" && angle <= 0 => break,
            // After `for` the trait name is discarded; the self type wins.
            TokKind::Ident if t.text == "for" && angle <= 0 => best.clear(),
            TokKind::Ident if angle <= 0 => best = t.text.clone(),
            _ => {}
        }
        i += 1;
    }
    best
}

/// Finds a fn body's opening `{` starting just after the name token:
/// skips the generic/parameter/return-type tokens, tracking `(`/`[`
/// depth, and stops at the first `{` or `;` at depth 0. Returns
/// `(Some(open_index), open_index)` or `(None, index_of_semi_or_eof)`.
fn find_fn_body(toks: &[Tok], mut i: usize) -> (Option<usize>, usize) {
    let mut depth = 0i32;
    while let Some(t) = toks.get(i) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 => return (Some(i), i),
                ";" if depth <= 0 => return (None, i),
                _ => {}
            }
        }
        i += 1;
    }
    (None, toks.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src).toks)
    }

    #[test]
    fn brace_tree_nests_and_spans() {
        let toks = lex("fn a() { if x { y(); } } fn b() {}").toks;
        let tree = BraceTree::build(&toks);
        assert!(tree.balanced);
        assert_eq!(tree.roots.len(), 2);
        assert!(tree.is_well_nested());
        let outer = &tree.nodes[tree.roots[0]];
        assert_eq!(outer.children.len(), 1);
        let inner = &tree.nodes[outer.children[0]];
        assert!(outer.open < inner.open && inner.close < outer.close);
    }

    #[test]
    fn brace_tree_recovers_from_imbalance() {
        let toks = lex("} fn a() { if x { }").toks;
        let tree = BraceTree::build(&toks);
        assert!(!tree.balanced);
        assert!(tree.is_well_nested(), "{tree:?}");
        // The unclosed outer body recovered at EOF.
        assert_eq!(tree.nodes[tree.roots[0]].close, toks.len());
    }

    #[test]
    fn fn_items_get_qualified_names() {
        let src = "mod outer {\n  pub struct S;\n  impl S { fn m(&self) -> u32 { 1 } }\n  impl Display for S { fn fmt(&self) {} }\n  pub fn free() {}\n}\nfn top() {}\n";
        let p = parse_src(src);
        let quals: Vec<_> = p.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["outer::S::m", "outer::S::fmt", "outer::free", "top"]);
        assert_eq!(p.fns[0].line, 3);
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let src = "trait T { fn decl(&self) -> u32; fn with_default(&self) { () } }";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0].body.is_none());
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn fn_body_skips_where_clause_and_return_type() {
        let src = "fn f<T: Clone>(x: T) -> Vec<T> where T: Send { vec![x] }\nfn g() {}";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        let (start, end) = p.fns[0].body.expect("body");
        assert!(start < end);
    }

    #[test]
    fn nested_fn_is_captured_inside_outer_body() {
        let src = "fn outer() { fn inner() { x(); } inner(); }";
        let p = parse_src(src);
        let names: Vec<_> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
        let (os, oe) = p.fns[0].body.expect("outer body");
        let (is_, ie) = p.fns[1].body.expect("inner body");
        assert!(os < is_ && ie <= oe, "inner body nests in outer");
    }

    #[test]
    fn test_scope_flag_carries_to_items() {
        let src = "#[cfg(test)]\nmod tests { fn t() {} }\nfn live() {}";
        let p = parse_src(src);
        assert!(p.fns[0].in_test);
        assert!(!p.fns[1].in_test);
    }

    #[test]
    fn impl_type_name_variants() {
        let cases = [
            ("impl Config { fn a() {} }", "Config::a"),
            ("impl<T> Holder<T> { fn b() {} }", "Holder::b"),
            ("impl Display for Report { fn c() {} }", "Report::c"),
            ("impl<'a, T: Clone> Iterator for Walker<'a, T> { fn d() {} }", "Walker::d"),
        ];
        for (src, want) in cases {
            let p = parse_src(src);
            assert_eq!(p.fns[0].qual, want, "{src}");
        }
    }
}
