//! A lightweight item parser over the token stream.
//!
//! [`parse`] extracts from one source file what the lint rules and the
//! workspace call graph need — without building a full AST:
//!
//! * every `fn` definition, with its enclosing `impl` type (so
//!   `Sm::tick` and `Gpu::tick` are distinct graph nodes), whether it
//!   takes `self`, and whether it lives inside a `#[cfg(test)]` region;
//! * every call site inside each function body: plain/path calls
//!   (`helper(…)`, `Vec::new(…)`, `Self::f(…)`), method calls
//!   (`.collect()`, turbofish included), and macro invocations
//!   (`vec![…]`, `format!(…)`);
//! * `for … in …` loop headers (the `determinism` rule checks what they
//!   iterate over);
//! * identifiers declared with a `HashMap` / `HashSet` type or
//!   initializer (the iteration-order hazard set);
//! * `xtask-allow` waiver directives with their justification text;
//! * `#[cfg(test)]` line regions and the module-doc status.
//!
//! The parser is a single linear pass with explicit stacks for `impl`
//! blocks and nested functions: call sites inside a nested `fn` belong to
//! the nested function, while call sites inside closures belong to the
//! enclosing function — exactly the attribution transitive reachability
//! wants. Like the lexer it is total: any input produces a best-effort
//! item table, never a panic.

use std::collections::BTreeSet;

use crate::lex::{lex, Token, TokenKind};

/// Keywords that look like a call when followed by `(` but are not.
const CALL_KEYWORDS: [&str; 24] = [
    "if", "while", "match", "return", "for", "in", "loop", "as", "move", "ref", "let", "else",
    "break", "continue", "where", "fn", "impl", "use", "mod", "pub", "unsafe", "dyn", "box",
    "self",
];

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee path as written: `"helper"`, `"Vec::new"`, `"Self::f"`, a
    /// bare method name for method calls, or `"vec!"` for macros.
    pub path: String,
    /// For method calls: the nearest receiver identifier (`m` for
    /// `m.iter()` and `self.m[k].iter()`), when one is syntactically
    /// evident.
    pub recv: Option<String>,
    /// For a method call chained directly onto another method call: that
    /// call's name (`pop` for `pool.pop().unwrap_or_default()`).
    pub chained_on: Option<String>,
    /// Whether this is a `.name(…)` method call.
    pub is_method: bool,
    /// Whether this is a `name!(…)` macro invocation.
    pub is_macro: bool,
    /// 1-based source line.
    pub line: u32,
}

impl CallSite {
    /// Last path segment (`new` for `Vec::new`), macro `!` kept.
    #[must_use]
    pub fn name(&self) -> &str {
        self.path.rsplit("::").next().unwrap_or(&self.path)
    }
}

/// One `fn` definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name as written (raw-identifier prefix stripped).
    pub name: String,
    /// Enclosing `impl` target type, when inside an impl block.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the parameter list mentions `self`.
    pub is_method: bool,
    /// Whether the definition sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Call sites in the body (closures included, nested fns excluded).
    pub calls: Vec<CallSite>,
    /// Inclusive line span of the body braces; `None` for declarations.
    pub body_lines: Option<(u32, u32)>,
}

impl FnDef {
    /// `Type::name` when inside an impl block, else just `name`.
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One `for pat in expr { … }` loop header.
#[derive(Debug, Clone)]
pub struct ForLoop {
    /// Identifiers mentioned in the iterated expression.
    pub expr_idents: Vec<String>,
    /// 1-based line of the `for` keyword.
    pub line: u32,
    /// Whether the loop is inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// One `xtask-allow` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line the directive's comment starts on.
    pub line: u32,
    /// Rule names listed after `xtask-allow:`.
    pub rules: Vec<String>,
    /// Justification: text after ` -- ` in the directive, or the comment
    /// text preceding `xtask-allow:` when non-empty.
    pub justification: Option<String>,
}

/// Everything the lint rules need from one file.
#[derive(Debug)]
pub struct FileItems {
    /// The full token stream (spans tile the source).
    pub tokens: Vec<Token>,
    /// Indices of significant (non-whitespace, non-comment) tokens.
    pub sig: Vec<usize>,
    /// Every function definition, in source order.
    pub fns: Vec<FnDef>,
    /// Every `for` loop header inside a function body.
    pub for_loops: Vec<ForLoop>,
    /// Waiver directives.
    pub allows: Vec<Allow>,
    /// Inclusive 1-based line ranges covered by `#[cfg(test)]` items.
    pub test_ranges: Vec<(u32, u32)>,
    /// Identifiers declared with a `HashMap`/`HashSet` type or initializer.
    pub hash_idents: BTreeSet<String>,
    /// Whether `//!`/`/*!` module docs appear before the first item.
    pub has_module_docs: bool,
}

impl FileItems {
    /// Whether `line` lies inside a `#[cfg(test)]` region.
    #[must_use]
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// The waiver covering `line` (same line or the line above) that names
    /// `rule`, if any.
    #[must_use]
    pub fn allow_for(&self, line: u32, rule: &str) -> Option<&Allow> {
        self.allows
            .iter()
            .find(|a| (a.line == line || a.line + 1 == line) && a.rules.iter().any(|r| r == rule))
    }
}

/// Parses one file. Total: never panics, best-effort on malformed input.
#[must_use]
pub fn parse(src: &str) -> FileItems {
    let tokens = lex(src);
    let sig: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .map(|(i, _)| i)
        .collect();
    let allows = collect_allows(src, &tokens);
    let has_module_docs = module_docs_present(src, &tokens);
    let mut p = Parser {
        src,
        tokens: &tokens,
        sig: &sig,
        fns: Vec::new(),
        for_loops: Vec::new(),
        test_ranges: Vec::new(),
        hash_idents: BTreeSet::new(),
    };
    p.run();
    FileItems {
        fns: p.fns,
        for_loops: p.for_loops,
        test_ranges: p.test_ranges,
        hash_idents: p.hash_idents,
        tokens,
        sig,
        allows,
        has_module_docs,
    }
}

/// Extracts `xtask-allow` directives from comment tokens.
fn collect_allows(src: &str, tokens: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = t.text(src);
        let Some(pos) = text.find("xtask-allow:") else {
            continue;
        };
        let after = &text[pos + "xtask-allow:".len()..];
        let (list, trailing) = match after.find("--") {
            Some(d) => (&after[..d], after[d + 2..].trim()),
            None => (after, ""),
        };
        let rules: Vec<String> = list
            .trim_end_matches("*/")
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty() && r.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'))
            .collect();
        // Justification: explicit ` -- reason`, or the comment text before
        // the directive (the repo's "justification first" convention).
        let leading = text[..pos]
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_start_matches('!')
            .trim()
            .trim_end_matches(';')
            .trim();
        let justification = if !trailing.is_empty() {
            Some(trailing.to_string())
        } else if !leading.is_empty() {
            Some(leading.to_string())
        } else {
            None
        };
        if !rules.is_empty() {
            out.push(Allow {
                line: t.line,
                rules,
                justification,
            });
        }
    }
    out
}

/// Whether inner module docs appear before the first real item. Inner
/// attributes (`#![…]`) may precede them.
fn module_docs_present(src: &str, tokens: &[Token]) -> bool {
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Whitespace => i += 1,
            TokenKind::LineComment if t.text(src).starts_with("//!") => return true,
            TokenKind::BlockComment if t.text(src).starts_with("/*!") => return true,
            TokenKind::LineComment | TokenKind::BlockComment => i += 1,
            TokenKind::Punct if t.text(src) == "#" => {
                // Skip an inner attribute `#![…]`.
                let mut j = i + 1;
                while j < tokens.len() && tokens[j].kind == TokenKind::Whitespace {
                    j += 1;
                }
                if tokens.get(j).map(|t| t.text(src)) != Some("!") {
                    return false;
                }
                let mut depth = 0i64;
                while j < tokens.len() {
                    match tokens[j].text(src) {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
            }
            _ => return false,
        }
    }
    false
}

/// The linear item-parsing pass.
struct Parser<'a> {
    src: &'a str,
    tokens: &'a [Token],
    sig: &'a [usize],
    fns: Vec<FnDef>,
    for_loops: Vec<ForLoop>,
    test_ranges: Vec<(u32, u32)>,
    hash_idents: BTreeSet<String>,
}

impl<'a> Parser<'a> {
    fn text(&self, s: usize) -> &'a str {
        self.sig
            .get(s)
            .and_then(|&i| self.tokens.get(i))
            .map_or("", |t| t.text(self.src))
    }

    fn kind(&self, s: usize) -> Option<TokenKind> {
        self.sig
            .get(s)
            .and_then(|&i| self.tokens.get(i))
            .map(|t| t.kind)
    }

    fn line(&self, s: usize) -> u32 {
        self.sig
            .get(s)
            .and_then(|&i| self.tokens.get(i))
            .map_or(0, |t| t.line)
    }

    fn run(&mut self) {
        let mut depth: i64 = 0;
        // (impl type, brace depth of the impl body when open).
        let mut impl_stack: Vec<(String, i64)> = Vec::new();
        let mut pending_impl: Option<String> = None;
        // (index into self.fns, brace depth of the body when open).
        let mut fn_stack: Vec<(usize, i64)> = Vec::new();
        let mut pending_fn: Option<usize> = None;
        // #[cfg(test)] region: set when the attribute is seen; the region
        // closes when depth returns to the recorded level (or at `;` for a
        // braceless item).
        let mut pending_test_line: Option<u32> = None;
        let mut test_open: Option<(u32, i64)> = None;

        // Paren/bracket nesting, so `;` inside `[u8; 2]` never terminates
        // an item and `{` inside an array-length expression is rare enough
        // to ignore.
        let mut paren: i64 = 0;
        let mut bracket: i64 = 0;

        let mut s = 0usize;
        while s < self.sig.len() {
            let text = self.text(s);
            let kind = self.kind(s).unwrap_or(TokenKind::Unknown);
            match (kind, text) {
                (TokenKind::Punct, "(") => paren += 1,
                (TokenKind::Punct, ")") => paren -= 1,
                (TokenKind::Punct, "[") => bracket += 1,
                (TokenKind::Punct, "]") => bracket -= 1,
                (TokenKind::Punct, "{") => {
                    depth += 1;
                    if let Some(ty) = pending_impl.take() {
                        impl_stack.push((ty, depth));
                    }
                    if let Some(fi) = pending_fn.take() {
                        fn_stack.push((fi, depth));
                    }
                    if let Some(line) = pending_test_line.take() {
                        test_open = Some((line, depth));
                    }
                }
                (TokenKind::Punct, "}") => {
                    if let Some(&(_, d)) = impl_stack.last() {
                        if d == depth {
                            impl_stack.pop();
                        }
                    }
                    if let Some(&(fi, d)) = fn_stack.last() {
                        if d == depth {
                            let close = self.line(s);
                            if let Some(f) = self.fns.get_mut(fi) {
                                let open = f.body_lines.map_or(close, |(a, _)| a);
                                f.body_lines = Some((open, close));
                            }
                            fn_stack.pop();
                        }
                    }
                    if let Some((start, d)) = test_open {
                        if d == depth {
                            self.test_ranges.push((start, self.line(s)));
                            test_open = None;
                        }
                    }
                    depth -= 1;
                }
                (TokenKind::Punct, ";") if test_open.is_none() && paren == 0 && bracket == 0 => {
                    // A braceless `#[cfg(test)] use …;` item.
                    if let Some(line) = pending_test_line.take() {
                        self.test_ranges.push((line, self.line(s)));
                    }
                }
                (TokenKind::Punct, "#") => {
                    if let Some(end) = self.scan_attribute(s) {
                        if self.attr_is_cfg_test(s, end) && test_open.is_none() {
                            pending_test_line = Some(self.line(s));
                        }
                        s = end; // skip the attribute body entirely
                    }
                }
                (TokenKind::Ident, "impl") => {
                    if let Some((ty, header_end)) = self.scan_impl_header(s) {
                        pending_impl = Some(ty);
                        s = header_end; // lands on the `{`, handled next loop
                        continue;
                    }
                }
                (TokenKind::Ident, "fn") if self.kind(s + 1) == Some(TokenKind::Ident) => {
                    let name = self.text(s + 1).trim_start_matches("r#").to_string();
                    let line = self.line(s);
                    let impl_type = impl_stack.last().map(|(t, _)| t.clone());
                    let (is_method, body_open) = self.scan_fn_signature(s + 2);
                    let in_test = test_open.is_some() || pending_test_line.is_some();
                    self.fns.push(FnDef {
                        name,
                        impl_type,
                        line,
                        is_method,
                        in_test,
                        calls: Vec::new(),
                        // Provisional; fixed up when the body closes.
                        body_lines: Some((line, line)),
                    });
                    if body_open.is_some() {
                        pending_fn = Some(self.fns.len() - 1);
                    } else if let Some(f) = self.fns.last_mut() {
                        f.body_lines = None; // trait-method declaration
                    }
                    s += 2; // continue from after the name; the `{` is found naturally
                    continue;
                }
                (TokenKind::Ident, "for") if !fn_stack.is_empty() && self.text(s + 1) != "<" => {
                    if let Some(fl) = self.scan_for_header(s, test_open.is_some()) {
                        self.for_loops.push(fl);
                    }
                }
                // Bindings inside #[cfg(test)] regions stay out of the
                // hazard set: a test-local `m: HashMap` must not flag a
                // lib-code `m: BTreeMap` with the same name.
                (TokenKind::Ident, "HashMap" | "HashSet")
                    if test_open.is_none() && pending_test_line.is_none() =>
                {
                    if let Some(name) = self.hash_binding_name(s) {
                        self.hash_idents.insert(name);
                    }
                }
                (TokenKind::Ident, _) if !fn_stack.is_empty() => {
                    if let Some(call) = self.scan_call(s) {
                        if let Some(&(fi, _)) = fn_stack.last() {
                            if let Some(f) = self.fns.get_mut(fi) {
                                f.calls.push(call);
                            }
                        }
                    }
                }
                _ => {}
            }
            s += 1;
        }
        if let Some((start, _)) = test_open {
            // Unclosed test region (malformed input): extend to EOF.
            let last = self.tokens.last().map_or(start, |t| t.line);
            self.test_ranges.push((start, last));
        }
    }

    /// From a `#` sig index: returns the sig index of the closing `]` of
    /// the attribute, or `None` if this `#` does not open one.
    fn scan_attribute(&self, s: usize) -> Option<usize> {
        let mut j = s + 1;
        if self.text(j) == "!" {
            j += 1;
        }
        if self.text(j) != "[" {
            return None;
        }
        let mut depth = 0i64;
        while j < self.sig.len() {
            match self.text(j) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Whether the attribute spanning sig `[s, end]` is a `cfg(… test …)`.
    fn attr_is_cfg_test(&self, s: usize, end: usize) -> bool {
        let mut saw_cfg = false;
        let mut saw_test = false;
        for j in s..=end {
            match self.text(j) {
                "cfg" => saw_cfg = true,
                "test" => saw_test = true,
                _ => {}
            }
        }
        saw_cfg && saw_test
    }

    /// From an `impl` sig index: extracts the implementing type name (last
    /// path segment; the type after `for` in trait impls) and the sig index
    /// of the body `{`.
    fn scan_impl_header(&self, s: usize) -> Option<(String, usize)> {
        let mut angle = 0i64;
        let mut last_for: Option<usize> = None;
        let mut open = None;
        let mut j = s + 1;
        while j < self.sig.len() {
            match self.text(j) {
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "for" if angle == 0 => last_for = Some(j),
                "{" if angle <= 0 => {
                    open = Some(j);
                    break;
                }
                ";" if angle <= 0 => return None, // `impl Trait;`-ish, malformed
                _ => {}
            }
            j += 1;
        }
        let open = open?;
        let from = last_for.map_or(s + 1, |f| f + 1);
        // Last path segment before generics: walk `Ident (:: Ident)*`.
        let mut name: Option<String> = None;
        let mut k = from;
        while k < open {
            let t = self.text(k);
            if self.kind(k) == Some(TokenKind::Ident)
                && !matches!(t, "dyn" | "where" | "unsafe" | "const")
            {
                name = Some(t.trim_start_matches("r#").to_string());
                // Continue through `::` chains; stop at generics or the body.
                if self.text(k + 1) == "::" {
                    k += 2;
                    continue;
                }
                break;
            }
            if t == "<" {
                // Generics directly after `impl`: skip to the matching `>`.
                let mut a = 0i64;
                while k < open {
                    match self.text(k) {
                        "<" => a += 1,
                        ">" => a -= 1,
                        ">>" => a -= 2,
                        _ => {}
                    }
                    if a <= 0 && self.text(k) != "<" {
                        break;
                    }
                    k += 1;
                }
                continue;
            }
            k += 1;
        }
        Some((name?, open))
    }

    /// From the sig index after a fn's name: whether the parameter list
    /// mentions `self`, and the sig index of the body `{` (`None` for a
    /// declaration ending in `;`).
    fn scan_fn_signature(&self, s: usize) -> (bool, Option<usize>) {
        let mut is_method = false;
        let mut paren = 0i64;
        let mut bracket = 0i64;
        let mut seen_params = false;
        let mut j = s;
        while j < self.sig.len() {
            match self.text(j) {
                "(" => {
                    paren += 1;
                    if paren == 1 && !seen_params {
                        seen_params = true;
                    }
                }
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "self" if paren >= 1 && seen_params => is_method = true,
                "{" if paren == 0 && bracket == 0 && seen_params => return (is_method, Some(j)),
                ";" if paren == 0 && bracket == 0 => return (is_method, None),
                _ => {}
            }
            j += 1;
        }
        (is_method, None)
    }

    /// From a `for` sig index inside a body: collects the identifiers of
    /// the iterated expression (between `in` and the loop `{`).
    fn scan_for_header(&self, s: usize, in_test: bool) -> Option<ForLoop> {
        let line = self.line(s);
        let mut j = s + 1;
        let mut depth = 0i64;
        // Find the `in` at pattern depth 0 (destructuring tuples nest).
        while j < self.sig.len() {
            match self.text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "in" if depth == 0 => break,
                "{" | ";" => return None, // not a for-loop header
                _ => {}
            }
            j += 1;
            if j > s + 64 {
                return None; // runaway; not a loop header we understand
            }
        }
        let mut idents = Vec::new();
        let mut d = 0i64;
        let mut k = j + 1;
        while k < self.sig.len() {
            let t = self.text(k);
            match t {
                "(" | "[" => d += 1,
                ")" | "]" => d -= 1,
                "{" if d == 0 => break,
                ";" => return None,
                _ => {
                    if self.kind(k) == Some(TokenKind::Ident) {
                        idents.push(t.trim_start_matches("r#").to_string());
                    }
                }
            }
            k += 1;
            if k > j + 128 {
                break;
            }
        }
        Some(ForLoop {
            expr_idents: idents,
            line,
            in_test,
        })
    }

    /// From an Ident sig index inside a body: classifies a call site, if
    /// the identifier heads one.
    fn scan_call(&self, s: usize) -> Option<CallSite> {
        let name = self.text(s);
        let prev = if s > 0 { self.text(s - 1) } else { "" };
        if prev == "fn" {
            return None; // definition, not a call
        }
        let line = self.line(s);
        let is_method = prev == ".";
        if !is_method && CALL_KEYWORDS.contains(&name) {
            return None;
        }
        // What follows: `(`, `!(`-ish, or a turbofish then `(`.
        let mut after = s + 1;
        if self.text(after) == "::" && self.text(after + 1) == "<" {
            // Turbofish: skip the matched angle-bracket group.
            let mut angle = 0i64;
            let mut j = after + 1;
            while j < self.sig.len() {
                match self.text(j) {
                    "<" | "<<" => angle += if self.text(j) == "<<" { 2 } else { 1 },
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    ";" | "{" => return None,
                    _ => {}
                }
                if angle <= 0 {
                    break;
                }
                j += 1;
                if j > after + 128 {
                    return None;
                }
            }
            after = j + 1;
        } else if self.text(after) == "::" {
            // Mid-path segment (`Vec::new` seen at `Vec`): only the last
            // segment heads the call; skip here, handle at `new`.
            return None;
        }
        let next = self.text(after);
        let is_macro = next == "!" && matches!(self.text(after + 1), "(" | "[" | "{") && !is_method;
        if !is_macro && next != "(" {
            return None;
        }
        // Build the full path by walking back over `Ident ::` pairs.
        let mut first = s;
        let mut path = name.trim_start_matches("r#").to_string();
        if !is_method {
            while first >= 2
                && self.text(first - 1) == "::"
                && self.kind(first - 2) == Some(TokenKind::Ident)
            {
                path = format!(
                    "{}::{}",
                    self.text(first - 2).trim_start_matches("r#"),
                    path
                );
                first -= 2;
            }
            // A path headed by `.` is a method call chain continuation
            // handled at its own head; `a.b::c()` is not valid Rust.
        }
        if is_macro {
            path.push('!');
        }
        // Receiver for method calls: the identifier just before the dot,
        // looking through one `[…]` index group (`self.map[k].iter()`).
        let recv = if is_method {
            let mut r = s.checked_sub(2);
            if let Some(mut ri) = r {
                if self.text(ri) == "]" {
                    let mut depth = 0i64;
                    while ri > 0 {
                        match self.text(ri) {
                            "]" => depth += 1,
                            "[" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        ri -= 1;
                    }
                    r = ri.checked_sub(1);
                }
            }
            r.filter(|&ri| self.kind(ri) == Some(TokenKind::Ident))
                .map(|ri| self.text(ri).trim_start_matches("r#").to_string())
        } else {
            None
        };
        // The method a call chains onto: `.` then the previous call's
        // closing `)`, whose matching `(` follows `.name`.
        let chained_on = if is_method && s >= 2 && self.text(s - 2) == ")" {
            let mut depth = 0i64;
            let mut j = s - 2;
            loop {
                match self.text(j) {
                    ")" => depth += 1,
                    "(" => depth -= 1,
                    _ => {}
                }
                if depth == 0 || j == 0 {
                    break;
                }
                j -= 1;
            }
            (depth == 0
                && j >= 2
                && self.kind(j - 1) == Some(TokenKind::Ident)
                && self.text(j - 2) == ".")
                .then(|| self.text(j - 1).trim_start_matches("r#").to_string())
        } else {
            None
        };
        Some(CallSite {
            path,
            recv,
            chained_on,
            is_method,
            is_macro,
            line,
        })
    }

    /// From a `HashMap`/`HashSet` sig index: finds the bound identifier
    /// this type annotates or initializes (`windows: HashMap<…>`,
    /// `let m = HashMap::new()`, `m: Vec<HashMap<…>>`).
    fn hash_binding_name(&self, s: usize) -> Option<String> {
        let mut j = s;
        let mut steps = 0;
        while j > 0 {
            j -= 1;
            steps += 1;
            if steps > 24 {
                return None;
            }
            match self.text(j) {
                ":" | "=" => {
                    // Token before the `:`/`=` is the binding name.
                    let k = j.checked_sub(1)?;
                    if self.kind(k) == Some(TokenKind::Ident) {
                        let name = self.text(k);
                        if !CALL_KEYWORDS.contains(&name) {
                            return Some(name.trim_start_matches("r#").to_string());
                        }
                    }
                    return None;
                }
                // `::` is part of a path prefix (`std::collections::HashMap`):
                // keep walking toward the binding.
                ";" | "{" | "}" | "(" | "," => return None,
                _ => {}
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_defs_get_impl_context_and_methodness() {
        let items = parse(
            "impl Sm {\n    pub fn tick(&mut self, now: u64) { self.fetch(now); }\n    fn helper(x: u32) -> u32 { x }\n}\nfn free() {}\n",
        );
        let names: Vec<String> = items.fns.iter().map(FnDef::qualified).collect();
        assert_eq!(names, ["Sm::tick", "Sm::helper", "free"]);
        assert!(items.fns[0].is_method);
        assert!(!items.fns[1].is_method);
        assert_eq!(items.fns[0].calls.len(), 1);
        assert_eq!(items.fns[0].calls[0].path, "fetch");
        assert!(items.fns[0].calls[0].is_method);
    }

    #[test]
    fn trait_impls_take_the_type_after_for() {
        let items = parse(
            "impl fmt::Display for Violation {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write!(f, \"x\") }\n}\n",
        );
        assert_eq!(items.fns[0].qualified(), "Violation::fmt");
        assert!(items.fns[0].calls.iter().any(|c| c.path == "write!"));
    }

    #[test]
    fn generic_impls_resolve_the_base_type() {
        let items = parse("impl<T: Clone> Stack<T> {\n    fn push(&mut self, t: T) {}\n}\n");
        assert_eq!(items.fns[0].qualified(), "Stack::push");
    }

    #[test]
    fn path_calls_methods_and_macros_are_distinguished() {
        let items = parse(
            "fn f() {\n    let v = Vec::new();\n    let w = vec![1];\n    let s: Vec<u32> = w.iter().copied().collect::<Vec<u32>>();\n    Self::helper();\n    std::mem::take(&mut s);\n}\n",
        );
        let calls = &items.fns[0].calls;
        let paths: Vec<&str> = calls.iter().map(|c| c.path.as_str()).collect();
        assert!(paths.contains(&"Vec::new"));
        assert!(paths.contains(&"vec!"));
        assert!(paths.contains(&"collect"));
        assert!(paths.contains(&"Self::helper"));
        assert!(paths.contains(&"std::mem::take"));
        let collect = calls.iter().find(|c| c.path == "collect").unwrap();
        assert!(collect.is_method);
    }

    #[test]
    fn nested_fns_own_their_calls_but_closures_do_not() {
        let items = parse(
            "fn outer() {\n    fn inner() { alloc_here(); }\n    let c = || in_closure();\n    c();\n}\n",
        );
        let outer = items.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = items.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.calls.iter().any(|c| c.path == "in_closure"));
        assert!(!outer.calls.iter().any(|c| c.path == "alloc_here"));
        assert!(inner.calls.iter().any(|c| c.path == "alloc_here"));
    }

    #[test]
    fn cfg_test_regions_cover_modules_and_single_items() {
        let items = parse(
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn lib2() {}\n#[cfg(test)]\nuse std::fmt;\n",
        );
        assert!(!items.in_test(1));
        assert!(items.in_test(3));
        assert!(items.in_test(4));
        assert!(!items.in_test(6));
        assert!(items.in_test(8));
        let t = items.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.in_test);
    }

    #[test]
    fn for_loop_headers_collect_iterated_idents() {
        let items = parse(
            "fn f(m: &std::collections::HashMap<u32, u32>) {\n    for (k, v) in m.iter() { use_it(k, v); }\n    for i in 0..10 { use_it(i, i); }\n}\n",
        );
        assert_eq!(items.for_loops.len(), 2);
        assert!(items.for_loops[0].expr_idents.contains(&"m".to_string()));
        assert!(items.hash_idents.contains("m"));
    }

    #[test]
    fn hash_bindings_found_in_fields_lets_and_nested_types() {
        let items = parse(
            "struct S {\n    windows: HashMap<usize, W>,\n    fills: Vec<HashMap<u64, Vec<R>>>,\n}\nfn f() {\n    let m = HashMap::new();\n    let s: HashSet<u32> = HashSet::new();\n}\n",
        );
        for name in ["windows", "fills", "m", "s"] {
            assert!(items.hash_idents.contains(name), "{name} not found");
        }
    }

    #[test]
    fn allows_parse_rules_and_justifications() {
        let items = parse(
            "// capacity fixed at construction; xtask-allow: no-tick-alloc\nfn a() {}\n// xtask-allow: determinism -- drained in sorted order below\nfn b() {}\n// xtask-allow: no-unwrap\nfn c() {}\n",
        );
        let a = items.allow_for(2, "no-tick-alloc").unwrap();
        assert_eq!(
            a.justification.as_deref(),
            Some("capacity fixed at construction")
        );
        let b = items.allow_for(4, "determinism").unwrap();
        assert_eq!(
            b.justification.as_deref(),
            Some("drained in sorted order below")
        );
        let c = items.allow_for(6, "no-unwrap").unwrap();
        assert!(c.justification.is_none());
    }

    #[test]
    fn module_docs_detection_allows_inner_attributes() {
        assert!(parse("//! Docs.\nfn f() {}\n").has_module_docs);
        assert!(parse("#![allow(dead_code)]\n//! Docs.\nfn f() {}\n").has_module_docs);
        assert!(!parse("/// outer doc\nfn f() {}\n").has_module_docs);
        assert!(!parse("fn f() {}\n").has_module_docs);
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let items = parse("trait T {\n    fn tick(&mut self, now: u64);\n    fn with_default(&self) { self.tick(0); }\n}\n");
        let decl = items.fns.iter().find(|f| f.name == "tick").unwrap();
        assert!(decl.body_lines.is_none());
        let def = items.fns.iter().find(|f| f.name == "with_default").unwrap();
        assert!(def.body_lines.is_some());
    }

    #[test]
    fn method_receivers_look_through_index_groups() {
        let items = parse(
            "fn f(&self) {\n    self.pending_fills[ch].get_mut(&k);\n    self.windows.iter();\n}\n",
        );
        let calls = &items.fns[0].calls;
        let gm = calls.iter().find(|c| c.path == "get_mut").unwrap();
        assert_eq!(gm.recv.as_deref(), Some("pending_fills"));
        let it = calls.iter().find(|c| c.path == "iter").unwrap();
        assert_eq!(it.recv.as_deref(), Some("windows"));
    }
}
