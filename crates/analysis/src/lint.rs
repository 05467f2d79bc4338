//! `sci-lint` — dependency-free source-level concurrency/determinism
//! lints (SCI-A3xx).
//!
//! The federation's chaos suite and seed-replay tests only hold if the
//! seeded paths really are deterministic and the telemetry names
//! really match the central catalogue. Three textual passes keep those
//! invariants from rotting:
//!
//! * **SCI-A301** — nondeterministic sources (`Instant::now`,
//!   `SystemTime::now`, `thread_rng`, `rand::random`, `from_entropy`)
//!   in non-test library code. Telemetry timing is legitimately
//!   wall-clock; such sites carry a
//!   `// sci-lint: allow(wall-clock): <reason>` marker.
//! * **SCI-A302** — metric names passed to `.counter("…")`,
//!   `.gauge("…")` or `.histogram("…")` that the central catalogue
//!   (`sci-telemetry::catalogue`) does not list. Dynamically built
//!   names (`format!`) are out of scope by construction.
//! * **SCI-A304** — a call to a Context Server `*_impl` method or to
//!   `mark_failed` outside the dispatcher's two files: a mutation the
//!   range's command log never sees.
//! * **SCI-A305** — in `sci-types`, `sci-event`, `sci-core` and
//!   `sci-overlay`, a map or set built on `std`'s per-process hasher
//!   (`HashMap::new(`, `HashSet::with_capacity(`, …, `RandomState`,
//!   `DefaultHasher`) instead of `sci_types`' fixed-seed one.
//!
//! SCI-A303 (drift between `RangeCommand`'s variants and its `KINDS`
//! table) is retired: `KINDS` is the on-disk tag table, and
//! `durability`'s `command_codec_round_trips` pins it entry by entry.
//!
//! The pass is deliberately textual, not syntactic: it runs from the
//! `sci-lint` binary in CI with zero dependencies beyond `std`, and
//! the patterns it hunts are flat enough that comment/string-aware
//! matching is sufficient. Each check is exposed on its own so fixture
//! tests can feed seeded-violation sources directly.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use sci_types::{AnalysisReport, DiagCode, Diagnostic};

// ---------------------------------------------------------------------
// Source scrubbing
// ---------------------------------------------------------------------

/// Returns `source` with comments blanked out, and string-literal
/// *contents* blanked too unless `keep_strings`. The result has the
/// same length and the same newlines as the input, so byte offsets and
/// line numbers computed against it hold in the original.
fn scrub(source: &str, keep_strings: bool) -> String {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }
    let bytes = source.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut state = State::Code;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match state {
            State::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    out.push(b' ');
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    out.push(b' ');
                } else if b == b'"' {
                    state = State::Str;
                    out.push(b'"');
                } else if b == b'r' && raw_str_hashes(bytes, i).is_some() {
                    let hashes = raw_str_hashes(bytes, i).unwrap_or(0);
                    // Emit `r##"` verbatim, then scrub the body.
                    out.push(b'r');
                    out.extend(std::iter::repeat_n(b'#', hashes as usize));
                    out.push(b'"');
                    i += 1 + hashes as usize + 1;
                    state = State::RawStr(hashes);
                    continue;
                } else if b == b'\'' {
                    // Distinguish a char literal from a lifetime: a
                    // literal closes within a few bytes (`'x'`,
                    // `'\n'`, `'\\'`, `'\u{…}'`); a lifetime never
                    // closes. Blank literal contents so `'"'` cannot
                    // open a phantom string state.
                    if let Some(end) = char_literal_end(bytes, i) {
                        out.push(b'\'');
                        out.extend(std::iter::repeat_n(b' ', end - (i + 1)));
                        out.push(b'\'');
                        i = end + 1;
                        continue;
                    }
                    out.push(b);
                } else {
                    out.push(b);
                }
            }
            State::LineComment => {
                if b == b'\n' {
                    state = State::Code;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
            }
            State::BlockComment(depth) => {
                if b == b'\n' {
                    out.push(b'\n');
                } else if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    continue;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                    state = State::BlockComment(depth + 1);
                    continue;
                } else {
                    out.push(b' ');
                }
            }
            State::Str => {
                if b == b'\\' {
                    out.push(if keep_strings { b } else { b' ' });
                    if let Some(&next) = bytes.get(i + 1) {
                        out.push(match (keep_strings, next) {
                            (true, _) => next,
                            (false, b'\n') => b'\n',
                            (false, _) => b' ',
                        });
                        i += 2;
                        continue;
                    }
                } else if b == b'"' {
                    state = State::Code;
                    out.push(b'"');
                } else if b == b'\n' {
                    out.push(b'\n');
                } else {
                    out.push(if keep_strings { b } else { b' ' });
                }
            }
            State::RawStr(hashes) => {
                if b == b'"' && closes_raw(bytes, i, hashes) {
                    out.push(b'"');
                    out.extend(std::iter::repeat_n(b'#', hashes as usize));
                    i += 1 + hashes as usize;
                    state = State::Code;
                    continue;
                } else if b == b'\n' {
                    out.push(b'\n');
                } else {
                    out.push(if keep_strings { b } else { b' ' });
                }
            }
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// If `bytes[at] == 'r'` starts a raw string (`r"`, `r#"`, …), the
/// number of `#`s; `None` otherwise.
fn raw_str_hashes(bytes: &[u8], at: usize) -> Option<u32> {
    let mut j = at + 1;
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&b'"')).then_some(hashes)
}

/// Whether the `"` at `at` is followed by `hashes` `#`s, closing a raw
/// string.
fn closes_raw(bytes: &[u8], at: usize, hashes: u32) -> bool {
    (0..hashes as usize).all(|k| bytes.get(at + 1 + k) == Some(&b'#'))
}

/// The index of the closing quote of a char literal starting at `at`,
/// or `None` when `'` introduces a lifetime instead.
fn char_literal_end(bytes: &[u8], at: usize) -> Option<usize> {
    if bytes.get(at + 1) == Some(&b'\\') {
        // Escaped: scan to the next unescaped quote within a short
        // window (covers `'\u{10ffff}'`).
        let mut j = at + 2;
        while j < bytes.len() && j - at < 12 {
            if bytes[j] == b'\'' {
                return Some(j);
            }
            j += 1;
        }
        None
    } else if bytes.get(at + 2) == Some(&b'\'') && bytes.get(at + 1) != Some(&b'\'') {
        Some(at + 2)
    } else {
        // Multi-byte char literal (e.g. `'µ'`) or a lifetime. A
        // lifetime's identifier is never followed by `'` before other
        // punctuation; probe a short window for a closing quote with
        // no intervening whitespace.
        let mut j = at + 1;
        while j < bytes.len() && j - at < 6 {
            let c = bytes[j];
            if c == b'\'' {
                return (j > at + 1).then_some(j);
            }
            if c.is_ascii_whitespace() || c == b',' || c == b')' || c == b'>' || c == b';' {
                return None;
            }
            j += 1;
        }
        None
    }
}

/// The portion of `source` before its first test module
/// (`#[cfg(test)]`), which the determinism lints do not apply to.
fn untested_prefix(source: &str) -> &str {
    match source.find("#[cfg(test)]") {
        Some(pos) => &source[..pos],
        None => source,
    }
}

/// 1-indexed line number of byte offset `pos` in `source`.
fn line_of(source: &str, pos: usize) -> usize {
    source.as_bytes()[..pos]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// The full text of the line containing byte offset `pos`.
fn line_text(source: &str, pos: usize) -> &str {
    let start = source[..pos].rfind('\n').map_or(0, |p| p + 1);
    let end = source[pos..].find('\n').map_or(source.len(), |p| pos + p);
    &source[start..end]
}

// ---------------------------------------------------------------------
// SCI-A301 — nondeterminism in seeded paths
// ---------------------------------------------------------------------

/// Calls that make a seeded path unrepeatable. Matched against
/// comment- and string-scrubbed source, so mentions in docs or message
/// text do not fire.
const NONDETERMINISTIC: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "thread_rng",
    "rand::random",
    "from_entropy",
];

/// The marker prefix that exempts a line from SCI-A301 and SCI-A304,
/// written as a trailing comment naming the exemption class and a
/// reason:
/// `// sci-lint: allow(wall-clock): telemetry timing` or
/// `// sci-lint: allow(entropy): deliberate escape hatch`.
pub const ALLOW_MARKER: &str = "sci-lint: allow(";

/// SCI-A301: flags nondeterministic calls in the non-test portion of
/// `source` (reported against `file`), honouring [`ALLOW_MARKER`]
/// comments. Declarations (`fn from_entropy`) are not calls and do
/// not fire.
pub fn check_nondeterminism(file: &str, source: &str) -> Vec<Diagnostic> {
    let checked = untested_prefix(source);
    let scrubbed = scrub(checked, false);
    let mut findings = Vec::new();
    for pattern in NONDETERMINISTIC {
        let mut from = 0;
        while let Some(rel) = scrubbed[from..].find(pattern) {
            let pos = from + rel;
            from = pos + pattern.len();
            let head = scrubbed[..pos].trim_end();
            let is_decl = head.ends_with("fn")
                && !head[..head.len() - 2]
                    .ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
            if is_decl {
                continue; // declaring the escape hatch, not calling it
            }
            if line_text(checked, pos).contains(ALLOW_MARKER) {
                continue;
            }
            findings.push(Diagnostic::new(
                DiagCode::NondeterministicCall,
                format!(
                    "{file}:{}: `{pattern}` in a seeded path; derive from the \
                     run seed or mark `// {ALLOW_MARKER}<class>): <reason>`",
                    line_of(checked, pos),
                ),
            ));
        }
    }
    findings.sort_by_key(|d| d.message.clone());
    findings
}

// ---------------------------------------------------------------------
// SCI-A302 — metric-name drift
// ---------------------------------------------------------------------

/// The central metric catalogue, parsed from
/// `crates/telemetry/src/catalogue.rs` so the lint stays independent
/// of the crates it audits.
#[derive(Clone, Debug, Default)]
pub struct Catalogue {
    names: Vec<String>,
    patterns: Vec<String>,
}

impl Catalogue {
    /// Parses the catalogue source: the string literals of the
    /// `METRICS` and `METRIC_PATTERNS` const tables.
    pub fn parse(source: &str) -> Catalogue {
        Catalogue {
            names: const_table_strings(source, "const METRICS"),
            patterns: const_table_strings(source, "const METRIC_PATTERNS"),
        }
    }

    /// Whether the catalogue parsed any names at all.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Whether `name` is listed, either verbatim or via a single-`*`
    /// family pattern (the `*` matches one non-empty dot-free
    /// segment).
    pub fn contains(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
            || self.patterns.iter().any(|p| pattern_matches(p, name))
    }
}

/// Single-`*` glob: the star stands for exactly one non-empty segment
/// with no `.` in it (mirrors `sci-telemetry::catalogue::matches`).
fn pattern_matches(pattern: &str, name: &str) -> bool {
    let Some((prefix, suffix)) = pattern.split_once('*') else {
        return pattern == name;
    };
    let Some(rest) = name.strip_prefix(prefix) else {
        return false;
    };
    let Some(mid) = rest.strip_suffix(suffix) else {
        return false;
    };
    !mid.is_empty() && !mid.contains('.')
}

/// Extracts the string literals of a `const <marker> …= [ "…" , … ];`
/// table from scrubbed-comment source.
fn const_table_strings(source: &str, marker: &str) -> Vec<String> {
    let commentless = scrub(source, true);
    let Some(start) = commentless.find(marker) else {
        return Vec::new();
    };
    let Some(end_rel) = commentless[start..].find("];") else {
        return Vec::new();
    };
    string_literals(&commentless[start..start + end_rel])
}

/// All `"…"` literal contents in `fragment`, in order.
fn string_literals(fragment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = fragment;
    while let Some(open) = rest.find('"') {
        let body = &rest[open + 1..];
        let Some(close) = body.find('"') else { break };
        out.push(body[..close].to_owned());
        rest = &body[close + 1..];
    }
    out
}

/// SCI-A302: flags metric-name literals passed to `.counter(`,
/// `.gauge(` or `.histogram(` in `source` that `catalogue` does not
/// list. Dynamically built names never match the literal pattern and
/// are skipped by construction.
pub fn check_metric_names(file: &str, source: &str, catalogue: &Catalogue) -> Vec<Diagnostic> {
    let commentless = scrub(untested_prefix(source), true);
    let mut findings = Vec::new();
    for method in ["counter", "gauge", "histogram"] {
        // Built, not written literally, so the lint cannot match its
        // own pattern table when auditing this file.
        let needle = format!(".{method}(");
        let mut from = 0;
        while let Some(rel) = commentless[from..].find(&needle) {
            let pos = from + rel;
            from = pos + needle.len();
            // Skip whitespace (the call may wrap); a following `"`
            // means a literal name.
            let after = &commentless[pos + needle.len()..];
            let trimmed = after.trim_start();
            let Some(body) = trimmed.strip_prefix('"') else {
                continue;
            };
            let Some(close) = body.find('"') else {
                continue;
            };
            let name = &body[..close];
            if !catalogue.contains(name) {
                findings.push(Diagnostic::new(
                    DiagCode::MetricNameDrift,
                    format!(
                        "{file}:{}: metric `{name}` is not in the central \
                         catalogue (crates/telemetry/src/catalogue.rs)",
                        line_of(&commentless, pos),
                    ),
                ));
            }
        }
    }
    findings.sort_by_key(|d| d.message.clone());
    findings
}

// ---------------------------------------------------------------------
// SCI-A304 — mutation behind the command log
// ---------------------------------------------------------------------

/// The two files that may call a Context Server's `*_impl` methods:
/// the one that defines them and the one whose `handle` dispatches to
/// them after appending the command to the range's log.
const DISPATCHER_FILES: &[&str] = &[
    "crates/core/src/context_server.rs",
    "crates/core/src/runtime.rs",
];

/// SCI-A304: flags `.<name>_impl(` and `.mark_failed(` method calls in
/// the non-test portion of `source` — a range mutated without a
/// command, which its log cannot replay. `file` is the
/// workspace-relative path; the dispatcher's two files are exempt, and so
/// is a line carrying an [`ALLOW_MARKER`] comment (a drain, unlogged by
/// design).
pub fn check_back_doors(file: &str, source: &str) -> Vec<Diagnostic> {
    if DISPATCHER_FILES.contains(&file) {
        return Vec::new();
    }
    let checked = untested_prefix(source);
    let scrubbed = scrub(checked, false);
    let mut findings = Vec::new();
    for (pos, _) in scrubbed.match_indices('(') {
        let head = &scrubbed[..pos];
        let ident_at = head
            .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map_or(0, |p| p + 1);
        let ident = &head[ident_at..];
        let is_call = head[..ident_at].ends_with('.');
        if !is_call || !(ident.ends_with("_impl") || ident == "mark_failed") {
            continue;
        }
        if line_text(checked, pos).contains(ALLOW_MARKER) {
            continue;
        }
        findings.push(Diagnostic::new(
            DiagCode::BackDoorMutation,
            format!(
                "{file}:{}: `{ident}` called outside the range dispatcher; build the                  `RangeCommand` and go through `handle`, or mark                  `// {ALLOW_MARKER}back-door): <reason>`",
                line_of(checked, pos),
            ),
        ));
    }
    findings
}

// ---------------------------------------------------------------------
// SCI-A305 — a map outside the one hasher
// ---------------------------------------------------------------------

/// The crates whose every map uses `sci_types::{HashMap, HashSet}`: the
/// event path.
const ONE_HASHER_CRATES: &[&str] = &[
    "crates/types/",
    "crates/event/",
    "crates/core/",
    "crates/overlay/",
];

/// What only `std`'s per-process hasher offers: the constructors that
/// exist for it alone, and its names.
const STD_HASHER: &[&str] = &[
    "HashMap::new(",
    "HashSet::new(",
    "HashMap::with_capacity(",
    "HashSet::with_capacity(",
    "RandomState",
    "DefaultHasher",
];

/// SCI-A305: flags `std`-hasher constructors and names in the non-test
/// portion of `source`, honouring [`ALLOW_MARKER`] comments. A match
/// must stand alone: `FxHashMap::new(` or `MyRandomState` is another
/// type. [`lint_workspace`] runs it on the four event-path crates only.
pub fn check_std_hasher(file: &str, source: &str) -> Vec<Diagnostic> {
    let checked = untested_prefix(source);
    let scrubbed = scrub(checked, false);
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut findings = Vec::new();
    for pattern in STD_HASHER {
        for (pos, _) in scrubbed.match_indices(pattern) {
            let end = pos + pattern.len();
            let joined = scrubbed[..pos].ends_with(ident)
                || (!pattern.ends_with('(') && scrubbed[end..].starts_with(ident));
            if joined || line_text(checked, pos).contains(ALLOW_MARKER) {
                continue;
            }
            findings.push(Diagnostic::new(
                DiagCode::StdHasher,
                format!(
                    "{file}:{}: `{pattern}` uses std's per-process hasher; build \
                     `sci_types::{{HashMap, HashSet}}` with `default()`, or mark \
                     `// {ALLOW_MARKER}std-hasher): <reason>`",
                    line_of(checked, pos),
                ),
            ));
        }
    }
    findings.sort_by_key(|d| d.message.clone());
    findings
}

// ---------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------

/// Runs every pass over the workspace rooted at `root`
/// (expected layout: `crates/*/src/**/*.rs`; `vendor/` and `target/`
/// are never visited). Returns the aggregate report.
pub fn lint_workspace(root: &Path) -> io::Result<AnalysisReport> {
    let mut report = AnalysisReport::new();
    let catalogue_path = root.join("crates/telemetry/src/catalogue.rs");
    let catalogue = match fs::read_to_string(&catalogue_path) {
        Ok(source) => Catalogue::parse(&source),
        Err(_) => Catalogue::default(),
    };
    if catalogue.is_empty() {
        report.push(Diagnostic::new(
            DiagCode::MetricNameDrift,
            format!(
                "{}: central metric catalogue missing or empty — SCI-A302 \
                 cannot vouch for any metric name",
                catalogue_path.display(),
            ),
        ));
    }

    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();

    for path in &files {
        let source = fs::read_to_string(path)?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(path)
            .display()
            .to_string();
        for finding in check_nondeterminism(&label, &source) {
            report.push(finding);
        }
        for finding in check_back_doors(&label, &source) {
            report.push(finding);
        }
        if ONE_HASHER_CRATES.iter().any(|c| label.starts_with(c)) {
            for finding in check_std_hasher(&label, &source) {
                report.push(finding);
            }
        }
        if !catalogue.is_empty() {
            for finding in check_metric_names(&label, &source, &catalogue) {
                report.push(finding);
            }
        }
    }
    Ok(report)
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings_preserving_layout() {
        let src = "let x = \"Instant::now\"; // Instant::now\nlet y = 1;\n";
        let scrubbed = scrub(src, false);
        assert_eq!(scrubbed.len(), src.len());
        assert!(!scrubbed.contains("Instant::now"));
        assert!(scrubbed.contains("let y = 1;"));
        let kept = scrub(src, true);
        assert!(kept.contains("\"Instant::now\""), "strings survive");
        assert!(!kept[kept.find(';').unwrap()..].contains("Instant::now"));
    }

    #[test]
    fn scrub_handles_quote_char_literals_and_lifetimes() {
        let src = "fn f<'a>(c: char) -> &'a str { if c == '\"' { \"q\" } else { \"r\" } }";
        let scrubbed = scrub(src, true);
        assert!(scrubbed.contains("\"q\""), "{scrubbed}");
        assert!(scrubbed.contains("\"r\""), "{scrubbed}");
    }

    #[test]
    fn a301_flags_wall_clock_but_honours_the_marker() {
        let src = "fn tick() {\n    let t = Instant::now();\n}\n";
        let findings = check_nondeterminism("x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, DiagCode::NondeterministicCall);
        assert!(
            findings[0].message.contains("x.rs:2"),
            "{}",
            findings[0].message
        );

        let allowed =
            "fn tick() {\n    let t = Instant::now(); // sci-lint: allow(wall-clock): bench\n}\n";
        assert!(check_nondeterminism("x.rs", allowed).is_empty());
    }

    #[test]
    fn a301_skips_declarations_of_escape_hatches() {
        let src = "pub fn from_entropy() -> Self {\n    Self::seeded(7)\n}\n";
        assert!(check_nondeterminism("x.rs", src).is_empty());
        let call = "let g = GuidGenerator::from_entropy();\n";
        assert_eq!(check_nondeterminism("x.rs", call).len(), 1);
    }

    #[test]
    fn a301_ignores_tests_comments_and_strings() {
        let src = "// Instant::now in prose\nconst P: &str = \"thread_rng\";\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { let _ = Instant::now(); }\n}\n";
        assert!(check_nondeterminism("x.rs", src).is_empty());
    }

    #[test]
    fn a302_flags_unlisted_literals_and_skips_dynamic_names() {
        let catalogue = Catalogue::parse(
            "pub const METRICS: &[&str] = &[\n    \"bus.fanout\",\n];\n\
             pub const METRIC_PATTERNS: &[&str] = &[\"range.cmd.*.count\"];\n",
        );
        assert!(catalogue.contains("bus.fanout"));
        assert!(catalogue.contains("range.cmd.submit.count"));
        assert!(!catalogue.contains("range.cmd.sub.mit.count"));

        let src = "m.counter(\"bus.fanout\").incr(1);\n\
                   m.counter(\"bus.typo\").incr(1);\n\
                   m.histogram(\n    \"range.cmd.ingest.count\",\n);\n\
                   m.counter(&format!(\"range.cmd.{k}.count\")).incr(1);\n";
        let findings = check_metric_names("y.rs", src, &catalogue);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("bus.typo"));
        assert_eq!(findings[0].code, DiagCode::MetricNameDrift);
    }

    #[test]
    fn a304_flags_impl_calls_outside_the_dispatcher() {
        let src = "fn repair(cs: &mut ContextServer) {\n    cs.mark_failed(ce);\n    \
                   cs.ingest_impl(&ev, now);\n    cs.ingest(&ev, now);\n}\n\
                   pub(crate) fn drain_impl(&mut self) {}\n";
        let findings = check_back_doors("crates/core/src/adaptation.rs", src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .all(|d| d.code == DiagCode::BackDoorMutation));
        assert!(findings[0].message.contains("adaptation.rs:2"));
        assert!(findings[1].message.contains("`ingest_impl`"));
        assert!(check_back_doors("crates/core/src/runtime.rs", src).is_empty());

        let allowed = "let d = self.drain_outbox_impl(); // sci-lint: allow(back-door): drain\n";
        assert!(check_back_doors("crates/core/src/relay.rs", allowed).is_empty());
    }
}
