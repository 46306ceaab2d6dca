//! The invariant rules, their scoping tables, and the allow escape
//! hatch.
//!
//! Each rule encodes a failure an earlier PR paid for once; the scoping
//! tables below say *where* a rule applies, and every scope decision is
//! commented so the next reader knows whether an exemption is policy or
//! an accident. Test code (`#[cfg(test)]` / `#[test]` items) is never
//! linted — tests legitimately use hash sets for order-free comparison,
//! scratch-file I/O, and so on.
//!
//! # The escape hatch
//!
//! A finding can be suppressed, with a mandatory reason, by a comment:
//!
//! ```text
//! // oris-lint: allow(det-time) — stats metering only; records never depend on wall clock
//! let t0 = std::time::Instant::now();
//! ```
//!
//! A line-scoped `allow(<rule>)` covers its own line and the next line.
//! `allow-file(<rule>)` covers the whole file (for files whose purpose
//! is the exempted behaviour, e.g. stage timers filling a stats
//! struct). An allow that suppresses nothing is itself an error
//! (`unused-allow`), so stale escapes cannot linger; an allow naming an
//! unknown rule or missing its `— reason` is a `bad-allow` error.

use crate::lexer::{lex, test_mask, Lexed};
use crate::Finding;

/// Rule names an `allow(...)` may target.
pub const ALLOWABLE_RULES: &[&str] = &[
    "float-ord",
    "io-seam",
    "unsafe-safety",
    "det-hash",
    "det-time",
    "narrow-cast",
];

/// Crates whose non-test code may feed a sink or writer — the det-hash
/// scope. `oris-bench` (a measurement harness whose outputs are timing
/// tables) and `oris-simulate` (test-data generation) sit outside every
/// result path; `oris-lint` itself emits findings it sorts explicitly.
const HASH_SCOPE: &[&str] = &[
    "oris",
    "oris-core",
    "oris-eval",
    "oris-blast",
    "oris-db",
    "oris-index",
    "oris-align",
    "oris-seqio",
    "oris-cli",
];

/// det-time: the one crate allowed to touch `Instant`/`SystemTime`.
/// `oris-obs` owns the process clock (the monotonic epoch behind
/// `monotonic_now`, `Stopwatch`, and the `Clock` trait); every other
/// crate — bench and the old deadline/timing modules included — must go
/// through it, so a wall-clock read anywhere else is a bug, not a
/// style choice.
const TIME_EXEMPT_CRATES: &[&str] = &["oris-obs"];

/// io-seam applies only inside the database crate…
const IO_SEAM_CRATE: &str = "oris-db";

/// …and not to the seam itself (`io.rs` is where the filesystem is
/// *allowed* to appear) nor the `makedb` write path: build-time writes
/// target a directory the operator owns, and the fault model worth
/// testing is the serving path (see `oris-db/src/io.rs` module docs).
const IO_SEAM_EXEMPT_FILES: &[&str] = &["io.rs", "makedb.rs"];

/// narrow-cast: the crates doing residue/offset arithmetic where a
/// 32-bit truncation has already bitten once (PR 5's `SubjectSpace`
/// residue total).
const NARROW_SCOPE: &[&str] = &["oris-index", "oris-db"];

/// Cast targets that narrow on the LP64 targets this project supports.
/// `as usize` is deliberately absent: it widens from `u32` (the
/// dominant cast here), and the persist layer validates counts against
/// `u32::MAX` before any `u64 → usize` could matter.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier fragments that smell like length/offset/residue
/// arithmetic. `c as u32` (a 2-bit base code widening) passes;
/// `pos as u32` and `x.len() as u32` must justify themselves.
const SUSPECT_FRAGMENTS: &[&str] = &[
    "len", "pos", "total", "residue", "offset", "count", "size", "sum",
];

/// Identity of the file being checked, used for rule scoping.
pub struct FileCtx<'a> {
    /// Cargo package name, e.g. `oris-db`.
    pub crate_name: &'a str,
    /// File name only, e.g. `session.rs`.
    pub file_name: &'a str,
    /// Workspace-relative path used in findings.
    pub rel_path: &'a str,
}

/// Result of checking one file.
pub struct FileReport {
    /// Findings after allow-filtering (includes `unused-allow` /
    /// `bad-allow` meta findings).
    pub findings: Vec<Finding>,
    /// Non-test `unsafe` occurrences (blocks, impls, *and* fn
    /// signatures), for the per-crate budget.
    pub unsafe_sites: usize,
}

#[derive(Debug)]
struct Allow {
    line: usize,
    rule: String,
    file_scope: bool,
    used: bool,
}

/// Parses `// oris-lint: allow(<rule>) — <reason>` directives.
fn parse_allows(lx: &Lexed, ctx: &FileCtx, findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (line, info) in lx.lines.iter().enumerate() {
        // Directives live in plain `//` (or `/* */`) comments only. Doc
        // comments quote the syntax when documenting it — including this
        // crate's own docs — and must never act as suppressions.
        let Some(at) = info.plain_comment.find("oris-lint:") else {
            continue;
        };
        let rest = info.plain_comment[at + "oris-lint:".len()..].trim_start();
        let (file_scope, rest) = if let Some(r) = rest.strip_prefix("allow-file(") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("allow(") {
            (false, r)
        } else {
            findings.push(Finding {
                file: ctx.rel_path.to_string(),
                line,
                rule: "bad-allow",
                message: "malformed oris-lint directive: expected `allow(<rule>)` or \
                          `allow-file(<rule>)`"
                    .to_string(),
            });
            continue;
        };
        let Some(close) = rest.find(')') else {
            findings.push(Finding {
                file: ctx.rel_path.to_string(),
                line,
                rule: "bad-allow",
                message: "unclosed `allow(` directive".to_string(),
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !ALLOWABLE_RULES.contains(&rule.as_str()) {
            findings.push(Finding {
                file: ctx.rel_path.to_string(),
                line,
                rule: "bad-allow",
                message: format!(
                    "unknown rule `{rule}` in allow (allowable: {})",
                    ALLOWABLE_RULES.join(", ")
                ),
            });
            continue;
        }
        // The reason is not optional: an escape hatch without a written
        // justification is how invariants rot.
        let after = rest[close + 1..].trim_start();
        let reason = after
            .strip_prefix('—')
            .or_else(|| after.strip_prefix('–'))
            .or_else(|| after.strip_prefix('-'))
            .map(str::trim)
            .unwrap_or("");
        if reason.is_empty() {
            findings.push(Finding {
                file: ctx.rel_path.to_string(),
                line,
                rule: "bad-allow",
                message: format!("allow({rule}) needs a reason: `allow({rule}) — <why>`"),
            });
            continue;
        }
        allows.push(Allow {
            line,
            rule,
            file_scope,
            used: false,
        });
    }
    allows
}

fn suppressed(allows: &mut [Allow], rule: &str, line: usize) -> bool {
    // Line-scoped allows are preferred over file-scoped ones so a
    // file-level escape does not mask (and mark stale) a line-level one.
    if let Some(a) = allows
        .iter_mut()
        .filter(|a| a.rule == rule && !a.file_scope)
        .find(|a| a.line == line || a.line + 1 == line)
    {
        a.used = true;
        return true;
    }
    if let Some(a) = allows.iter_mut().find(|a| a.rule == rule && a.file_scope) {
        a.used = true;
        return true;
    }
    false
}

/// Whether a `// SAFETY:` comment covers the unsafe site on `line`: on
/// the line itself, or in the run of comment-only lines directly above
/// it (a blank or code line ends the run — the comment must be
/// attached).
fn has_safety_comment(lx: &Lexed, line: usize) -> bool {
    if lx.comment(line).contains("SAFETY:") {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 && !lx.has_code(l) && !lx.comment(l).is_empty() {
        if lx.comment(l).contains("SAFETY:") {
            return true;
        }
        l -= 1;
    }
    false
}

/// Runs every rule over one file.
pub fn check_file(ctx: &FileCtx, src: &str) -> FileReport {
    let lx = lex(src);
    let mask = test_mask(&lx.toks);
    let mut findings = Vec::new();
    let mut allows = parse_allows(&lx, ctx, &mut findings);
    let mut unsafe_sites = 0usize;

    // Candidate findings before allow-filtering: (line, rule, message).
    let mut raw: Vec<(usize, &'static str, String)> = Vec::new();

    let t = |k: usize| lx.toks.get(k).map(|x| x.text.as_str()).unwrap_or("");
    let in_hash_scope = HASH_SCOPE.contains(&ctx.crate_name);
    let in_time_scope = !TIME_EXEMPT_CRATES.contains(&ctx.crate_name);
    let in_io_scope =
        ctx.crate_name == IO_SEAM_CRATE && !IO_SEAM_EXEMPT_FILES.contains(&ctx.file_name);
    let in_narrow_scope = NARROW_SCOPE.contains(&ctx.crate_name);

    for (i, masked) in mask.iter().enumerate() {
        if *masked {
            continue;
        }
        let line = lx.toks[i].line;
        let tx = t(i);

        // float-ord — PR 2: an e-value `partial_cmp().unwrap()` sort
        // panicked on NaN. Applies everywhere: a float total order is
        // never wrong, and `fn partial_cmp` trait impls are not calls.
        if tx == "partial_cmp" && i > 0 && t(i - 1) == "." {
            raw.push((
                line,
                "float-ord",
                "`.partial_cmp` ordering: use `f64::total_cmp` / `M8Record::total_order` \
                 (NaN-safe total order; PR 2's e-value sort panicked on NaN)"
                    .to_string(),
            ));
        }

        // io-seam — PR 6: every database read must flow through
        // `VolumeIo` or fault injection silently loses coverage.
        if in_io_scope {
            let hit = (tx == "std" && t(i + 1) == "::" && t(i + 2) == "fs")
                || (tx == "File"
                    && t(i + 1) == "::"
                    && (t(i + 2) == "open" || t(i + 2) == "create"))
                || matches!(tx, "OpenOptions" | "read_dir" | "read_to_string")
                || matches!(tx, "read_index_file" | "map_index_file" | "Mapping")
                || (i > 0
                    && t(i - 1) == "."
                    && matches!(
                        tx,
                        "exists" | "metadata" | "symlink_metadata" | "canonicalize"
                    ));
            if hit {
                raw.push((
                    line,
                    "io-seam",
                    "direct filesystem/index access in oris-db: route reads through the \
                     `VolumeIo` seam (io.rs) so `FaultyIo` provably covers them (PR 6); \
                     the makedb write path is allowlisted"
                        .to_string(),
                ));
            }
        }

        // unsafe discipline — every block/impl explains itself; the
        // count feeds the per-crate budget. `unsafe fn` signatures are
        // counted but not comment-checked: the caller-side obligation
        // lives in their `# Safety` docs (clippy::missing_safety_doc).
        if tx == "unsafe" {
            unsafe_sites += 1;
            if t(i + 1) != "fn" && !has_safety_comment(&lx, line) {
                raw.push((
                    line,
                    "unsafe-safety",
                    "`unsafe` block/impl without a `// SAFETY:` comment directly above it"
                        .to_string(),
                ));
            }
        }

        // det-hash — PR 4: output must be byte-identical for any thread
        // count; hash iteration order feeding a sink/writer breaks that.
        if in_hash_scope && (tx == "HashMap" || tx == "HashSet") {
            let is_use_line = lx
                .raw
                .get(line - 1)
                .map(|l| l.trim_start().starts_with("use "))
                .unwrap_or(false);
            if !is_use_line {
                raw.push((
                    line,
                    "det-hash",
                    "HashMap/HashSet in a result-path crate: iteration order is \
                     nondeterministic (PR 4 byte-identity) — sort before anything reaches \
                     a sink/writer and allow with that justification, or use an ordered \
                     structure"
                        .to_string(),
                ));
            }
        }

        // det-time — wall-clock reads outside the clock-owning crate.
        if in_time_scope
            && (tx == "Instant" || tx == "SystemTime")
            && t(i + 1) == "::"
            && t(i + 2) == "now"
        {
            raw.push((
                line,
                "det-time",
                "wall-clock read outside `oris-obs`: results must not depend on time — \
                 use `oris_obs::Stopwatch` / `monotonic_now` (the one sanctioned clock), \
                 or allow with a justification for why this read cannot go through it"
                    .to_string(),
            ));
        }

        // narrow-cast — PR 5: a residue total truncated at 32 bits.
        if in_narrow_scope && tx == "as" && NARROW_TARGETS.contains(&t(i + 1)) && i > 0 {
            let prev = t(i - 1);
            let computed = prev == ")" || prev == "]";
            let suspect = prev
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
                && {
                    let low = prev.to_ascii_lowercase();
                    SUSPECT_FRAGMENTS.iter().any(|f| low.contains(f))
                };
            if computed || suspect {
                raw.push((
                    line,
                    "narrow-cast",
                    format!(
                        "narrowing `as {}` on length/offset arithmetic: use \
                         `try_from`/`try_into` (PR 5's residue total truncated at 32 bits) \
                         or allow naming the guard that bounds the value",
                        t(i + 1)
                    ),
                ));
            }
        }
    }

    // One finding per (line, rule): several tokens on a line (e.g.
    // `HashMap<…> = HashMap::new()`) are one decision for the reader.
    raw.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    raw.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);

    for (line, rule, message) in raw {
        if !suppressed(&mut allows, rule, line) {
            findings.push(Finding {
                file: ctx.rel_path.to_string(),
                line,
                rule,
                message,
            });
        }
    }

    for a in &allows {
        if !a.used {
            findings.push(Finding {
                file: ctx.rel_path.to_string(),
                line: a.line,
                rule: "unused-allow",
                message: format!(
                    "allow({}) suppresses nothing — the violation it excused is gone; \
                     remove the comment",
                    a.rule
                ),
            });
        }
    }

    findings.sort();
    FileReport {
        findings,
        unsafe_sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(krate: &'a str, file: &'a str) -> FileCtx<'a> {
        FileCtx {
            crate_name: krate,
            file_name: file,
            rel_path: file,
        }
    }

    fn rules_of(report: &FileReport) -> Vec<&'static str> {
        report.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn directives_in_doc_comments_are_inert() {
        // Docs quoting the syntax (as this crate's own docs do) must
        // neither suppress findings nor count as bad/unused allows.
        let src = "\
//! Escapes: `// oris-lint: allow(<rule>) — <reason>`.

/// Example: `// oris-lint: allow(det-time) — stats only`.
fn doc_target() {}
";
        let r = check_file(&ctx("oris-core", "x.rs"), src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn fn_partial_cmp_impl_is_not_a_call() {
        let src = "impl PartialOrd for W { fn partial_cmp(&self, o: &W) -> Option<Ordering> { Some(self.cmp(o)) } }";
        let r = check_file(&ctx("oris-core", "sink.rs"), src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn line_allow_covers_next_line_only() {
        let src = "\
// oris-lint: allow(det-time) — stats only
fn a() { let t = Instant::now(); }
fn b() { let t = Instant::now(); }
";
        let r = check_file(&ctx("oris-core", "engine.rs"), src);
        assert_eq!(rules_of(&r), vec!["det-time"]);
        assert_eq!(r.findings[0].line, 3);
    }

    #[test]
    fn file_allow_covers_everything_and_counts_as_used() {
        let src = "\
// oris-lint: allow-file(det-time) — this module is a stage timer
fn a() { let t = Instant::now(); }
fn b() { let t = Instant::now(); }
";
        let r = check_file(&ctx("oris-blast", "engine.rs"), src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn allow_without_reason_is_bad() {
        let src = "// oris-lint: allow(det-time)\nfn a() { let t = Instant::now(); }\n";
        let r = check_file(&ctx("oris-core", "engine.rs"), src);
        assert!(rules_of(&r).contains(&"bad-allow"));
        assert!(rules_of(&r).contains(&"det-time"));
    }

    #[test]
    fn unknown_rule_in_allow_is_bad() {
        let src = "// oris-lint: allow(no-such-rule) — because\nfn a() {}\n";
        let r = check_file(&ctx("oris-core", "engine.rs"), src);
        assert_eq!(rules_of(&r), vec!["bad-allow"]);
    }

    #[test]
    fn unsafe_fn_signature_needs_no_comment_but_counts() {
        let src = "pub unsafe fn alloc(&self) -> *mut u8 { core() }";
        let r = check_file(&ctx("oris-bench", "memtrack.rs"), src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.unsafe_sites, 1);
    }

    #[test]
    fn consecutive_unsafe_impls_need_their_own_comments() {
        let src = "\
// SAFETY: read-only view.
unsafe impl Send for X {}
unsafe impl Sync for X {}
";
        let r = check_file(&ctx("oris-index", "section.rs"), src);
        assert_eq!(rules_of(&r), vec!["unsafe-safety"]);
        assert_eq!(r.findings[0].line, 3);
        assert_eq!(r.unsafe_sites, 2);
    }

    #[test]
    fn hash_in_use_statement_is_not_flagged() {
        let src = "use std::collections::HashMap;\nfn f(m: HashMap<u8, u8>) {}\n";
        let r = check_file(&ctx("oris-core", "x.rs"), src);
        assert_eq!(rules_of(&r), vec!["det-hash"]);
        assert_eq!(r.findings[0].line, 2);
    }

    #[test]
    fn obs_crate_owns_the_clock() {
        // oris-obs is the one crate that may read the wall clock.
        let src = "fn f() { let t = Instant::now(); }";
        let r = check_file(&ctx("oris-obs", "clock.rs"), src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn bench_crate_keeps_det_hash_exemption_but_not_det_time() {
        // oris-bench lost its det-time blanket when the clock moved into
        // oris-obs: its timing goes through `Stopwatch` like everyone
        // else's. Hash iteration in the harness stays fine (its outputs
        // are timing tables, not result records).
        let src = "fn f() { let t = Instant::now(); let h: HashMap<u8,u8> = HashMap::new(); }";
        let r = check_file(&ctx("oris-bench", "lib.rs"), src);
        assert_eq!(rules_of(&r), vec!["det-time"]);
    }

    #[test]
    fn formerly_exempt_time_modules_are_in_scope() {
        // deadline.rs and timing.rs had file-level exemptions before the
        // clock was centralised; a raw read there is now a finding.
        let src = "fn f() { let t = Instant::now(); }";
        for (krate, file) in [("oris-core", "deadline.rs"), ("oris-eval", "timing.rs")] {
            let r = check_file(&ctx(krate, file), src);
            assert_eq!(rules_of(&r), vec!["det-time"], "{krate}/{file}");
        }
    }

    #[test]
    fn widening_base_code_cast_passes_narrow_rule() {
        let src = "fn f(c: u8) -> u32 { (c as u32) << 2 }";
        let r = check_file(&ctx("oris-index", "seedcode.rs"), src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn len_cast_is_flagged_in_scope_only() {
        let src = "fn f(v: &[u8]) -> u32 { v.len() as u32 }";
        let r = check_file(&ctx("oris-index", "structure.rs"), src);
        assert_eq!(rules_of(&r), vec!["narrow-cast"]);
        // Same source in a crate outside the narrow scope: clean.
        let r = check_file(&ctx("oris-core", "structure.rs"), src);
        assert!(r.findings.is_empty());
    }

    #[test]
    fn test_code_is_exempt_from_all_rules() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() {
        let _ = a.partial_cmp(b);
        let _ = Instant::now();
        let h = HashSet::new();
        unsafe { danger() }
    }
}
";
        let r = check_file(&ctx("oris-core", "x.rs"), src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.unsafe_sites, 0);
    }

    #[test]
    fn io_seam_flags_and_exempts() {
        let src = "fn f() { let b = std::fs::read(p); }";
        let r = check_file(&ctx("oris-db", "session.rs"), src);
        assert_eq!(rules_of(&r), vec!["io-seam"]);
        // The seam itself and the write path are allowlisted.
        assert!(check_file(&ctx("oris-db", "io.rs"), src)
            .findings
            .is_empty());
        assert!(check_file(&ctx("oris-db", "makedb.rs"), src)
            .findings
            .is_empty());
        // Other crates read files freely.
        assert!(check_file(&ctx("oris-seqio", "fasta.rs"), src)
            .findings
            .is_empty());
    }
}
