//! Repo automation tasks (`cargo run -p xtask -- <task>`).
//!
//! The only task today is `lint`: a dependency-free source scan that
//! enforces three workspace invariants the compiler cannot express:
//!
//! 1. **`#![forbid(unsafe_code)]` everywhere but the allowlist.** Only
//!    `lc-core`, `lc-parallel`, and `lc-telemetry` contain audited
//!    `unsafe` (disjoint-slice writes, the archive scatter path, and
//!    the lock-free span sink). `lc-components` is a special case: it
//!    must carry `#![deny(unsafe_code)]` at the crate root and may use
//!    `unsafe` only under `src/kernels/`, the audited home of its SIMD
//!    intrinsics. Every other crate must forbid it at the crate root so
//!    a stray `unsafe` block is a compile error, not a review nit.
//! 2. **No `.unwrap()`/`.expect()` in library code.** Panics in
//!    library paths defeat the campaign runner's panic quarantine.
//!    Test modules (and module files declared under `#[cfg(test)]`),
//!    `src/bin/` targets, and doc comments are exempt;
//!    a deliberate panic on a checked invariant may stay if the line
//!    (or the line above it) carries an `// invariant:` comment
//!    explaining why it cannot fire.
//! 3. **Unique component registration.** Every registry name maps to
//!    exactly one component and the inventory matches the paper's 62
//!    (12 mutators + 10 shufflers + 12 predictors + 28 reducers).
//! 4. **No bare durable-state writes.** Outside `lc-chaos` (which owns
//!    the hardened writer), source must not call `std::fs::write` or
//!    `File::create` directly: durable artifacts go through
//!    `lc_chaos::fs::atomic_write` / `DurableFile` so a crash can never
//!    leave a half-written file. One-shot user-named CLI outputs may
//!    opt out with a `// durable-exempt:` comment on the same or
//!    preceding line stating why partial output is acceptable.
//! 5. **No `allow(unsafe_code)` escapes.** A crate-level `deny` can be
//!    re-`allow`ed item-by-item; outside `lc-components/src/kernels/`
//!    (and the audited allowlist crates) any `#[allow(unsafe_code)]` or
//!    `#[cfg_attr(…, allow(unsafe_code))]` attribute is rejected, so
//!    the confinement in (1) cannot be quietly tunneled around.
//! 6. **Frozen dependency graph (`DEPS_FROZEN`).** The workspace is
//!    zero-dependency by construction: every `[workspace.dependencies]`
//!    entry must be a `path` dependency inside the repo, and every
//!    member manifest may only reference workspace entries
//!    (`name.workspace = true`) or path dependencies. A version,
//!    `git`, or registry dependency anywhere fails the lint.
//! 7. **The public surface is what something consumes.** Every `pub`
//!    fn, struct, enum, union, const, static, type, trait or mod of a
//!    library crate under `crates/` must be named, as a word, by one of:
//!    another crate's non-test code (a bin of the same package counts
//!    as another crate), `benchmark/src` (the frozen measuring harness),
//!    `examples/`, a `tests/` directory, or a doctest (each compiles as
//!    a crate of its own). A type named in the signature of a live item
//!    (a fn header, a struct's `pub` fields, an enum or trait body) is
//!    live too, since rustc's `private_interfaces` lint rejects
//!    narrowing it. Otherwise the item needs a
//!    `// pub-api: <reason>` line on it or in the comment and attribute
//!    block above it. A flagged item is narrowed to `pub(crate)`, moved
//!    under `#[cfg(test)]`, or deleted; after narrowing, rustc's
//!    `dead_code` lint (fatal under CI's `clippy -D warnings`) is the
//!    reachability check inside the crate. Because the rule reads
//!    `benchmark/src`, a refactor that would break the harness fails
//!    here rather than in the benchmark run. The scan is name-level,
//!    not path-level, so it has known limits: it may miss an unused
//!    item whose name another crate writes for something else (a method
//!    called `new` or `len` always passes), but it never flags a name
//!    that another crate writes. Whole-line comments and `#[cfg(test)]`
//!    code (including module files declared under it) do not count as
//!    consumers. Trait-impl methods (which cannot be `pub`), `pub use`
//!    re-exports, struct fields and enum variants are not checked.
//!
//! Exit status is non-zero iff any diagnostic fires, so CI can run
//! `cargo run -p xtask -- lint` as a gate.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates allowed to contain `unsafe` anywhere (each carries SAFETY
/// comments).
const UNSAFE_ALLOWLIST: &[&str] = &["lc-core", "lc-parallel", "lc-telemetry"];

/// Crates where `unsafe` is denied crate-wide but re-allowed inside one
/// audited module subtree: (crate, subtree under `src/`).
const UNSAFE_CONFINED: &[(&str, &str)] = &[("lc-components", "kernels/")];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- lint   (got {:?})",
                other.unwrap_or("<none>")
            );
            ExitCode::FAILURE
        }
    }
}

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels below the workspace root")
        .to_path_buf()
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut diagnostics = Vec::new();

    check_forbid_unsafe(&root, &mut diagnostics);
    check_no_allow_unsafe_escapes(&root, &mut diagnostics);
    check_no_panics_in_libraries(&root, &mut diagnostics);
    check_unique_registration(&mut diagnostics);
    check_hardened_durable_writes(&root, &mut diagnostics);
    check_deps_frozen(&root, &mut diagnostics);
    check_pub_reachability(&root, &mut diagnostics);

    if diagnostics.is_empty() {
        println!("xtask lint: clean");
        ExitCode::SUCCESS
    } else {
        for d in &diagnostics {
            eprintln!("xtask lint: {d}");
        }
        eprintln!("xtask lint: {} violation(s)", diagnostics.len());
        ExitCode::FAILURE
    }
}

/// Every crate under `crates/` must carry `#![forbid(unsafe_code)]` at its
/// entry point unless it is on the audited allowlist. Crates in
/// [`UNSAFE_CONFINED`] must instead carry `#![deny(unsafe_code)]` at the
/// root and keep every `unsafe` token inside their audited subtree.
fn check_forbid_unsafe(root: &Path, diagnostics: &mut Vec<String>) {
    for crate_dir in crate_dirs(root) {
        let name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if UNSAFE_ALLOWLIST.contains(&name.as_str()) {
            continue;
        }
        let entry = ["src/lib.rs", "src/main.rs"]
            .iter()
            .map(|p| crate_dir.join(p))
            .find(|p| p.is_file());
        let Some(entry) = entry else {
            diagnostics.push(format!("{name}: no src/lib.rs or src/main.rs found"));
            continue;
        };
        let text = fs::read_to_string(&entry).unwrap_or_default();
        if let Some((_, subtree)) = UNSAFE_CONFINED.iter().find(|(c, _)| *c == name) {
            if !text.contains("#![deny(unsafe_code)]") {
                diagnostics.push(format!(
                    "{}: missing #![deny(unsafe_code)] (crate {name} confines unsafe to src/{subtree})",
                    rel(root, &entry)
                ));
            }
            check_unsafe_confined(root, &crate_dir, subtree, diagnostics);
        } else if !text.contains("#![forbid(unsafe_code)]") {
            diagnostics.push(format!(
                "{}: missing #![forbid(unsafe_code)] (crate {name} is not on the unsafe allowlist)",
                rel(root, &entry)
            ));
        }
    }
}

/// Every `unsafe` token in the crate must live under `src/<subtree>`.
/// Occurrences of the attribute name `unsafe_code` (the deny/allow gates
/// themselves) do not count.
fn check_unsafe_confined(
    root: &Path,
    crate_dir: &Path,
    subtree: &str,
    diagnostics: &mut Vec<String>,
) {
    let src = crate_dir.join("src");
    for file in rs_files(&src) {
        if rel(&src, &file).starts_with(subtree) {
            continue; // the audited module subtree
        }
        let text = fs::read_to_string(&file).unwrap_or_default();
        for (i, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            if code.contains("unsafe") && !code.replace("unsafe_code", "").contains("unsafe") {
                continue; // only the lint-gate attribute, not the keyword
            }
            if code.contains("unsafe") {
                diagnostics.push(format!(
                    "{}:{}: `unsafe` outside src/{subtree} (all intrinsics belong in the audited kernel module)",
                    rel(root, &file),
                    i + 1
                ));
            }
        }
    }
}

/// The attribute text this lint hunts for, assembled so the pattern
/// does not appear verbatim in this (scanned) file.
fn allow_unsafe_needle() -> String {
    format!("allow(unsafe{}", "_code)")
}

/// `UNSAFE_CONFINED` extension: a crate-level `deny(unsafe_code)` can be
/// re-allowed per item with `#[allow(unsafe_code)]` or
/// `#[cfg_attr(…, allow(unsafe_code))]`. Reject every such escape in
/// non-allowlisted crates outside the audited confinement subtrees, so
/// the unsafe budget cannot grow without editing the lint itself. Test
/// modules are exempt (they exercise the lint's own fixtures).
fn check_no_allow_unsafe_escapes(root: &Path, diagnostics: &mut Vec<String>) {
    let needle = allow_unsafe_needle();
    for crate_dir in crate_dirs(root) {
        let name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if UNSAFE_ALLOWLIST.contains(&name.as_str()) {
            continue;
        }
        let subtree = UNSAFE_CONFINED
            .iter()
            .find(|(c, _)| *c == name)
            .map(|(_, s)| *s);
        let src = crate_dir.join("src");
        let test_files = test_only_files(&src);
        for file in rs_files(&src) {
            if subtree.is_some_and(|s| rel(&src, &file).starts_with(s)) {
                continue; // the audited module subtree
            }
            if test_files.contains(&file) {
                continue;
            }
            let text = fs::read_to_string(&file).unwrap_or_default();
            for_each_non_test_line(&text, |i, line, _| {
                let code = line.split("//").next().unwrap_or("");
                if code.contains(&needle) {
                    diagnostics.push(format!(
                        "{}:{}: {} escape outside the audited unsafe subtree \
                         (confinement is not tunnelable per-item)",
                        rel(root, &file),
                        i + 1,
                        needle
                    ));
                }
            });
        }
    }
}

/// `DEPS_FROZEN`: the workspace builds with zero registry access, and
/// stays that way. Every `[workspace.dependencies]` entry in the root
/// manifest must be a `path` dependency; every dependency line in a
/// member manifest must either inherit a workspace entry
/// (`workspace = true`) or be a `path` dependency itself. Anything that
/// names a version, `git`, or registry source is a violation.
fn check_deps_frozen(root: &Path, diagnostics: &mut Vec<String>) {
    let mut manifests: Vec<PathBuf> = vec![root.join("Cargo.toml")];
    for dir in crate_dirs(root) {
        manifests.push(dir.join("Cargo.toml"));
    }
    for entry in fs::read_dir(root.join("vendor"))
        .into_iter()
        .flatten()
        .flatten()
    {
        let m = entry.path().join("Cargo.toml");
        if m.is_file() {
            manifests.push(m);
        }
    }
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).unwrap_or_default();
        let mut in_deps = false;
        for (i, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.starts_with('[') {
                in_deps = trimmed.contains("dependencies");
                continue;
            }
            if !in_deps || trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let code = trimmed.split('#').next().unwrap_or("").trim();
            if code.is_empty() || !code.contains('=') {
                continue;
            }
            if code.contains("workspace = true")
                || code.contains("workspace=true")
                || code.contains("path =")
                || code.contains("path=")
            {
                continue;
            }
            diagnostics.push(format!(
                "{}:{}: non-workspace dependency {:?} — the dependency graph is \
                 frozen (path/workspace entries only; vendor externals under vendor/)",
                rel(root, &manifest),
                i + 1,
                code.split('=').next().unwrap_or(code).trim()
            ));
        }
    }
}

/// Library sources must not call `.unwrap()` / `.expect()` outside test
/// modules, unless the call site is annotated with an `// invariant:`
/// comment on the same or preceding line.
fn check_no_panics_in_libraries(root: &Path, diagnostics: &mut Vec<String>) {
    for crate_dir in crate_dirs(root) {
        let src = crate_dir.join("src");
        let test_files = test_only_files(&src);
        for file in rs_files(&src) {
            // Binary targets and the crate's own test trees are exempt:
            // panicking on bad CLI input or in a test is fine.
            if is_bin(&src, &file) || test_files.contains(&file) {
                continue;
            }
            scan_file_for_panics(root, &file, diagnostics);
        }
    }
}

fn scan_file_for_panics(root: &Path, file: &Path, diagnostics: &mut Vec<String>) {
    let text = match fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            diagnostics.push(format!("{}: unreadable: {e}", rel(root, file)));
            return;
        }
    };
    for_each_non_test_line(&text, |i, line, prev_line| {
        let trimmed = line.trim();
        // Strip line comments (and thereby doc comments) before matching.
        // `.expect("` (message form) rather than `.expect(` keeps domain
        // methods that happen to be called `expect` — e.g. the lc-json
        // parser's `expect(b'{')` — out of scope.
        let code = trimmed.split("//").next().unwrap_or("");
        if code.contains(".unwrap()") || code.contains(".expect(\"") {
            let excused = trimmed.contains("invariant:") || prev_line.contains("invariant:");
            if !excused {
                diagnostics.push(format!(
                    "{}:{}: .unwrap()/.expect() in library code (annotate with `// invariant:` if the panic is provably unreachable)",
                    rel(root, file),
                    i + 1
                ));
            }
        }
    });
}

/// Calls `f(line_index, line, prev_line)` for every source line that is
/// not inside a `#[cfg(test)]` item. `prev_line` is the previous raw
/// line (test or not), so annotation comments directly above a call
/// site are visible to the callback.
fn for_each_non_test_line<'a>(text: &'a str, mut f: impl FnMut(usize, &'a str, &'a str)) {
    let mut in_test_block = false;
    let mut depth = 0i64;
    let mut pending_cfg_test = false;
    let mut prev_line = "";
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if in_test_block {
            depth += brace_delta(trimmed);
            if depth <= 0 {
                in_test_block = false;
            }
            prev_line = line;
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            pending_cfg_test = true;
            prev_line = line;
            continue;
        }
        if pending_cfg_test {
            // The attribute applies to the next item; if that item is a
            // module (or any braced item), skip its whole body.
            if trimmed.starts_with('#') {
                // further attributes, keep waiting
            } else {
                depth = brace_delta(trimmed);
                if depth > 0 {
                    in_test_block = true;
                } // else: single-line item (e.g. `use` under cfg(test))
                pending_cfg_test = false;
            }
            prev_line = line;
            continue;
        }
        f(i, line, prev_line);
        prev_line = line;
    }
}

/// Source outside `lc-chaos` must route file creation through the
/// hardened writer (`lc_chaos::fs::atomic_write` / `DurableFile`), so a
/// crash mid-write can never tear a durable artifact. `// durable-exempt:`
/// on the same or preceding line opts a user-named one-shot output out.
fn check_hardened_durable_writes(root: &Path, diagnostics: &mut Vec<String>) {
    for crate_dir in crate_dirs(root) {
        let name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if name == "lc-chaos" {
            continue; // owns the hardened writer and its raw syscalls
        }
        let src = crate_dir.join("src");
        let test_files = test_only_files(&src);
        for file in rs_files(&src) {
            if !test_files.contains(&file) {
                scan_file_for_durable_writes(root, &file, diagnostics);
            }
        }
    }
}

fn scan_file_for_durable_writes(root: &Path, file: &Path, diagnostics: &mut Vec<String>) {
    let text = match fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            diagnostics.push(format!("{}: unreadable: {e}", rel(root, file)));
            return;
        }
    };
    for_each_non_test_line(&text, |i, line, prev_line| {
        let trimmed = line.trim();
        let code = trimmed.split("//").next().unwrap_or("");
        // Needles are split so this scanner does not flag its own source.
        let bare_create = code.contains(concat!("File::", "create("))
            && !code.contains(concat!("DurableFile::", "create"));
        let bare_write = code.contains(concat!("fs::", "write("));
        if (bare_create || bare_write)
            && !trimmed.contains("durable-exempt:")
            && !prev_line.contains("durable-exempt:")
        {
            diagnostics.push(format!(
                "{}:{}: bare File::create/fs::write (use lc_chaos::fs::atomic_write or DurableFile; annotate `// durable-exempt:` for user-named one-shot outputs)",
                rel(root, file),
                i + 1
            ));
        }
    });
}

/// The registry must hold exactly one component per name, in the paper's
/// 12/10/12/28 inventory.
fn check_unique_registration(diagnostics: &mut Vec<String>) {
    let mut by_name: BTreeMap<&str, usize> = BTreeMap::new();
    let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
    for c in lc_components::all() {
        *by_name.entry(c.name()).or_insert(0) += 1;
        *by_kind.entry(c.kind().label()).or_insert(0) += 1;
    }
    for (name, count) in &by_name {
        if *count > 1 {
            diagnostics.push(format!(
                "registry: component {name} registered {count} times"
            ));
        }
    }
    let expected = [
        ("mutator", 12),
        ("shuffler", 10),
        ("predictor", 12),
        ("reducer", 28),
    ];
    for (kind, want) in expected {
        let got = by_kind.get(kind).copied().unwrap_or(0);
        if got != want {
            diagnostics.push(format!("registry: expected {want} {kind}s, found {got}"));
        }
    }
}

/// Rule 7: every `pub` item of a library crate under `crates/` is named
/// by a consumer outside that crate's library source, is named in the
/// signature of such an item, or carries a `// pub-api: <reason>` line.
fn check_pub_reachability(root: &Path, diagnostics: &mut Vec<String>) {
    let crates = crate_dirs(root);
    // Consumers that are not part of any crate's `src/`: the frozen
    // harness, the examples and every integration-test tree. Their test
    // code is the point, so all of it counts.
    let mut outside = BTreeSet::new();
    let trees = [
        root.join("benchmark/src"),
        root.join("examples"),
        root.join("tests"),
    ];
    for dir in trees
        .into_iter()
        .chain(crates.iter().map(|c| c.join("tests")))
    {
        for file in rs_files(&dir) {
            let text = fs::read_to_string(&file).unwrap_or_default();
            add_code_words(text.lines(), &mut outside);
        }
    }
    // Non-test words of each compilation unit: (crate dir, is a bin).
    // The root package's `src/` is one more consumer crate. Doctests
    // compile as crates of their own, so they count with `outside`.
    let mut units: BTreeMap<(PathBuf, bool), BTreeSet<String>> = BTreeMap::new();
    let mut pub_items: BTreeMap<PathBuf, Vec<PubItem>> = BTreeMap::new();
    for dir in crates.iter().chain(std::iter::once(&root.to_path_buf())) {
        let src = dir.join("src");
        let test_files = test_only_files(&src);
        for file in rs_files(&src) {
            if test_files.contains(&file) {
                continue;
            }
            let text = fs::read_to_string(&file).unwrap_or_default();
            add_code_words(doctest_lines(&text).into_iter(), &mut outside);
            let mut lines = Vec::new();
            for_each_non_test_line(&text, |_, line, _| lines.push(line));
            let bin = is_bin(&src, &file);
            add_code_words(
                lines.into_iter(),
                units.entry((dir.clone(), bin)).or_default(),
            );
            if !bin && dir != root && src.join("lib.rs").is_file() {
                let items = pub_items.entry(dir.clone()).or_default();
                items.extend(file_pub_items(&file, &text));
            }
        }
    }
    for (dir, items) in &pub_items {
        // An item is live when a consumer names it or it is marked; a
        // type named in a live item's signature is live too (rustc's
        // `private_interfaces` would reject narrowing it).
        let mut live: BTreeSet<&str> = items
            .iter()
            .filter(|it| {
                it.marked
                    || outside.contains(&it.name)
                    || units
                        .iter()
                        .any(|((d, bin), words)| (d != dir || *bin) && words.contains(&it.name))
            })
            .map(|it| it.name.as_str())
            .collect();
        loop {
            let exposed: BTreeSet<&str> = items
                .iter()
                .filter(|it| live.contains(it.name.as_str()))
                .flat_map(|it| it.exposes.iter().map(String::as_str))
                .collect();
            let before = live.len();
            live.extend(
                items
                    .iter()
                    .map(|it| it.name.as_str())
                    .filter(|n| exposed.contains(n)),
            );
            if live.len() == before {
                break;
            }
        }
        for it in items.iter().filter(|it| !live.contains(it.name.as_str())) {
            diagnostics.push(format!(
                "{}:{}: pub {} `{}` is named by no other crate, benchmark/src, examples/, \
                 tests/ or live signature (narrow it to pub(crate), move it under \
                 #[cfg(test)], delete it, or mark it `// pub-api: <reason>`)",
                rel(root, &it.file),
                it.line,
                it.kind,
                it.name
            ));
        }
    }
}

/// One `pub` item of a library crate, as rule 7 sees it.
struct PubItem {
    file: PathBuf,
    /// 1-based line of the declaration.
    line: usize,
    kind: String,
    name: String,
    /// Words of the item's public signature: a fn header, the `pub`
    /// fields of a struct, the body of an enum or trait, the line(s) of
    /// a const, static or type alias.
    exposes: BTreeSet<String>,
    /// Carries a `// pub-api:` line.
    marked: bool,
}

/// Every non-test `pub` item declared in `text`, the source of `file`.
fn file_pub_items(file: &Path, text: &str) -> Vec<PubItem> {
    let lines: Vec<&str> = text.lines().collect();
    let mut items = Vec::new();
    for_each_non_test_line(text, |i, line, _| {
        let Some((kind, name)) = pub_item(line) else {
            return;
        };
        let mut exposes = BTreeSet::new();
        add_code_words(signature_lines(&lines[i..], kind).into_iter(), &mut exposes);
        exposes.remove(name);
        items.push(PubItem {
            file: file.to_path_buf(),
            line: i + 1,
            kind: kind.to_string(),
            name: name.to_string(),
            exposes,
            marked: has_pub_api_marker(&lines, i),
        });
    });
    items
}

/// The public-signature part of the item declared on `lines[0]`.
fn signature_lines<'a>(lines: &[&'a str], kind: &str) -> Vec<&'a str> {
    match kind {
        "mod" => Vec::new(),
        "fn" => {
            let mut out = Vec::new();
            for line in lines {
                let code = line.split("//").next().unwrap_or("");
                if let Some((head, _)) = code.split_once('{') {
                    out.push(head);
                    break;
                }
                out.push(code);
                if code.trim_end().ends_with(';') {
                    break;
                }
            }
            out
        }
        _ => {
            // The declaration through its closing brace or semicolon;
            // for a struct only the header and its `pub` fields.
            let mut out = Vec::new();
            let mut depth = 0i64;
            for (n, line) in lines.iter().enumerate() {
                let code = line.split("//").next().unwrap_or("");
                if n == 0 || kind != "struct" || code.trim_start().starts_with("pub ") {
                    out.push(code);
                }
                depth += brace_delta(code);
                if depth <= 0 && (code.contains('}') || code.trim_end().ends_with(';')) {
                    break;
                }
            }
            out
        }
    }
}

/// `(kind, name)` when `line` declares a `pub` item that rule 7 checks.
/// `pub(crate)`, `pub use`, fields and variants are not such items.
fn pub_item(line: &str) -> Option<(&str, &str)> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    loop {
        let (token, tail) = rest.split_once(' ')?;
        match token {
            "unsafe" | "async" | "extern" | "\"C\"" => rest = tail,
            "const" if tail.starts_with("fn ") || tail.starts_with("unsafe ") => rest = tail,
            "fn" | "struct" | "enum" | "union" | "const" | "static" | "type" | "trait" | "mod" => {
                let tail = tail.strip_prefix("mut ").unwrap_or(tail);
                let end = tail
                    .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .unwrap_or(tail.len());
                return (end > 0).then(|| (token, &tail[..end]));
            }
            _ => return None,
        }
    }
}

/// A `// pub-api:` comment on the item's line or anywhere in the
/// contiguous comment and attribute block directly above it.
fn has_pub_api_marker(lines: &[&str], item: usize) -> bool {
    const MARKER: &str = "// pub-api:";
    lines[item].contains(MARKER)
        || lines[..item]
            .iter()
            .rev()
            .map(|l| l.trim())
            .take_while(|l| l.starts_with("//") || l.starts_with("#["))
            .any(|l| l.contains(MARKER))
}

/// Adds every identifier-like word of `lines` to `words`, skipping
/// whole-line comments so a doc mention is not a consumer.
fn add_code_words<'a>(lines: impl Iterator<Item = &'a str>, words: &mut BTreeSet<String>) {
    for line in lines.filter(|l| !l.trim_start().starts_with("//")) {
        for word in line.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
            if !word.is_empty() && !words.contains(word) {
                words.insert(word.to_string());
            }
        }
    }
}

/// The code lines of every doctest in `text`: the lines of a fenced
/// block in `///` or `//!` comments, except ```` ```text ```` blocks.
fn doctest_lines(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    // Inside a fenced block: whether it is doctest code.
    let mut fence: Option<bool> = None;
    for line in text.lines() {
        let trimmed = line.trim_start();
        let Some(doc) = trimmed
            .strip_prefix("///")
            .or_else(|| trimmed.strip_prefix("//!"))
        else {
            fence = None;
            continue;
        };
        let doc = doc.trim_start();
        if let Some(info) = doc.strip_prefix("```") {
            fence = match fence {
                Some(_) => None,
                None => Some(!info.trim_start().starts_with("text")),
            };
        } else if fence == Some(true) {
            out.push(doc);
        }
    }
    out
}

/// Whether `file` belongs to a bin target of the package rooted at `src`.
fn is_bin(src: &Path, file: &Path) -> bool {
    let relpath = rel(src, file);
    relpath.starts_with("bin/") || relpath == "main.rs"
}

/// Files under `src` whose module is declared inside a `#[cfg(test)]`
/// item (`#[cfg(test)] mod foo;`, or `mod tests;` inside a gated inline
/// module), directly or through a test-only parent module.
fn test_only_files(src: &Path) -> BTreeSet<PathBuf> {
    let files = rs_files(src);
    let mut gated = BTreeSet::new();
    let mut parent_of = BTreeMap::new();
    for file in &files {
        let text = fs::read_to_string(file).unwrap_or_default();
        for (child, test) in declared_module_files(&text, &module_dir(file)) {
            if test {
                gated.insert(child.clone());
            }
            parent_of.insert(child, file.clone());
        }
    }
    files
        .into_iter()
        .filter(|f| {
            let mut cur = Some(f);
            while let Some(c) = cur {
                if gated.contains(c) {
                    return true;
                }
                cur = parent_of.get(c);
            }
            false
        })
        .collect()
}

/// The directory that holds the files of `file`'s child modules.
fn module_dir(file: &Path) -> PathBuf {
    let parent = file.parent().unwrap_or(Path::new(""));
    match file.file_stem().and_then(|s| s.to_str()) {
        Some("lib" | "main" | "mod") | None => parent.to_path_buf(),
        Some(stem) => parent.join(stem),
    }
}

/// Every out-of-line `mod name;` in `text`, as (file, declared under
/// `#[cfg(test)]` here), with inline `mod outer { .. }` nesting applied
/// to the path.
fn declared_module_files(text: &str, dir: &Path) -> Vec<(PathBuf, bool)> {
    let mut out = Vec::new();
    // (name, brace depth where it opened, gated)
    let mut inline: Vec<(String, i64, bool)> = Vec::new();
    let mut depth = 0i64;
    let mut pending_cfg_test = false;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("#[cfg(test)]") {
            pending_cfg_test = true;
            continue;
        }
        let test = pending_cfg_test || inline.last().is_some_and(|m| m.2);
        let decl = trimmed
            .trim_start_matches("pub(crate) ")
            .trim_start_matches("pub ");
        if let Some(rest) = decl.strip_prefix("mod ") {
            let end = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            let (name, after) = rest.split_at(end);
            if after.trim_start().starts_with(';') {
                let base = inline.iter().fold(dir.to_path_buf(), |p, m| p.join(&m.0));
                let flat = base.join(format!("{name}.rs"));
                let nested = base.join(name).join("mod.rs");
                out.push((if nested.is_file() { nested } else { flat }, test));
            } else if after.contains('{') {
                inline.push((name.to_string(), depth, test));
            }
        }
        if !trimmed.starts_with('#') && !trimmed.is_empty() {
            pending_cfg_test = false;
        }
        depth += brace_delta(trimmed);
        while inline.last().is_some_and(|m| depth <= m.1) {
            inline.pop();
        }
    }
    out
}

/// All immediate subdirectories of `crates/` that contain a Cargo.toml.
fn crate_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

/// Every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).into_iter().flatten().flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

fn brace_delta(line: &str) -> i64 {
    let code = line.split("//").next().unwrap_or("");
    let opens = code.matches('{').count() as i64;
    let closes = code.matches('}').count() as i64;
    opens - closes
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root).unwrap_or(p).display().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_on_the_shipped_tree_is_clean() {
        let root = workspace_root();
        let mut diagnostics = Vec::new();
        check_forbid_unsafe(&root, &mut diagnostics);
        check_no_allow_unsafe_escapes(&root, &mut diagnostics);
        check_no_panics_in_libraries(&root, &mut diagnostics);
        check_unique_registration(&mut diagnostics);
        check_hardened_durable_writes(&root, &mut diagnostics);
        check_deps_frozen(&root, &mut diagnostics);
        check_pub_reachability(&root, &mut diagnostics);
        assert!(diagnostics.is_empty(), "{diagnostics:#?}");
    }

    /// Rule 7 over a throwaway tree: library crates `demo` and `user`
    /// (each with a `Cargo.toml`), plus `files` as (path, text) pairs.
    fn reachability(tag: &str, files: &[(&str, &str)]) -> Vec<String> {
        let root = std::env::temp_dir().join(format!("xtask-lint-reach-{tag}"));
        fs::remove_dir_all(&root).ok();
        for name in ["demo", "user"] {
            let dir = root.join("crates").join(name);
            fs::create_dir_all(dir.join("src")).unwrap();
            fs::write(
                dir.join("Cargo.toml"),
                format!("[package]\nname = \"{name}\"\n"),
            )
            .unwrap();
            fs::write(dir.join("src/lib.rs"), "").unwrap();
        }
        for (path, text) in files {
            let path = root.join(path);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
        let mut diagnostics = Vec::new();
        check_pub_reachability(&root, &mut diagnostics);
        fs::remove_dir_all(&root).ok();
        diagnostics
    }

    #[test]
    fn unused_pub_fn_is_flagged_and_a_pub_api_line_excuses_it() {
        let user = ("crates/user/src/lib.rs", "fn call() { demo::used(); }\n");
        let lib = "pub fn used() {}\npub fn unused() {}\n";
        let d = reachability("unused", &[("crates/demo/src/lib.rs", lib), user]);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert!(
            d[0].contains("crates/demo/src/lib.rs:2: pub fn `unused`"),
            "{d:#?}"
        );

        // The marker counts on the item's line or anywhere in the comment
        // and attribute block above it.
        let lib = "pub fn used() {}\n/// Docs.\n// pub-api: a stated reason\n#[inline]\npub fn unused() {}\n";
        let d = reachability("marked", &[("crates/demo/src/lib.rs", lib), user]);
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn a_name_written_only_in_benchmark_src_is_consumed() {
        let d = reachability(
            "bench",
            &[
                ("crates/demo/src/lib.rs", "pub fn harness_only() {}\n"),
                (
                    "benchmark/src/main.rs",
                    "fn main() { demo::harness_only(); }\n",
                ),
            ],
        );
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn doctests_are_consumers_but_text_blocks_are_not() {
        let lib = "/// ```\n/// demo::in_doctest();\n/// ```\npub fn in_doctest() {}\n/// ```text\n/// demo::in_text();\n/// ```\npub fn in_text() {}\n";
        let d = reachability("doctest", &[("crates/demo/src/lib.rs", lib)]);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert!(d[0].contains("`in_text`"), "{d:#?}");
    }

    #[test]
    fn test_code_and_comments_are_not_consumers() {
        let lib = "pub fn tested() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        super::tested();\n    }\n}\n";
        let user = "// demo::tested() in a comment\n#[cfg(test)]\nmod tests {\n    fn t() {\n        demo::tested();\n    }\n}\n";
        let d = reachability(
            "own-tests",
            &[
                ("crates/demo/src/lib.rs", lib),
                ("crates/user/src/lib.rs", user),
            ],
        );
        assert_eq!(d.len(), 1, "{d:#?}");
        assert!(d[0].contains("`tested`"), "{d:#?}");
    }

    #[test]
    fn trait_impl_methods_and_pub_use_are_not_checked() {
        let lib = "pub use std::fmt::Display as Shown;\npub struct S;\nimpl std::fmt::Display for S {\n    fn fmt(&self, _: &mut std::fmt::Formatter) -> std::fmt::Result {\n        Ok(())\n    }\n}\n";
        let d = reachability(
            "trait-impl",
            &[
                ("crates/demo/src/lib.rs", lib),
                ("crates/user/src/lib.rs", "fn f(_: demo::S) {}\n"),
            ],
        );
        assert!(d.is_empty(), "{d:#?}");
        assert_eq!(pub_item("pub use inner::Thing;"), None);
        assert_eq!(pub_item("    pub(crate) fn narrowed() {}"), None);
        assert_eq!(pub_item("    pub name: String,"), None);
        assert_eq!(pub_item("pub const fn f() {}"), Some(("fn", "f")));
        assert_eq!(pub_item("pub static mut X: u8 = 0;"), Some(("static", "X")));
        assert_eq!(pub_item("pub const N: usize = 1;"), Some(("const", "N")));
    }

    #[test]
    fn signatures_bins_and_test_modules_are_followed() {
        // `Out` is named only in the signature of a consumed fn; `Hidden`
        // is named nowhere; `bin_only` is named by a bin of the same
        // package; `helper` lives in a module file gated by cfg(test).
        let lib = "pub struct Out;\npub fn make() -> Out {\n    Out\n}\npub struct Hidden;\npub fn bin_only() {}\n#[cfg(test)]\nmod helpers;\n";
        let d = reachability(
            "signatures",
            &[
                ("crates/demo/src/lib.rs", lib),
                ("crates/demo/src/helpers.rs", "pub fn helper() {}\n"),
                (
                    "crates/demo/src/bin/tool.rs",
                    "fn main() { demo::bin_only(); }\n",
                ),
                (
                    "crates/user/src/lib.rs",
                    "fn f() {\n    let _ = demo::make();\n}\n",
                ),
            ],
        );
        assert_eq!(d.len(), 1, "{d:#?}");
        assert!(d[0].contains("`Hidden`"), "{d:#?}");
    }

    #[test]
    fn allow_unsafe_escapes_are_flagged_outside_the_subtree() {
        let root = std::env::temp_dir().join("xtask-lint-allow-escape-test");
        fs::remove_dir_all(&root).ok();
        let src = root.join("crates").join("lc-components").join("src");
        fs::create_dir_all(src.join("kernels")).unwrap();
        fs::write(
            root.join("crates").join("lc-components").join("Cargo.toml"),
            "[package]\nname = \"lc-components\"\n",
        )
        .unwrap();
        let attr = format!("#[{}]", allow_unsafe_needle());
        let cfg_attr = format!(
            "#[cfg_attr(target_arch = \"x86_64\", {}]",
            allow_unsafe_needle()
        );
        // Inside the audited subtree: fine.
        fs::write(
            src.join("kernels").join("mod.rs"),
            format!("{attr}\nmod simd;\n"),
        )
        .unwrap();
        fs::write(src.join("lib.rs"), "#![deny(unsafe_code)]\n").unwrap();
        let mut clean = Vec::new();
        check_no_allow_unsafe_escapes(&root, &mut clean);
        assert!(clean.is_empty(), "{clean:#?}");

        // Outside: both attribute spellings are rejected.
        fs::write(
            src.join("lib.rs"),
            format!("#![deny(unsafe_code)]\n{attr}\nmod escape;\n{cfg_attr}\nmod escape2;\n"),
        )
        .unwrap();
        let mut diagnostics = Vec::new();
        check_no_allow_unsafe_escapes(&root, &mut diagnostics);
        assert_eq!(diagnostics.len(), 2, "{diagnostics:#?}");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn deps_frozen_flags_external_dependencies() {
        let root = std::env::temp_dir().join("xtask-lint-deps-frozen-test");
        fs::remove_dir_all(&root).ok();
        let dir = root.join("crates").join("demo");
        fs::create_dir_all(dir.join("src")).unwrap();
        fs::write(
            dir.join("Cargo.toml"),
            "[package]\nname = \"demo\"\nversion = \"0.1.0\"\n\n[dependencies]\n\
             lc-core.workspace = true\nlocal = { path = \"../local\" }\n",
        )
        .unwrap();
        let mut clean = Vec::new();
        check_deps_frozen(&root, &mut clean);
        assert!(clean.is_empty(), "{clean:#?}");

        fs::write(
            dir.join("Cargo.toml"),
            "[package]\nname = \"demo\"\n\n[dependencies]\nserde = \"1.0\"\n\n\
             [dev-dependencies]\nleft-pad = { git = \"https://example.com/x\" }\n",
        )
        .unwrap();
        let mut diagnostics = Vec::new();
        check_deps_frozen(&root, &mut diagnostics);
        assert_eq!(diagnostics.len(), 2, "{diagnostics:#?}");
        assert!(diagnostics[0].contains("serde"), "{diagnostics:#?}");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn unsafe_confinement_flags_leaks_and_allows_kernels() {
        let dir = std::env::temp_dir().join("xtask-lint-unsafe-confined-test");
        let src = dir.join("src");
        fs::create_dir_all(src.join("kernels")).unwrap();

        // Gate attributes and comments never count; the keyword outside
        // the subtree does; anything inside the subtree is fine.
        fs::write(
            src.join("lib.rs"),
            "#![deny(unsafe_code)]\n// unsafe in a comment is fine\npub mod kernels;\npub mod other;\n",
        )
        .unwrap();
        fs::write(
            src.join("kernels").join("mod.rs"),
            "#![allow(unsafe_code)]\npub fn f() { unsafe { core::hint::unreachable_unchecked() } }\n",
        )
        .unwrap();
        fs::write(src.join("other.rs"), "pub fn g() {}\n").unwrap();
        let mut clean = Vec::new();
        check_unsafe_confined(&dir, &dir, "kernels/", &mut clean);
        assert!(clean.is_empty(), "{clean:#?}");

        fs::write(
            src.join("other.rs"),
            "pub fn g(p: *const u8) -> u8 { unsafe { *p } }\n",
        )
        .unwrap();
        let mut diagnostics = Vec::new();
        check_unsafe_confined(&dir, &dir, "kernels/", &mut diagnostics);
        assert_eq!(diagnostics.len(), 1, "{diagnostics:#?}");
    }

    #[test]
    fn brace_tracking_handles_inline_comments() {
        assert_eq!(brace_delta("mod tests { // { not counted"), 1);
        assert_eq!(brace_delta("} // close"), -1);
        assert_eq!(brace_delta("fn f() {}"), 0);
    }

    #[test]
    fn durable_write_scanner_flags_and_excuses() {
        let dir = std::env::temp_dir().join("xtask-lint-durable-test");
        fs::create_dir_all(&dir).unwrap();
        let f = dir.join("sample.rs");

        fs::write(&f, "fn bad() { std::fs::write(p, b).ok(); }\n").unwrap();
        let mut diagnostics = Vec::new();
        scan_file_for_durable_writes(&dir, &f, &mut diagnostics);
        assert_eq!(diagnostics.len(), 1, "{diagnostics:#?}");

        fs::write(
            &f,
            "fn fine() {\n    // durable-exempt: user-named output.\n    std::fs::write(p, b).ok();\n}\nfn hardened() { DurableFile::create(p, policy).ok(); }\n#[cfg(test)]\nmod tests {\n    fn t() { std::fs::write(p, b).ok(); }\n}\n",
        )
        .unwrap();
        let mut clean = Vec::new();
        scan_file_for_durable_writes(&dir, &f, &mut clean);
        assert!(clean.is_empty(), "{clean:#?}");
    }

    #[test]
    fn test_blocks_are_skipped() {
        let mut diagnostics = Vec::new();
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let f = dir.join("sample.rs");
        fs::write(
            &f,
            "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n",
        )
        .unwrap();
        scan_file_for_panics(&dir, &f, &mut diagnostics);
        assert!(diagnostics.is_empty(), "{diagnostics:#?}");

        fs::write(&f, "fn bad() { x.unwrap(); }\n").unwrap();
        scan_file_for_panics(&dir, &f, &mut diagnostics);
        assert_eq!(diagnostics.len(), 1);

        fs::write(
            &f,
            "fn fine() { x.unwrap(); // invariant: x checked above\n}\n",
        )
        .unwrap();
        let mut clean = Vec::new();
        scan_file_for_panics(&dir, &f, &mut clean);
        assert!(clean.is_empty(), "{clean:#?}");
    }
}
