//! Run clippy over a fixture workspace and collect what it finds; check
//! the `#[expect(.., reason = "..")]` waiver syntax.
//!
//! A fixture is a list of `(path, source)` files. The first component of
//! each path names a package: `lib` inherits the root
//! `[workspace.lints.*]` tables, while `bench`, `examples` and `tests`
//! copy the `[lints.*]` tables of the real package of that name. A line
//! that must raise a diagnostic ends in `// <rule>: <lint>`.

use crate::repo_root;
use serde_json::Value;
use std::fs;
use std::path::Path;
use std::process::Command;
use std::sync::Mutex;

/// What one clippy run reported.
pub struct Report {
    /// Whether `cargo clippy` exited 0.
    pub passed: bool,
    /// `(path, line, lint)` for every diagnostic with a primary span,
    /// sorted and deduplicated across targets.
    pub found: Vec<(String, u32, String)>,
}

/// The lint a line is tagged with, if any.
fn tag(line: &str) -> Option<&str> {
    let (_, tag) = line.split_once(" // L")?;
    Some(tag.split_once(": ")?.1)
}

/// `(path, line, lint)` for every tagged line of `files`, sorted.
pub fn tagged(files: &[(&str, &str)]) -> Vec<(String, u32, String)> {
    let mut out: Vec<_> = files
        .iter()
        .flat_map(|(path, src)| {
            src.lines().enumerate().filter_map(move |(i, line)| {
                Some((path.to_string(), i as u32 + 1, tag(line)?.to_string()))
            })
        })
        .collect();
    out.sort();
    out
}

/// `src` with an `#[expect]` above every tagged line. `unsafe_code` is
/// forbidden, which no attribute can lower, so its line is left out.
fn waived(src: &str) -> String {
    let mut out = String::new();
    for line in src.lines() {
        match tag(line) {
            Some("unsafe_code") => continue,
            Some(lint) => out.push_str(&format!("#[expect({lint}, reason = \"fixture\")]\n")),
            None => {}
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The `[<prefix>*]` tables of the manifest at `rel`, verbatim.
fn lint_tables(rel: &str, prefix: &str) -> String {
    let manifest = fs::read_to_string(repo_root().join(rel)).expect("read manifest");
    let mut out = String::new();
    let mut inside = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            inside = line.starts_with(prefix);
        }
        if inside {
            out.push_str(line);
            out.push('\n');
        }
    }
    assert!(!out.is_empty(), "no {prefix}*] table in {rel}");
    out
}

/// The `[lints]` section of fixture package `pkg`.
fn package_lints(pkg: &str) -> String {
    match pkg {
        "lib" => "[lints]\nworkspace = true\n".to_string(),
        "bench" => lint_tables("crates/bench/Cargo.toml", "[lints."),
        "examples" | "tests" => lint_tables(&format!("{pkg}/Cargo.toml"), "[lints."),
        _ => panic!("unknown fixture package {pkg}"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn string(v: Option<&Value>) -> Option<&str> {
    match v {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// `(path, line, lint)` of one `compiler-message` line of cargo's JSON.
fn finding(line: &str) -> Option<(String, u32, String)> {
    let msg = serde_json::from_str::<Value>(line).ok()?;
    if string(field(&msg, "reason")) != Some("compiler-message") {
        return None;
    }
    let diag = field(&msg, "message")?;
    let Some(Value::Seq(spans)) = field(diag, "spans") else {
        return None;
    };
    let span = spans
        .iter()
        .find(|s| matches!(field(s, "is_primary"), Some(Value::Bool(true))))?;
    let Some(Value::Int(line_no)) = field(span, "line_start") else {
        return None;
    };
    let lint = string(field(diag, "code").and_then(|c| field(c, "code")))
        .or(string(field(diag, "message")))
        .unwrap_or("?");
    Some((
        string(field(span, "file_name"))?.to_string(),
        *line_no as u32,
        lint.to_string(),
    ))
}

/// One clippy run at a time keeps the fixtures' memory small.
static CLIPPY: Mutex<()> = Mutex::new(());

/// Run `cargo clippy --all-targets` over a fresh workspace named `name`
/// holding `files`, with the root `clippy.toml`.
pub fn clippy(name: &str, files: &[(&str, &str)]) -> Report {
    let _one = CLIPPY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let root =
        std::env::temp_dir().join(format!("hetmmm-conventions-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let mut packages: Vec<&str> = files
        .iter()
        .filter_map(|(path, _)| path.split('/').next())
        .collect();
    packages.sort();
    packages.dedup();
    fs::create_dir_all(&root).expect("create fixture root");
    fs::write(
        root.join("Cargo.toml"),
        format!(
            "[workspace]\nmembers = {packages:?}\nresolver = \"2\"\n\n{}",
            lint_tables("Cargo.toml", "[workspace.lints.")
        ),
    )
    .expect("write workspace manifest");
    fs::copy(repo_root().join("clippy.toml"), root.join("clippy.toml")).expect("copy clippy.toml");
    for pkg in &packages {
        fs::create_dir_all(root.join(pkg)).expect("create package dir");
        fs::write(
            root.join(pkg).join("Cargo.toml"),
            format!(
                "[package]\nname = \"fixture-{pkg}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n{}",
                package_lints(pkg)
            ),
        )
        .expect("write package manifest");
    }
    for (path, src) in files {
        let path = root.join(path);
        fs::create_dir_all(path.parent().unwrap_or(Path::new("."))).expect("create source dir");
        fs::write(path, src).expect("write fixture source");
    }

    let out = Command::new(env!("CARGO"))
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--all-targets",
            "--keep-going",
        ])
        .arg("--message-format=json")
        .arg("--target-dir")
        .arg(root.join("target"))
        .current_dir(&root)
        .env_remove("CLIPPY_CONF_DIR")
        .output()
        .expect("run cargo clippy");
    let _ = fs::remove_dir_all(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"compiler-artifact\"") || stdout.contains("\"compiler-message\""),
        "cargo clippy did not check the fixture (is clippy installed?):\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut found: Vec<_> = stdout.lines().filter_map(finding).collect();
    found.sort();
    found.dedup();
    Report {
        passed: out.status.success(),
        found,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One site of every workspace lint, each tagged with its rule.
    const EVERY_LINT: &str = r#"//! Fixture.

use std::time::{Duration, Instant, SystemTime};

#[allow(dead_code)] // L000: clippy::allow_attributes_without_reason
fn unused() {}

/// Documented.
pub fn unwraps(v: Option<u8>) -> u8 { v.unwrap() } // L001: clippy::unwrap_used
/// Documented.
pub fn expects(v: Option<u8>) -> u8 { v.expect("some") } // L001: clippy::expect_used
/// Documented.
pub fn panics() { panic!("boom") } // L001: clippy::panic
/// Documented.
pub fn unreachables() { unreachable!() } // L001: clippy::unreachable
/// Documented.
pub fn instant() -> Instant { Instant::now() } // L002: clippy::disallowed_methods
/// Documented.
pub fn system_time() -> SystemTime { SystemTime::now() } // L002: clippy::disallowed_methods
/// Documented.
pub fn prints() { println!("out") } // L003: clippy::print_stdout
/// Documented.
pub fn eprints() { eprintln!("err") } // L003: clippy::print_stderr
pub fn undocumented() {} // L004: missing_docs
const _: &str = unsafe { std::str::from_utf8_unchecked(b"ok") }; // L004: unsafe_code
/// Documented.
pub fn sleeps() { std::thread::sleep(Duration::ZERO) } // L005: clippy::disallowed_methods
"#;

    /// One attribute may name several lints before its reason.
    const SEVERAL: &str = r#"
/// Documented.
#[expect(clippy::unwrap_used, clippy::print_stdout, reason = "legacy path, tracked")]
pub fn legacy(v: Option<u8>) { println!("{}", v.unwrap()) }
"#;

    #[test]
    fn suppression_parses_rules_and_reason() {
        let files = [("lib/src/lib.rs", EVERY_LINT)];
        let report = clippy("every_lint", &files);
        assert_eq!(report.found, tagged(&files));
        assert!(
            !report.passed,
            "a forbidden unsafe block must fail the check"
        );

        let src = waived(EVERY_LINT) + SEVERAL;
        let report = clippy("waived", &[("lib/src/lib.rs", &src)]);
        assert_eq!(report.found, []);
        assert!(report.passed);
    }

    #[test]
    fn suppression_without_reason_becomes_l000() {
        let src = r#"//! Fixture.

/// Allowed without a reason.
#[allow(clippy::unwrap_used)] // L000: clippy::allow_attributes_without_reason
pub fn allowed(v: Option<u8>) -> u8 { v.unwrap() }
/// Expected without a reason.
#[expect(clippy::unwrap_used)] // L000: clippy::allow_attributes_without_reason
pub fn expected(v: Option<u8>) -> u8 { v.unwrap() }
"#;
        let files = [("lib/src/lib.rs", src)];
        assert_eq!(clippy("reasonless", &files).found, tagged(&files));
    }

    #[test]
    fn suppression_covers_same_line_and_next_line_only() {
        let src = r#"//! Fixture.

/// An `#[expect]` covers the statement it sits on and nothing after it.
pub fn scoped(x: Option<u8>) -> u8 {
    #[expect(clippy::unwrap_used, reason = "same line")] let a = x.unwrap();
    #[expect(clippy::unwrap_used, reason = "next line")]
    let b = x.unwrap().max(x.expect("another lint")); // L001: clippy::expect_used
    let c = x.unwrap(); // L001: clippy::unwrap_used
    a.max(b).max(c)
}
"#;
        let files = [("lib/src/lib.rs", src)];
        assert_eq!(clippy("scope", &files).found, tagged(&files));
    }
}
