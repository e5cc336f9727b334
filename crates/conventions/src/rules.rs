//! One fixture per retired rule L001–L005 (DESIGN.md §10): the library
//! code clippy must flag under the workspace config, line by line, and the
//! code the rule exempts: tests, binaries, lookalikes and the waived
//! modules.

#[cfg(test)]
mod tests {
    use crate::findings::{clippy, tagged};

    /// Asserts that clippy reports exactly the tagged lines of `files`.
    fn check(name: &str, files: &[(&str, &str)]) {
        assert_eq!(clippy(name, files).found, tagged(files));
    }

    /// A binary of the bench package, which owns stdout and real time.
    const BENCH_MAIN: &str = r#"//! Fixture binary.

fn main() {
    let start = std::time::Instant::now();
    let n: u8 = "1".parse().unwrap();
    println!("{n} {:?}", start.elapsed());
    eprintln!("{}", n.checked_add(1).expect("small"));
    std::thread::sleep(std::time::Duration::ZERO);
}
"#;

    #[test]
    fn l001_flags_each_construct_with_exact_lines() {
        let src = r#"//! Fixture.

/// One panicking construct per line.
pub fn f(x: Option<u8>) -> u8 {
    let a = x.unwrap(); // L001: clippy::unwrap_used
    let b = x.expect("msg"); // L001: clippy::expect_used
    if a > b {
        panic!("boom"); // L001: clippy::panic
    }
    unreachable!() // L001: clippy::unreachable
}
"#;
        check("l001", &[("lib/src/lib.rs", src)]);
    }

    #[test]
    fn l001_ignores_tests_bins_lookalikes_and_literals() {
        let src = r#"//! Fixture.

/// Lookalikes: `unwrap_or`, `unwrap_or_default` and a free `expect`.
pub fn f(x: Option<u8>) -> u8 {
    x.unwrap_or(1) + x.unwrap_or_default() + expect("free fn")
}

fn expect(_: &str) -> u8 {
    0
}

/// Inside strings and comments: invisible. // call .unwrap() here
pub const S: &str = "x.unwrap(); panic!()";

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let y = super::S.len().checked_sub(1);
        assert!(y.unwrap() > 0);
        if y.expect("long") == 0 {
            panic!("in test");
        }
    }
}
"#;
        check(
            "l001_exempt",
            &[("lib/src/lib.rs", src), ("bench/src/main.rs", BENCH_MAIN)],
        );
    }

    #[test]
    fn l002_flags_direct_time_reads_except_clock_module() {
        let src = r#"//! Fixture.

use std::time::{Instant, SystemTime};

/// Reads the monotonic clock.
pub fn mono() -> Instant { Instant::now() } // L002: clippy::disallowed_methods
/// Reads the wall clock.
pub fn wall() -> SystemTime { std::time::SystemTime::now() } // L002: clippy::disallowed_methods

/// Stands for `crates/obs/src/clock.rs`, the one module that reads time.
pub mod clock {
    #![expect(clippy::disallowed_methods, reason = "the clock reads real time")]

    /// Reads the monotonic clock.
    pub fn now() -> std::time::Instant { std::time::Instant::now() }
}
"#;
        check(
            "l002",
            &[("lib/src/lib.rs", src), ("bench/src/main.rs", BENCH_MAIN)],
        );
    }

    #[test]
    fn l003_flags_printing_in_libraries_only() {
        let src = r#"//! Fixture.

/// Prints to stdout.
pub fn out() { println!("x") } // L003: clippy::print_stdout
/// Prints to stderr.
pub fn err() { eprintln!("y") } // L003: clippy::print_stderr

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        println!("in test");
        eprintln!("in test");
    }
}
"#;
        check(
            "l003",
            &[
                ("lib/src/lib.rs", src),
                ("bench/src/main.rs", BENCH_MAIN),
                ("examples/src/main.rs", BENCH_MAIN),
            ],
        );
    }

    #[test]
    fn l004_requires_both_crate_attributes() {
        let src = r#"//! Fixture.

/// Documented.
pub fn documented() {}
pub fn undocumented() {} // L004: missing_docs
const _: &str = unsafe { std::str::from_utf8_unchecked(b"ok") }; // L004: unsafe_code
"#;
        check("l004", &[("lib/src/lib.rs", src)]);

        // A forbid, not a deny: no attribute lowers it. Its error stops
        // the build before rustc checks the docs, hence a fixture of its own.
        let src = r#"//! Fixture.

#[allow(unsafe_code, reason = "a forbid admits no waiver")] // L004: E0453
const _: &str = unsafe { std::str::from_utf8_unchecked(b"ok") }; // L004: unsafe_code
"#;
        check("l004_forbid", &[("lib/src/lib.rs", src)]);
    }

    #[test]
    fn l005_flags_sleep_outside_fault_injection() {
        let src = r#"//! Fixture.

use std::time::Duration;

/// Sleeps.
pub fn nap() { std::thread::sleep(Duration::ZERO) } // L005: clippy::disallowed_methods

/// Stands for the fault injector's one waived delay.
pub fn injected_delay(d: Duration) {
    #[expect(clippy::disallowed_methods, reason = "an injected fault delays on purpose")]
    std::thread::sleep(d);
}
"#;
        let tests_src = r#"//! Fixture.

/// The integration-test package may sleep.
pub fn nap() { std::thread::sleep(std::time::Duration::ZERO) }
"#;
        check(
            "l005",
            &[("lib/src/lib.rs", src), ("tests/src/lib.rs", tests_src)],
        );
    }
}
