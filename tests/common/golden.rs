//! The one reader of the golden registry, `tests/goldens.txt` (DESIGN.md
//! §18). A test opens its group and checks each value it pins against the
//! row of that name. A moved value prints `golden <name>: <old> -> <new>`
//! and the test goes on, so one run names every moved row. Dropping the
//! group fails the test on a moved or conflicting value, or on a row of the
//! group never checked. The `bench` and `cartesian` suites include this
//! file by path.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A row's name, value, and whether the value is spelled in hex.
type Row = (&'static str, u64, bool);

/// Every row; a malformed one panics with its line number.
fn rows() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let lines = include_str!("../goldens.txt").lines().enumerate();
        lines
            .filter(|(_, l)| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|(i, l)| parse(l).unwrap_or_else(|e| panic!("goldens.txt:{}: {e}", i + 1)))
            .collect()
    })
}

/// `name value commit date reason…`; commit, date and reason are
/// checked, not kept.
fn parse(line: &'static str) -> Result<Row, String> {
    let f: Vec<&'static str> = line.split_whitespace().collect();
    let [name, value, commit, date, _reason, ..] = f[..] else {
        return Err("want `name value commit date reason`".into());
    };
    let hex = value.strip_prefix("0x");
    let parsed = hex.map_or(value.parse(), |h| u64::from_str_radix(h, 16));
    let parsed = parsed.map_err(|e| format!("value {value}: {e}"))?;
    let sha = commit.trim_end_matches('+');
    if sha.len() < 7 || !sha.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("commit {commit} is not a short sha"));
    }
    let ymd = |(i, b): (usize, u8)| {
        (b == b'-') == (i == 4 || i == 7) && (b == b'-' || b.is_ascii_digit())
    };
    if date.len() != 10 || !date.bytes().enumerate().all(ymd) {
        return Err(format!("date {date} is not YYYY-MM-DD"));
    }
    Ok((name, parsed, hex.is_some()))
}

fn show(&(_, _, hex): &Row, v: u64) -> String {
    if hex {
        format!("{v:#018x}")
    } else {
        v.to_string()
    }
}

/// The rows `<prefix>.*`, all checked by one test.
pub struct Group {
    prefix: &'static str,
    /// Each name checked so far, at the value it was last checked at.
    seen: RefCell<BTreeMap<String, u64>>,
    failures: Cell<usize>,
}

/// Open the group `<suite>.<case>`.
pub fn group(prefix: &'static str) -> Group {
    let (seen, failures) = Default::default();
    Group {
        prefix,
        seen,
        failures,
    }
}

impl Group {
    /// Check `got` against the row `<prefix>.<name>`.
    pub fn check(&self, name: &str, got: u64) {
        let name = format!("{}.{name}", self.prefix);
        let earlier = self.seen.borrow_mut().insert(name.clone(), got);
        let failure = match (rows().iter().find(|r| r.0 == name), earlier) {
            (None, _) => "no row".to_string(),
            (Some(r), Some(v)) if v != got => {
                format!("conflicting values {} and {}", show(r, v), show(r, got))
            }
            (Some(r), None) if r.1 != got => format!("{} -> {}", show(r, r.1), show(r, got)),
            _ => return,
        };
        eprintln!("golden {name}: {failure}");
        self.failures.set(self.failures.get() + 1);
    }
}

impl Drop for Group {
    fn drop(&mut self) {
        let seen = self.seen.get_mut();
        let unchecked: Vec<&str> = rows()
            .iter()
            .map(|r| r.0)
            .filter(|n| in_group(n, self.prefix) && !seen.contains_key(*n))
            .collect();
        let failures = self.failures.get();
        if !std::thread::panicking() && (failures > 0 || !unchecked.is_empty()) {
            panic!(
                "{}: {failures} `golden` line(s) above; rows never checked: {unchecked:?}",
                self.prefix
            );
        }
    }
}

/// The registry is owned: names are unique, and every row lies in a group
/// that a `golden::group("…")` literal in the `suites` sources opens.
#[allow(dead_code)]
pub fn self_check(suites: &[&str]) {
    let mut names: Vec<&str> = rows().iter().map(|r| r.0).collect();
    names.sort_unstable();
    names
        .windows(2)
        .for_each(|w| assert_ne!(w[0], w[1], "row named twice"));
    let groups: Vec<&str> = suites
        .iter()
        .flat_map(|src| src.split("golden::group(\"").skip(1))
        .map(|s| &s[..s.find('"').expect("closing quote")])
        .collect();
    for n in names {
        assert!(
            groups.iter().any(|g| in_group(n, g)),
            "row {n} is in no group"
        );
    }
}

/// `name` is `<group>.<detail>`.
fn in_group(name: &str, group: &str) -> bool {
    name.strip_prefix(group).is_some_and(|s| s.starts_with('.'))
}
