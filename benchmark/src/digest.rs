//! Order-insensitive digests of result rows, and the committed
//! `expected/<workload>.digest` files measured replies are checked against.
//!
//! The digest is over what a client sees: the rendered payload lines of a
//! reply. Floating-point fields are rounded to ten significant digits
//! first, because two sound plans may sum the same values in a different
//! order.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use decorr_common::mix64;

use crate::util::fnv64;

/// `(row count, digest)` of a reply's payload lines. Footers (`-- …`)
/// and the Kim warning are not rows.
pub fn digest_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> (u64, u64) {
    let (mut n, mut sum) = (0u64, 0u64);
    let mut buf = String::new();
    for line in lines {
        if line.starts_with("--") || line.starts_with("warning:") {
            continue;
        }
        normalize_into(line, &mut buf);
        n += 1;
        sum = sum.wrapping_add(mix64(fnv64(buf.as_bytes())));
    }
    (n, mix64(sum ^ n))
}

/// Copy `line` into `out` with every unquoted decimal number that has a
/// fraction or exponent re-rendered at ten significant digits.
fn normalize_into(line: &str, out: &mut String) {
    out.clear();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' => {
                let end = line[i + 1..].find('\'').map_or(bytes.len(), |e| i + e + 2);
                out.push_str(&line[i..end]);
                i = end;
            }
            b'0'..=b'9' | b'-' => {
                let start = i;
                i += 1;
                while i < bytes.len()
                    && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'-' | b'+')
                {
                    i += 1;
                }
                let tok = &line[start..i];
                match tok.parse::<f64>() {
                    Ok(x) if tok.contains(['.', 'e', 'E']) => {
                        let _ = write!(out, "{x:.9e}");
                    }
                    _ => out.push_str(tok),
                }
            }
            _ => {
                let ch_len = line[i..].chars().next().map_or(1, char::len_utf8);
                out.push_str(&line[i..i + ch_len]);
                i += ch_len;
            }
        }
    }
}

/// One blessed answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub rows: u64,
    pub digest: u64,
    pub class: String,
}

/// The expected answers of one workload, keyed by `(scale, sql key)`.
#[derive(Default)]
pub struct Expected {
    answers: BTreeMap<(String, u64), Answer>,
}

pub fn scale_tag(scale: f64) -> String {
    format!("{scale}")
}

pub fn expected_path(home: &Path, workload: &str) -> PathBuf {
    home.join("expected").join(format!("{workload}.digest"))
}

impl Expected {
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e} (run `bless` first)", path.display()))?;
        let mut answers = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            let parsed = (|| {
                Some((
                    (
                        f.first()?.to_string(),
                        u64::from_str_radix(f.get(1)?, 16).ok()?,
                    ),
                    Answer {
                        rows: f.get(2)?.parse().ok()?,
                        digest: u64::from_str_radix(f.get(3)?, 16).ok()?,
                        class: f.get(4)?.to_string(),
                    },
                ))
            })();
            let (k, v) = parsed.ok_or_else(|| format!("{}: bad line {line:?}", path.display()))?;
            answers.insert(k, v);
        }
        Ok(Expected { answers })
    }

    pub fn get(&self, scale: f64, key: u64) -> Option<&Answer> {
        self.answers.get(&(scale_tag(scale), key))
    }

    pub fn insert(&mut self, scale: f64, key: u64, answer: Answer) -> Option<Answer> {
        self.answers.insert((scale_tag(scale), key), answer)
    }

    pub fn len(&self) -> usize {
        self.answers.len()
    }

    pub fn save(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = format!(
            "# expected answers of {workload}: blessed from \\strategy ni, ni_memo off, \
             ni_batch off, columnar off, 1 thread\n\
             # data seed {}; columns: scale, fnv64(sql), rows, row-multiset digest, class\n",
            crate::workload::DATA_SEED
        );
        for ((scale, key), a) in &self.answers {
            let _ = writeln!(
                out,
                "{scale} {key:016x} {} {:016x} {}",
                a.rows, a.digest, a.class
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_footers_and_float_noise() {
        let a = digest_lines(["(1, 'x', 0.30000000000000004)", "(2, 'y', 5)", "-- 2 rows"]);
        let b = digest_lines(["(2, 'y', 5)", "(1, 'x', 0.3)"]);
        assert_eq!(a, b);
        assert_eq!(a.0, 2);
        assert_ne!(a, digest_lines(["(2, 'y', 5)", "(1, 'x', 0.31)"]));
        // Duplicates count: a multiset, not a set.
        assert_ne!(digest_lines(["(1)"]), digest_lines(["(1)", "(1)"]));
        // Quoted text is never re-rendered.
        assert_ne!(digest_lines(["('1.50')"]), digest_lines(["('1.5')"]));
    }
}
