//! Output checks: golden digests at the default seed, self-consistency
//! at any other.

use std::collections::BTreeMap;

/// The committed goldens: one `key hex-digest` line per checked output,
/// keyed `<scale>.<workload>.<op>`, taken at [`crate::DEFAULT_SEED`].
pub const GOLDEN: &str = include_str!("../golden.txt");

/// Parses golden lines; blank lines and `#` comments are skipped.
pub fn parse(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut map = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("golden line {}: expected `key hex`: {line}", n + 1);
        let (key, hex) = line.split_once(' ').ok_or_else(bad)?;
        let digest = u64::from_str_radix(hex.trim(), 16).map_err(|_| bad())?;
        map.insert(key.to_string(), digest);
    }
    Ok(map)
}

/// Checks every op of a run against one reference per key.
///
/// At the default seed the references are the goldens, and a key without
/// one fails. At any other seed the first value seen for a key becomes its
/// reference, so every later pass must repeat it exactly.
pub struct Checker {
    prefix: String,
    reference: BTreeMap<String, u64>,
    golden: bool,
    /// Ops checked.
    pub attempted: u64,
    /// Ops that panicked, diverged or missed their reference.
    pub failed: u64,
}

impl Checker {
    /// A checker for keys under `prefix` (`<scale>.<workload>`).
    pub fn new(prefix: String, goldens: Option<&BTreeMap<String, u64>>) -> Self {
        Checker {
            prefix,
            reference: goldens.cloned().unwrap_or_default(),
            golden: goldens.is_some(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records one op's output; returns whether it passed.
    pub fn check(&mut self, op: &str, out: &Result<u64, String>) -> bool {
        self.attempted += 1;
        let key = format!("{}.{op}", self.prefix);
        let ok = match out {
            Err(e) => {
                eprintln!("FAILED {key}: {e}");
                false
            }
            Ok(d) => match self.reference.get(&key) {
                Some(r) if r == d => true,
                Some(r) => {
                    eprintln!("FAILED {key}: digest {d:016x}, expected {r:016x}");
                    false
                }
                None if self.golden => {
                    eprintln!("FAILED {key}: no golden digest");
                    false
                }
                None => {
                    self.reference.insert(key, *d);
                    true
                }
            },
        };
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Records a check made by comparing two runs directly.
    pub fn expect(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            eprintln!("FAILED {}: {what}", self.prefix);
            self.failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_goldens_parse_and_bad_lines_are_errors() {
        assert!(!parse(GOLDEN).expect("golden.txt parses").is_empty());
        assert!(parse("# note\n\nfull.x.y 00ff\n").is_ok());
        assert!(parse("full.x.y\n").is_err());
        assert!(parse("full.x.y zz\n").is_err());
    }

    #[test]
    fn without_goldens_the_first_value_is_the_reference() {
        let mut c = Checker::new("tiny.w".into(), None);
        assert!(c.check("op", &Ok(1)));
        assert!(c.check("op", &Ok(1)));
        assert!(!c.check("op", &Ok(2)));
        assert!(!c.check("other", &Err("panic".into())));
        assert_eq!((c.attempted, c.failed), (4, 2));
    }
}
