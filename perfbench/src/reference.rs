//! The committed `BENCH_sweep.json` as an output oracle: every cell a
//! sweep workload produces must equal the same cell of the artifact.
//!
//! Cells are compared as artifact text. A cell's key is its line up to
//! the replacement policy; its value is compared up to the `timing`
//! object for untimed cells (the counters, miss rate and AMAT) and up to
//! `vs_conventional` for timed cells (the counters plus the timing
//! object), so a grid narrowed on the mode axis still compares exactly.

use std::collections::HashMap;

use ucm_bench::sweep::SweepReport;

/// Committed artifact, relative to the repository root.
pub const ARTIFACT: &str = "BENCH_sweep.json";

/// Index of the committed cells by grid key.
pub struct Reference {
    cells: HashMap<String, String>,
}

/// Splits one artifact cell line into (key, comparable value). `None`
/// for lines that are not cells.
fn split_cell(line: &str) -> Option<(&str, &str)> {
    let line = line.trim().trim_end_matches(',');
    if !line.starts_with("{\"workload\": ") {
        return None;
    }
    let key_end = line.find(", \"reads\": ")?;
    let cut = if line.contains("\"timing\": null") {
        line.find(", \"timing\": ")?
    } else {
        line.find(", \"vs_conventional\": ")?
    };
    Some((&line[..key_end], &line[key_end..cut]))
}

/// Cuts a committed (timed) cell down to what a cell of the given
/// timedness can be compared on.
fn comparable(committed: &str, timed: bool) -> &str {
    let cut = if timed {
        committed.find(", \"vs_conventional\": ")
    } else {
        committed.find(", \"timing\": ")
    };
    &committed[..cut.unwrap_or(committed.len())]
}

impl Reference {
    /// Reads and indexes the committed artifact.
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string(ARTIFACT)
            .map_err(|e| format!("reading {ARTIFACT} (run from the repository root): {e}"))?;
        Ok(Self::parse(&text))
    }

    /// Indexes artifact text. Committed cells are all timed, so the
    /// whole line after the key is kept and cut per comparison.
    pub fn parse(text: &str) -> Self {
        let mut cells = HashMap::new();
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            if let Some(key_end) = line
                .starts_with("{\"workload\": ")
                .then(|| line.find(", \"reads\": "))
                .flatten()
            {
                cells.insert(line[..key_end].to_string(), line[key_end..].to_string());
            }
        }
        Reference { cells }
    }

    /// Number of indexed cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Checks one produced cell line; `false` on a mismatch or a cell
    /// the artifact does not hold.
    pub fn matches(&self, cell_line: &str) -> bool {
        let Some((key, value)) = split_cell(cell_line) else {
            return false;
        };
        let timed = !cell_line.contains("\"timing\": null");
        self.cells
            .get(key)
            .is_some_and(|c| comparable(c, timed) == value)
    }

    /// Checks every cell of a report; returns the number that differ.
    pub fn mismatches(&self, report: &SweepReport) -> u64 {
        let (_, cells, _) = report.to_json_parts();
        cells.iter().filter(|c| !self.matches(c)).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMED: &str = "    {\"workload\": \"w\", \"codegen\": \"paper\", \"policy\": \"lru\", \"reads\": 3, \"amat\": 1.5, \"timing\": {\"total_cycles\": 9}, \"vs_conventional\": {\"x\": 1.0}},";

    #[test]
    fn untimed_cells_compare_on_counters() {
        let r = Reference::parse(TIMED);
        assert_eq!(r.len(), 1);
        let untimed = "    {\"workload\": \"w\", \"codegen\": \"paper\", \"policy\": \"lru\", \"reads\": 3, \"amat\": 1.5, \"timing\": null, \"vs_conventional\": null}\n";
        assert!(r.matches(untimed));
        assert!(!r.matches(&untimed.replace("\"reads\": 3", "\"reads\": 4")));
    }

    #[test]
    fn timed_cells_compare_on_counters_and_timing() {
        let r = Reference::parse(TIMED);
        let narrowed = TIMED.replace("{\"x\": 1.0}", "null");
        assert!(r.matches(&narrowed));
        assert!(!r.matches(&TIMED.replace("9}", "10}")));
    }

    #[test]
    fn unknown_cells_do_not_match() {
        let r = Reference::parse(TIMED);
        assert!(!r.matches(&TIMED.replace("\"w\"", "\"v\"")));
        assert!(!r.matches("  ]"));
    }
}
