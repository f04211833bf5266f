//! Report-table formatting helpers shared by the figure registry.

use pagecross_types::geomean;

/// Formats a ratio as a signed percentage ("+1.73%").
pub fn fmt_pct(ratio: f64) -> String {
    format!("{:+.2}%", (ratio - 1.0) * 100.0)
}

/// Formats an optional ratio metric ("0.731"), rendering `-` when the
/// metric is undefined (e.g. accuracy with no resolved prefetches).
pub fn fmt_opt_ratio(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "-".to_string(),
    }
}

/// Geometric-mean speedup of `variant` IPCs over `baseline` IPCs
/// (element-wise, same workload order).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn geomean_speedup(variant: &[f64], baseline: &[f64]) -> f64 {
    assert_eq!(variant.len(), baseline.len(), "paired IPC vectors");
    let ratios: Vec<f64> = variant
        .iter()
        .zip(baseline)
        .map(|(v, b)| if *b > 0.0 { v / b } else { 1.0 })
        .collect();
    geomean(&ratios).unwrap_or(1.0)
}

/// One figure's output: TSV lines and a closing paper-vs-measured SUMMARY
/// line, each prefixed with the figure's id in the stable grep-able format
/// EXPERIMENTS.md references.
#[derive(Debug)]
pub struct Table {
    id: &'static str,
    text: String,
}

impl Table {
    /// An empty output for the figure `id` (e.g. "fig10").
    pub fn new(id: &'static str) -> Self {
        Self {
            id,
            text: String::new(),
        }
    }

    /// Appends a TSV header line.
    pub fn header(&mut self, cols: &[&str]) {
        self.line(&cols.join("\t"));
    }

    /// Appends a TSV row.
    pub fn row(&mut self, cells: &[String]) {
        self.line(&cells.join("\t"));
    }

    /// Appends the SUMMARY line: what the paper reports, what this
    /// reproduction measured, and whether the qualitative shape matches.
    pub fn summary(&mut self, paper: &str, measured: &str, shape_holds: bool) {
        let shape = if shape_holds { "HOLDS" } else { "DIVERGES" };
        self.line(&format!(
            "SUMMARY paper=({paper}) measured=({measured}) shape={shape}"
        ));
    }

    fn line(&mut self, body: &str) {
        self.text.push_str(&format!("[{}] {body}\n", self.id));
    }

    /// The lines appended so far, each ending in a newline.
    pub fn text(&self) -> &str {
        &self.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formatting() {
        assert_eq!(fmt_pct(1.0173), "+1.73%");
        assert_eq!(fmt_pct(0.98), "-2.00%");
    }

    #[test]
    fn opt_ratio_renders_dash_for_none() {
        assert_eq!(fmt_opt_ratio(Some(0.7305)), "0.731");
        assert_eq!(fmt_opt_ratio(None), "-");
    }

    #[test]
    fn geomean_speedup_pairs() {
        let g = geomean_speedup(&[1.1, 1.1], &[1.0, 1.0]);
        assert!((g - 1.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "paired")]
    fn mismatched_lengths_rejected() {
        geomean_speedup(&[1.0], &[]);
    }

    #[test]
    fn table_prefixes_every_line_with_the_id() {
        let mut t = Table::new("fig10");
        t.header(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        t.summary("p", "m", false);
        assert_eq!(
            t.text(),
            "[fig10] a\tb\n[fig10] 1\t2\n[fig10] SUMMARY paper=(p) measured=(m) shape=DIVERGES\n"
        );
    }
}
