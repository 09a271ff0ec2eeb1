//! Report emission shared by the experiment binaries.
//!
//! Drivers describe their stdout report as items — comments, tables,
//! series, scalars — written by a [`TextSink`] as human-readable text
//! (aligned tables, paper-style percentages). Machine-readable results
//! go to the run manifest (`--metrics`) as `cell` and `scalar` records
//! instead. The low-level [`table`], [`series_points`] and [`pct`]
//! formatters remain available for tests and ad-hoc tools.

use std::fmt::Write as _;

/// Renders an aligned text table: `header` then `rows`, all columns
/// left-padded to the widest cell.
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let columns = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), columns, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:>width$}", width = widths[i]);
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    render(&header_cells, &widths, &mut out);
    let rule: usize = widths.iter().sum::<usize>() + 2 * (columns - 1);
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        render(row, &widths, &mut out);
    }
    out
}

/// Formats a percentage speedup like the paper's prose ("9.0%").
pub fn pct(speedup: f64) -> String {
    format!("{:+.1}%", (speedup - 1.0) * 100.0)
}

/// Sorts `values` (as the paper's S-curves plot them) and downsamples
/// them to about `points` `(index, value)` pairs, always keeping the
/// last.
pub fn series_points(mut values: Vec<f64>, ascending: bool, points: usize) -> Vec<(usize, f64)> {
    if ascending {
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    } else {
        values.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    }
    let step = (values.len() / points.max(1)).max(1);
    values
        .iter()
        .enumerate()
        .filter(|(i, _)| i % step == 0 || *i == values.len() - 1)
        .map(|(i, v)| (i, *v))
        .collect()
}

/// The drivers' report writer: renders each item as text as soon as it
/// arrives, so the report interleaves with `eprintln!` progress messages
/// as direct printing would.
pub struct TextSink<W: std::io::Write = std::io::Stdout> {
    out: W,
}

impl TextSink {
    /// A text sink writing to stdout.
    pub fn stdout() -> Self {
        TextSink::new(std::io::stdout())
    }
}

impl<W: std::io::Write> TextSink<W> {
    /// A text sink writing to `out`.
    pub fn new(out: W) -> Self {
        TextSink { out }
    }

    /// Free-form context for human readers (headers, paper references).
    pub fn comment(&mut self, text: &str) {
        let _ = writeln!(self.out, "{text}");
    }

    /// An aligned table with one row per entity.
    pub fn table(&mut self, header: &[&str], rows: &[Vec<String>]) {
        let _ = writeln!(self.out, "{}", table(header, rows));
    }

    /// A sorted/sampled series, e.g. an S-curve, as `(index, value)`.
    pub fn series(&mut self, label: &str, points: &[(usize, f64)]) {
        let _ = writeln!(self.out, "# s-curve: {label}");
        for (i, v) in points {
            let _ = writeln!(self.out, "{i:4}  {v:.4}");
        }
    }

    /// A named summary number, already formatted (e.g. `+9.0%`).
    pub fn scalar(&mut self, name: &str, rendered: &str) {
        let _ = writeln!(self.out, "  {name:<12} {rendered}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "mpki"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["longer".into(), "12.34".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("12.34"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn table_rejects_ragged_rows() {
        let _ = table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn series_points_sort_and_downsample() {
        let pts = series_points(vec![3.0, 1.0, 2.0], true, 10);
        assert_eq!(pts, vec![(0, 1.0), (1, 2.0), (2, 3.0)]);
        let descending = series_points(vec![3.0, 1.0, 2.0], false, 10);
        assert_eq!(descending[0], (0, 3.0));
        // Every second point, plus the last.
        let values: Vec<f64> = (0..5).map(f64::from).collect();
        let sampled = series_points(values, true, 2);
        assert_eq!(sampled, vec![(0, 0.0), (2, 2.0), (4, 4.0)]);
    }

    #[test]
    fn pct_formats_signed() {
        assert_eq!(pct(1.09), "+9.0%");
        assert_eq!(pct(0.95), "-5.0%");
    }

    #[test]
    fn text_sink_keeps_human_formatting() {
        let mut sink = TextSink::new(Vec::new());
        sink.comment("hello");
        sink.table(
            &["name", "ipc"],
            &[
                vec!["a".into(), "1.5".into()],
                vec!["b".into(), "2x".into()],
            ],
        );
        sink.series("s", &[(0, 1.0), (1, 2.0)]);
        sink.scalar("geo", "+9.0%");
        let out = String::from_utf8(sink.out).expect("utf8 report");
        let want = "hello\n\
                    name  ipc\n\
                    ---------\n   \
                    a  1.5\n   \
                    b   2x\n\
                    \n\
                    # s-curve: s\n   \
                    0  1.0000\n   \
                    1  2.0000\n  \
                    geo          +9.0%\n";
        assert_eq!(out, want);
    }
}
