//! Table rendering for experiment binaries: fixed-width plain text that
//! doubles as valid Markdown.

use crate::syn_experiments::GridCell;

/// A simple column-aligned table builder.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given header.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render as a Markdown-compatible aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, &w) in cells.iter().zip(widths) {
                line.push(' ');
                line.push_str(cell);
                line.extend(std::iter::repeat_n(' ', w - cell.chars().count() + 1));
                line.push('|');
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('|');
        for &w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Format a float with 4 decimals (the paper's table precision).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Format a threshold vector as the paper does: integer audit capacities.
pub fn thresholds_str(thresholds: &[f64], costs: &[f64]) -> String {
    let caps: Vec<String> = thresholds
        .iter()
        .zip(costs)
        .map(|(&b, &c)| format!("{}", (b / c).floor() as i64))
        .collect();
    format!("[{}]", caps.join(","))
}

/// Render a Table IV/V grid: one row per budget and, per ε, the cell's
/// value with its thresholds as integer audit capacities.
pub fn render_grid(grid: &[Vec<GridCell>], epsilons: &[f64], costs: &[f64]) -> String {
    let mut header: Vec<String> = vec!["B".into()];
    header.extend(epsilons.iter().map(|e| format!("eps={e}")));
    let mut table = Table::new(header);
    for row in grid {
        let mut cells: Vec<String> = vec![format!("{}", row[0].budget)];
        for cell in row {
            cells.push(format!(
                "{} {}",
                f4(cell.value),
                thresholds_str(&cell.thresholds, costs)
            ));
        }
        table.row(cells);
    }
    table.render()
}

/// Format a mixed strategy's support: orders with probability ≥ `min_prob`.
pub fn support_str(
    orders: &[audit_game::ordering::AuditOrder],
    probs: &[f64],
    min_prob: f64,
) -> String {
    let mut parts: Vec<(f64, String)> = orders
        .iter()
        .zip(probs)
        .filter(|(_, &p)| p >= min_prob)
        .map(|(o, &p)| (p, format!("{o}:{p:.4}")))
        .collect();
    parts.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite probabilities"));
    parts
        .into_iter()
        .map(|(_, s)| s)
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit_game::ordering::AuditOrder;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(vec!["B", "value"]);
        t.row(vec!["2", "12.29"]);
        t.row(vec!["20", "-8.15"]);
        let s = t.render();
        assert!(s.starts_with("| B"));
        assert!(s.contains("|---"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic]
    fn row_arity_is_enforced() {
        Table::new(vec!["a", "b"]).row(vec!["only one"]);
    }

    #[test]
    fn threshold_formatting_uses_capacities() {
        assert_eq!(
            thresholds_str(&[2.0, 3.5, 0.0], &[1.0, 1.0, 1.0]),
            "[2,3,0]"
        );
        assert_eq!(thresholds_str(&[4.0], &[2.0]), "[2]");
    }

    #[test]
    fn support_sorted_by_probability() {
        let orders = vec![
            AuditOrder::new(vec![0, 1]).unwrap(),
            AuditOrder::new(vec![1, 0]).unwrap(),
        ];
        let s = support_str(&orders, &[0.3, 0.7], 0.01);
        assert!(s.starts_with("[2,1]:0.7000"));
        let s = support_str(&orders, &[0.995, 0.005], 0.01);
        assert!(!s.contains("[2,1]"));
    }
}
