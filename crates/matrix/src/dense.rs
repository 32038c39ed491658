//! The labelled dense traffic matrix used by learning modules and the game.
//!
//! Module matrices are small (the paper ships 6×6 and 10×10 templates) and
//! dense storage keeps them trivially indexable by the warehouse scene, which
//! needs one pallet per cell regardless of value.

use crate::color::{CellColor, ColorMatrix};
use crate::error::{MatrixError, Result};
use crate::labels::LabelSet;

/// A square, labelled, dense traffic matrix with packet counts as values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficMatrix {
    labels: LabelSet,
    values: Vec<u32>,
}

impl TrafficMatrix {
    /// An all-zero matrix with the given labels.
    pub fn zeros(labels: LabelSet) -> Self {
        let n = labels.len();
        TrafficMatrix {
            labels,
            values: vec![0; n * n],
        }
    }

    /// Build from a row-major grid (the module-file `traffic_matrix` encoding)
    /// and a label set. The grid must be square and match the label count.
    pub fn from_grid(labels: LabelSet, grid: &[Vec<u32>]) -> Result<Self> {
        let n = labels.len();
        if grid.len() != n {
            return Err(MatrixError::LabelCountMismatch {
                labels: n,
                dimension: grid.len(),
            });
        }
        let mut values = Vec::with_capacity(n * n);
        for (r, row) in grid.iter().enumerate() {
            if row.len() != n {
                return Err(MatrixError::RaggedRows {
                    row: r,
                    expected: n,
                    actual: row.len(),
                });
            }
            values.extend_from_slice(row);
        }
        Ok(TrafficMatrix { labels, values })
    }

    /// Matrix dimension (rows == columns == label count).
    pub fn dimension(&self) -> usize {
        self.labels.len()
    }

    /// The axis labels.
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// Replace the labels (must have the same length).
    pub fn set_labels(&mut self, labels: LabelSet) -> Result<()> {
        if labels.len() != self.dimension() {
            return Err(MatrixError::LabelCountMismatch {
                labels: labels.len(),
                dimension: self.dimension(),
            });
        }
        self.labels = labels;
        Ok(())
    }

    /// The packet count at `(row, col)`; `None` when out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<u32> {
        let n = self.dimension();
        if row < n && col < n {
            Some(self.values[row * n + col])
        } else {
            None
        }
    }

    /// Set the packet count at `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize, value: u32) -> Result<()> {
        let n = self.dimension();
        if row >= n {
            return Err(MatrixError::IndexOutOfBounds {
                index: row,
                bound: n,
                axis: "row",
            });
        }
        if col >= n {
            return Err(MatrixError::IndexOutOfBounds {
                index: col,
                bound: n,
                axis: "column",
            });
        }
        self.values[row * n + col] = value;
        Ok(())
    }

    /// Add to the packet count at `(row, col)` (saturating).
    pub fn add(&mut self, row: usize, col: usize, delta: u32) -> Result<()> {
        let current = self.get(row, col).ok_or(MatrixError::IndexOutOfBounds {
            index: row.max(col),
            bound: self.dimension(),
            axis: "row/column",
        })?;
        self.set(row, col, current.saturating_add(delta))
    }

    /// Row-major export, matching the module-file encoding.
    pub fn to_grid(&self) -> Vec<Vec<u32>> {
        let n = self.dimension();
        (0..n)
            .map(|r| self.values[r * n..(r + 1) * n].to_vec())
            .collect()
    }

    /// Total packets in the matrix.
    pub fn total_packets(&self) -> u64 {
        self.values.iter().map(|&v| v as u64).sum()
    }

    /// Number of non-zero cells.
    pub fn nonzero_count(&self) -> usize {
        self.values.iter().filter(|&&v| v > 0).count()
    }

    /// The largest cell value. The paper notes values under 15 display well.
    pub fn max_value(&self) -> u32 {
        self.values.iter().copied().max().unwrap_or(0)
    }

    /// Out-degree (row sum) of every node, in packets.
    pub fn out_degrees(&self) -> Vec<u64> {
        let n = self.dimension();
        (0..n)
            .map(|r| {
                self.values[r * n..(r + 1) * n]
                    .iter()
                    .map(|&v| v as u64)
                    .sum()
            })
            .collect()
    }

    /// In-degree (column sum) of every node, in packets.
    pub fn in_degrees(&self) -> Vec<u64> {
        let n = self.dimension();
        let mut degrees = vec![0u64; n];
        for row in self.values.chunks_exact(n) {
            for (degree, value) in degrees.iter_mut().zip(row) {
                *degree += *value as u64;
            }
        }
        degrees
    }

    /// Out-fanout (count of distinct destinations) of every node.
    pub fn out_fanout(&self) -> Vec<usize> {
        let n = self.dimension();
        (0..n)
            .map(|r| (0..n).filter(|&c| self.values[r * n + c] > 0).count())
            .collect()
    }

    /// In-fanout (count of distinct sources) of every node.
    pub fn in_fanout(&self) -> Vec<usize> {
        let n = self.dimension();
        (0..n)
            .map(|c| (0..n).filter(|&r| self.values[r * n + c] > 0).count())
            .collect()
    }

    /// Iterate over non-zero `(row, col, value)` triples in row-major order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
        let n = self.dimension();
        (0..n * n).filter_map(move |i| {
            let v = self.values[i];
            if v > 0 {
                Some((i / n, i % n, v))
            } else {
                None
            }
        })
    }

    /// The transposed matrix (traffic in the reverse direction).
    pub fn transpose(&self) -> TrafficMatrix {
        let n = self.dimension();
        let mut out = TrafficMatrix::zeros(self.labels.clone());
        for r in 0..n {
            for c in 0..n {
                out.values[c * n + r] = self.values[r * n + c];
            }
        }
        out
    }

    /// Element-wise saturating sum of two matrices with identical labels.
    ///
    /// Learning modules use this to combine individual attack stages into one
    /// composite picture ("they could all be combined together").
    pub fn combine(&self, other: &TrafficMatrix) -> Result<TrafficMatrix> {
        if self.labels != other.labels {
            return Err(MatrixError::DimensionMismatch(format!(
                "cannot combine a {}x{0} matrix with a {}x{1} matrix with different labels",
                self.dimension(),
                other.dimension()
            )));
        }
        let mut out = self.clone();
        for (dst, src) in out.values.iter_mut().zip(other.values.iter()) {
            *dst = dst.saturating_add(*src);
        }
        Ok(out)
    }

    /// True when the matrix is symmetric (undirected traffic).
    pub fn is_symmetric(&self) -> bool {
        let n = self.dimension();
        (0..n).all(|r| (0..n).all(|c| self.values[r * n + c] == self.values[c * n + r]))
    }

    /// Render the matrix as a compact ASCII table with axis labels, the same
    /// orientation as the paper's 2-D view (rows = sources, columns = destinations).
    pub fn to_ascii(&self) -> String {
        self.to_ascii_with_colors(None)
    }

    /// Like [`TrafficMatrix::to_ascii`], with an optional color plane: colored
    /// cells are suffixed with the color glyph.
    pub fn to_ascii_with_colors(&self, colors: Option<&ColorMatrix>) -> String {
        let n = self.dimension();
        let label_w = self.labels.max_label_width().max(2);
        let cell_w = 4;
        let mut out = String::new();
        // Header row.
        out.push_str(&" ".repeat(label_w + 1));
        for c in 0..n {
            let label = self.labels.get(c).unwrap_or("?");
            out.push_str(&format!("{label:>cell_w$}"));
        }
        out.push('\n');
        for r in 0..n {
            let label = self.labels.get(r).unwrap_or("?");
            out.push_str(&format!("{label:>label_w$} "));
            for c in 0..n {
                let v = self.values[r * n + c];
                let glyph = colors
                    .and_then(|cm| cm.get(r, c))
                    .filter(|color| *color != CellColor::Grey)
                    .map(|color| color.glyph());
                match (v, glyph) {
                    (0, None) => out.push_str(&format!("{:>cell_w$}", ".")),
                    (0, Some(g)) => out.push_str(&format!("{:>cell_w$}", g)),
                    (v, None) => out.push_str(&format!("{v:>cell_w$}")),
                    (v, Some(g)) => out.push_str(&format!("{:>cell_w$}", format!("{v}{g}"))),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 10×10 traffic matrix from the paper's template listing: ones on the
    /// diagonal and a 2-packet anti-diagonal.
    pub(crate) fn paper_template_matrix() -> TrafficMatrix {
        let mut grid = vec![vec![0u32; 10]; 10];
        for i in 0..10 {
            grid[i][i] = 1;
            grid[i][9 - i] = 2;
        }
        TrafficMatrix::from_grid(LabelSet::paper_default_10(), &grid).unwrap()
    }

    #[test]
    fn from_grid_and_accessors() {
        let m = paper_template_matrix();
        assert_eq!(m.dimension(), 10);
        assert_eq!(m.get(0, 0), Some(1));
        assert_eq!(m.get(0, 9), Some(2));
        assert_eq!(m.get(10, 0), None);
        // The question from the paper: "How many packets did WS1 send to ADV4?" → 2.
        let by_label = |s, d| m.get(m.labels().index_of(s)?, m.labels().index_of(d)?);
        assert_eq!(by_label("WS1", "ADV4"), Some(2));
        assert_eq!(by_label("WS1", "NOPE"), None);
        assert_eq!(m.total_packets(), 10 + 20);
        assert_eq!(m.nonzero_count(), 20);
        assert_eq!(m.max_value(), 2);
    }

    #[test]
    fn rejects_ragged_and_mislabelled_grids() {
        let labels = LabelSet::paper_default_6();
        assert!(TrafficMatrix::from_grid(labels.clone(), &vec![vec![0u32; 6]; 5]).is_err());
        let mut ragged = vec![vec![0u32; 6]; 6];
        ragged[3] = vec![0; 5];
        assert!(TrafficMatrix::from_grid(labels, &ragged).is_err());
    }

    #[test]
    fn set_add_and_bounds() {
        let mut m = TrafficMatrix::zeros(LabelSet::numeric(4));
        m.set(1, 2, 5).unwrap();
        m.add(1, 2, 3).unwrap();
        assert_eq!(m.get(1, 2), Some(8));
        assert!(m.set(4, 0, 1).is_err());
        assert!(m.set(0, 4, 1).is_err());
        assert!(m.add(9, 9, 1).is_err());
        m.set(0, 0, u32::MAX).unwrap();
        m.add(0, 0, 10).unwrap();
        assert_eq!(m.get(0, 0), Some(u32::MAX), "add must saturate");
    }

    #[test]
    fn degrees_and_fanout() {
        let m = paper_template_matrix();
        let out = m.out_degrees();
        let inn = m.in_degrees();
        assert_eq!(out, vec![3u64; 10]);
        assert_eq!(inn, vec![3u64; 10]);
        assert_eq!(m.out_fanout(), vec![2usize; 10]);
        assert_eq!(m.in_fanout(), vec![2usize; 10]);
    }

    #[test]
    fn transpose_and_symmetry() {
        let m = paper_template_matrix();
        assert!(m.is_symmetric());
        assert_eq!(m.transpose(), m);
        let mut asym = TrafficMatrix::zeros(LabelSet::numeric(3));
        asym.set(0, 1, 7).unwrap();
        assert!(!asym.is_symmetric());
        assert_eq!(asym.transpose().get(1, 0), Some(7));
        assert_eq!(asym.transpose().get(0, 1), Some(0));
    }

    #[test]
    fn combine_saturates_and_checks_labels() {
        let m = paper_template_matrix();
        let doubled = m.combine(&m).unwrap();
        assert_eq!(doubled.get(0, 0), Some(2));
        assert_eq!(doubled.total_packets(), 2 * m.total_packets());
        let other = TrafficMatrix::zeros(LabelSet::numeric(10));
        assert!(m.combine(&other).is_err(), "labels differ");
    }

    #[test]
    fn to_grid_round_trips() {
        let m = paper_template_matrix();
        let grid = m.to_grid();
        let rebuilt = TrafficMatrix::from_grid(m.labels().clone(), &grid).unwrap();
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn ascii_view_contains_labels_and_values() {
        let m = paper_template_matrix();
        let text = m.to_ascii();
        assert!(text.contains("WS1"));
        assert!(text.contains("ADV4"));
        assert!(text.lines().count() == 11);
        let colored = m.to_ascii_with_colors(Some(&ColorMatrix::from_label_classes(m.labels())));
        assert!(
            colored.contains("2r"),
            "blue→adv cells should carry the red glyph:\n{colored}"
        );
    }

    #[test]
    fn iter_nonzero_matches_counts() {
        let m = paper_template_matrix();
        let triples: Vec<_> = m.iter_nonzero().collect();
        assert_eq!(triples.len(), m.nonzero_count());
        assert!(triples.contains(&(0, 9, 2)));
        assert!(triples.contains(&(5, 5, 1)));
    }

    #[test]
    fn set_labels_validates_length() {
        let mut m = TrafficMatrix::zeros(LabelSet::numeric(6));
        assert!(m.set_labels(LabelSet::paper_default_6()).is_ok());
        assert!(m.set_labels(LabelSet::paper_default_10()).is_err());
        assert_eq!(m.labels().get(0), Some("WS1"));
    }
}
