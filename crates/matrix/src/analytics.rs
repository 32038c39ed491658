//! Traffic-matrix analytics: the vocabulary the learning modules teach.
//!
//! The paper's topology module teaches students to recognize isolated links,
//! single links, and internal/external supernodes; the attack and DDoS modules
//! teach cross-space traffic blocks. These functions compute those features
//! from a matrix so the quiz engine, the pattern classifier and the benchmarks
//! can check that a generated pattern actually exhibits the structure it
//! claims to show.

use crate::dense::TrafficMatrix;
use crate::labels::NodeClass;

/// Degree statistics for one matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeSummary {
    /// Packets sent per node (row sums).
    pub out_packets: Vec<u64>,
    /// Packets received per node (column sums).
    pub in_packets: Vec<u64>,
    /// Distinct destinations per node.
    pub out_fanout: Vec<usize>,
    /// Distinct sources per node.
    pub in_fanout: Vec<usize>,
    /// Maximum fanout (max of in/out) per node.
    pub max_fanout: Vec<usize>,
}

impl DegreeSummary {
    /// Compute the summary for a matrix.
    pub fn of(matrix: &TrafficMatrix) -> Self {
        let out_packets = matrix.out_degrees();
        let in_packets = matrix.in_degrees();
        let out_fanout = matrix.out_fanout();
        let in_fanout = matrix.in_fanout();
        let max_fanout = out_fanout
            .iter()
            .zip(in_fanout.iter())
            .map(|(&o, &i)| o.max(i))
            .collect();
        DegreeSummary {
            out_packets,
            in_packets,
            out_fanout,
            in_fanout,
            max_fanout,
        }
    }

    /// Indices of nodes whose fanout is at least `threshold` — the paper calls
    /// these supernodes. Threshold is a count of distinct peers.
    pub fn supernodes(&self, threshold: usize) -> Vec<usize> {
        self.max_fanout
            .iter()
            .enumerate()
            .filter(|(_, &f)| f >= threshold)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Classification of one non-zero link relative to the security spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Both endpoints inside the defended (blue) network.
    IntraBlue,
    /// Both endpoints in grey space.
    IntraGrey,
    /// Both endpoints in adversary (red) space.
    IntraRed,
    /// Blue → grey or grey → blue (the network border).
    BlueGreyBorder,
    /// Blue → red or red → blue (defended network touching the adversary).
    BlueRedContact,
    /// Grey → red or red → grey.
    GreyRedContact,
    /// A node sending traffic to itself.
    SelfLoop,
}

impl LinkClass {
    /// Classify a link given the classes of its endpoints.
    pub fn classify(source: NodeClass, destination: NodeClass, is_self: bool) -> LinkClass {
        if is_self {
            return LinkClass::SelfLoop;
        }
        use LinkClass::*;
        match (space(source), space(destination)) {
            (Space::Blue, Space::Blue) => IntraBlue,
            (Space::Grey, Space::Grey) => IntraGrey,
            (Space::Red, Space::Red) => IntraRed,
            (Space::Blue, Space::Grey) | (Space::Grey, Space::Blue) => BlueGreyBorder,
            (Space::Blue, Space::Red) | (Space::Red, Space::Blue) => BlueRedContact,
            (Space::Grey, Space::Red) | (Space::Red, Space::Grey) => GreyRedContact,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Space {
    Blue,
    Grey,
    Red,
}

fn space(class: NodeClass) -> Space {
    if class.is_blue() {
        Space::Blue
    } else if class.is_red() {
        Space::Red
    } else {
        Space::Grey
    }
}

/// A structural profile of one traffic matrix: everything the learning
/// modules ask students to read off the picture.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixProfile {
    /// Matrix dimension.
    pub dimension: usize,
    /// Total packets.
    pub total_packets: u64,
    /// Count of non-zero cells.
    pub nonzero_links: usize,
    /// Count of self-loop cells (diagonal non-zeros).
    pub self_loops: usize,
    /// Whether the non-zero pattern is symmetric.
    pub symmetric: bool,
    /// Degree summary.
    pub degrees: DegreeSummary,
    /// Per-class packet totals keyed by [`LinkClass`], in a fixed order:
    /// `[IntraBlue, IntraGrey, IntraRed, BlueGreyBorder, BlueRedContact, GreyRedContact, SelfLoop]`.
    pub packets_by_class: [u64; 7],
    /// Indices of isolated pairs: nodes exchanging traffic exclusively with one
    /// peer (the paper's "isolated links" topology).
    pub isolated_pairs: Vec<(usize, usize)>,
    /// Supernode indices at the default threshold (fanout ≥ 3).
    pub supernodes: Vec<usize>,
}

/// Default fanout threshold above which a node counts as a supernode.
pub const SUPERNODE_FANOUT_THRESHOLD: usize = 3;

impl MatrixProfile {
    /// Analyze a matrix.
    pub fn of(matrix: &TrafficMatrix) -> Self {
        let degrees = DegreeSummary::of(matrix);
        let classes = matrix.labels().classes();
        let mut packets_by_class = [0u64; 7];
        let mut self_loops = 0usize;
        for (r, c, v) in matrix.iter_nonzero() {
            let class = LinkClass::classify(classes[r], classes[c], r == c);
            packets_by_class[class_slot(class)] += v as u64;
            if r == c {
                self_loops += 1;
            }
        }
        let isolated_pairs = find_isolated_pairs(matrix, &degrees);
        let supernodes = degrees.supernodes(SUPERNODE_FANOUT_THRESHOLD);
        MatrixProfile {
            dimension: matrix.dimension(),
            total_packets: matrix.total_packets(),
            nonzero_links: matrix.nonzero_count(),
            self_loops,
            symmetric: matrix.is_symmetric(),
            degrees,
            packets_by_class,
            isolated_pairs,
            supernodes,
        }
    }

    /// Packets for one link class.
    pub fn packets_for(&self, class: LinkClass) -> u64 {
        self.packets_by_class[class_slot(class)]
    }
}

fn class_slot(class: LinkClass) -> usize {
    match class {
        LinkClass::IntraBlue => 0,
        LinkClass::IntraGrey => 1,
        LinkClass::IntraRed => 2,
        LinkClass::BlueGreyBorder => 3,
        LinkClass::BlueRedContact => 4,
        LinkClass::GreyRedContact => 5,
        LinkClass::SelfLoop => 6,
    }
}

/// Find pairs `(a, b)` with `a < b` where `a` and `b` exchange traffic (in
/// either direction) and neither node communicates with any third node.
fn find_isolated_pairs(matrix: &TrafficMatrix, degrees: &DegreeSummary) -> Vec<(usize, usize)> {
    let n = matrix.dimension();
    let mut pairs = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let ab = matrix.get(a, b).unwrap_or(0);
            let ba = matrix.get(b, a).unwrap_or(0);
            if ab == 0 && ba == 0 {
                continue;
            }
            // Every peer of a and of b must be within {a, b}.
            let a_exclusive = peers_within(matrix, a, &[a, b]);
            let b_exclusive = peers_within(matrix, b, &[a, b]);
            if a_exclusive && b_exclusive && degrees.max_fanout[a] > 0 && degrees.max_fanout[b] > 0
            {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

fn peers_within(matrix: &TrafficMatrix, node: usize, allowed: &[usize]) -> bool {
    let n = matrix.dimension();
    for other in 0..n {
        let touches =
            matrix.get(node, other).unwrap_or(0) > 0 || matrix.get(other, node).unwrap_or(0) > 0;
        if touches && !allowed.contains(&other) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packets on links that touch adversary space.
    fn red_contact(p: &MatrixProfile) -> u64 {
        [
            LinkClass::BlueRedContact,
            LinkClass::GreyRedContact,
            LinkClass::IntraRed,
        ]
        .into_iter()
        .map(|class| p.packets_for(class))
        .sum()
    }
    use crate::labels::LabelSet;

    fn paper_template() -> TrafficMatrix {
        let mut grid = vec![vec![0u32; 10]; 10];
        for i in 0..10 {
            grid[i][i] = 1;
            grid[i][9 - i] = 2;
        }
        TrafficMatrix::from_grid(LabelSet::paper_default_10(), &grid).unwrap()
    }

    #[test]
    fn degree_summary_and_supernodes() {
        let mut m = TrafficMatrix::zeros(LabelSet::numeric(6));
        // Node 0 talks to 1,2,3,4 → supernode; others have fanout ≤ 2.
        for dst in 1..5 {
            m.set(0, dst, 1).unwrap();
        }
        let d = DegreeSummary::of(&m);
        assert_eq!(d.out_packets[0], 4);
        assert_eq!(d.out_fanout[0], 4);
        assert_eq!(d.in_fanout[1], 1);
        assert_eq!(d.max_fanout[0], 4);
        assert_eq!(d.supernodes(3), vec![0]);
        assert_eq!(d.supernodes(5), Vec::<usize>::new());
    }

    #[test]
    fn link_classification_covers_spaces() {
        use NodeClass::*;
        assert_eq!(
            LinkClass::classify(Workstation, Server, false),
            LinkClass::IntraBlue
        );
        assert_eq!(
            LinkClass::classify(External, External, false),
            LinkClass::IntraGrey
        );
        assert_eq!(
            LinkClass::classify(Adversary, Adversary, false),
            LinkClass::IntraRed
        );
        assert_eq!(
            LinkClass::classify(Workstation, External, false),
            LinkClass::BlueGreyBorder
        );
        assert_eq!(
            LinkClass::classify(External, Server, false),
            LinkClass::BlueGreyBorder
        );
        assert_eq!(
            LinkClass::classify(Workstation, Adversary, false),
            LinkClass::BlueRedContact
        );
        assert_eq!(
            LinkClass::classify(Adversary, Server, false),
            LinkClass::BlueRedContact
        );
        assert_eq!(
            LinkClass::classify(External, Adversary, false),
            LinkClass::GreyRedContact
        );
        assert_eq!(
            LinkClass::classify(Workstation, Workstation, true),
            LinkClass::SelfLoop
        );
    }

    #[test]
    fn profile_of_paper_template() {
        let m = paper_template();
        let p = MatrixProfile::of(&m);
        assert_eq!(p.dimension, 10);
        assert_eq!(p.total_packets, 30);
        assert_eq!(p.nonzero_links, 20);
        assert_eq!(p.self_loops, 10);
        assert!(p.symmetric);
        assert!(red_contact(&p) > 0);
        // The anti-diagonal blue↔adv contacts: rows 0-3 ↔ cols 6-9 both directions, 2 packets each.
        assert_eq!(p.packets_for(LinkClass::BlueRedContact), 16);
        assert_eq!(p.packets_for(LinkClass::SelfLoop), 10);
        assert_eq!(p.packets_for(LinkClass::IntraBlue), 0);
        // EXT1↔EXT2 anti-diagonal contact is intra-grey.
        assert_eq!(p.packets_for(LinkClass::IntraGrey), 4);
    }

    #[test]
    fn isolated_pairs_detected() {
        let mut m = TrafficMatrix::zeros(LabelSet::numeric(6));
        m.set(0, 1, 2).unwrap();
        m.set(1, 0, 2).unwrap();
        m.set(2, 3, 1).unwrap();
        // Node 4 talks to 5 but 5 also talks to 0 → not isolated.
        m.set(4, 5, 1).unwrap();
        m.set(5, 0, 1).unwrap();
        let p = MatrixProfile::of(&m);
        assert!(
            !p.isolated_pairs.contains(&(0, 1)),
            "0 has a third peer (5→0)"
        );
        assert!(p.isolated_pairs.contains(&(2, 3)));
        assert!(!p.isolated_pairs.contains(&(4, 5)));
    }

    #[test]
    fn empty_matrix_profile() {
        let m = TrafficMatrix::zeros(LabelSet::numeric(4));
        let p = MatrixProfile::of(&m);
        assert_eq!(p.total_packets, 0);
        assert_eq!(p.nonzero_links, 0);
        assert_eq!(red_contact(&p), 0);
        assert!(p.isolated_pairs.is_empty());
        assert!(p.supernodes.is_empty());
        assert!(p.symmetric);
    }
}
