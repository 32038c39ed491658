//! The notional cyber attack stages (paper Fig. 7).
//!
//! "First is the planning stage, which is done in adversarial space. Second is
//! staging, which takes place in greyspace. Third is the infiltration stage,
//! which happens at the border between grey and blue space. The final stage is
//! lateral movement, which happens inside blue space."

// tw-analyze: allow-file(no-panic-in-lib, "static figure construction: attack patterns are built from hand-written literals and every pattern is round-tripped by the catalog tests")
use crate::{Pattern, DEFAULT_PACKETS};
use tw_matrix::{ColorMatrix, LabelSet, TrafficMatrix};

/// Hint references attached to the attack patterns (references [51], [52]).
pub const ATTACK_HINT: &str =
    "Kepner, 'Beyond Zero Botnets' (TEDxBoston 2022); Kepner et al., 'Zero Botnets: An Observe-Pursue-Counter Approach' (Belfer Center 2021)";

fn base() -> (LabelSet, TrafficMatrix, ColorMatrix) {
    let labels = LabelSet::paper_default_10();
    let matrix = TrafficMatrix::zeros(labels.clone());
    let colors = ColorMatrix::from_label_classes(&labels);
    (labels, matrix, colors)
}

/// Fig. 7a — planning: coordination traffic entirely within adversarial space.
pub fn planning() -> Pattern {
    let (labels, mut m, colors) = base();
    let adv = labels.red_indices();
    for &a in &adv {
        for &b in &adv {
            if a != b {
                m.set(a, b, 1).unwrap();
            }
        }
    }
    Pattern::new(
        "attack/planning",
        "Planning",
        "Planning",
        "All of the traffic stays inside adversarial (red) space: the attackers are coordinating among themselves before touching anyone else.",
        Some(ATTACK_HINT),
        m,
        colors,
    )
}

/// Fig. 7b — staging: adversaries push tooling into grey space.
pub fn staging() -> Pattern {
    let (labels, mut m, colors) = base();
    for &adv in &labels.red_indices() {
        for &ext in &labels.grey_indices() {
            m.set(adv, ext, DEFAULT_PACKETS).unwrap();
        }
    }
    Pattern::new(
        "attack/staging",
        "Staging",
        "Staging",
        "Traffic flows from adversarial space into neutral grey space as the attackers stage infrastructure closer to the target.",
        Some(ATTACK_HINT),
        m,
        colors,
    )
}

/// Fig. 7c — infiltration: traffic crosses the grey/blue border into the
/// defended network.
pub fn infiltration() -> Pattern {
    let (labels, mut m, colors) = base();
    for &ext in &labels.grey_indices() {
        for &blue in &labels.blue_indices() {
            m.set(ext, blue, DEFAULT_PACKETS).unwrap();
        }
    }
    Pattern::new(
        "attack/infiltration",
        "Infiltration",
        "Infiltration",
        "Traffic crosses the border from grey space into blue space as the staged infrastructure breaches the defended network.",
        Some(ATTACK_HINT),
        m,
        colors,
    )
}

/// Fig. 7d — lateral movement: activity spreads node-to-node inside blue space.
pub fn lateral_movement() -> Pattern {
    let (labels, mut m, colors) = base();
    let blue = labels.blue_indices();
    for &a in &blue {
        for &b in &blue {
            if a != b {
                m.set(a, b, 1).unwrap();
            }
        }
    }
    Pattern::new(
        "attack/lateral_movement",
        "Lateral Movement",
        "Lateral movement",
        "The traffic is entirely inside blue space: a foothold is spreading from machine to machine within the defended network.",
        Some(ATTACK_HINT),
        m,
        colors,
    )
}

/// All four stages of Fig. 7 in attack order.
pub fn all() -> Vec<Pattern> {
    vec![planning(), staging(), infiltration(), lateral_movement()]
}

/// The composite picture the paper suggests: "they could all be combined
/// together … for a student to analyze and determine what is happening".
pub fn combined() -> Pattern {
    let stages = all();
    let mut matrix = stages[0].matrix.clone();
    for stage in &stages[1..] {
        matrix = matrix.combine(&stage.matrix).expect("stages share labels");
    }
    let colors = stages[0].colors.clone();
    Pattern::new(
        "attack/combined",
        "Combined Attack",
        "A multi-stage cyber attack",
        "All four stages overlaid: planning in red space, staging into grey space, infiltration across the border and lateral movement inside blue space.",
        Some(ATTACK_HINT),
        matrix,
        colors,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_matrix::{LinkClass, MatrixProfile};

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

    #[test]
    fn planning_stays_in_red_space() {
        let p = planning();
        let profile = MatrixProfile::of(&p.matrix);
        assert_eq!(
            profile.packets_for(LinkClass::IntraRed),
            p.matrix.total_packets()
        );
        assert_eq!(profile.packets_for(LinkClass::BlueRedContact), 0);
        assert_eq!(profile.self_loops, 0);
    }

    #[test]
    fn staging_is_red_to_grey_only() {
        let p = staging();
        let profile = MatrixProfile::of(&p.matrix);
        assert_eq!(
            profile.packets_for(LinkClass::GreyRedContact),
            p.matrix.total_packets()
        );
        // 4 adversaries × 2 externals × 2 packets.
        assert_eq!(p.matrix.total_packets(), 16);
    }

    #[test]
    fn infiltration_crosses_the_border() {
        let p = infiltration();
        let profile = MatrixProfile::of(&p.matrix);
        assert_eq!(
            profile.packets_for(LinkClass::BlueGreyBorder),
            p.matrix.total_packets()
        );
        // Every flow originates in grey space.
        for (r, _, _) in p.matrix.iter_nonzero() {
            assert!(p.matrix.labels().grey_indices().contains(&r));
        }
    }

    #[test]
    fn lateral_movement_stays_in_blue_space() {
        let p = lateral_movement();
        let profile = MatrixProfile::of(&p.matrix);
        assert_eq!(
            profile.packets_for(LinkClass::IntraBlue),
            p.matrix.total_packets()
        );
        assert_eq!(red_contact(&profile), 0);
    }

    #[test]
    fn stages_are_disjoint_and_combine_losslessly() {
        let stages = all();
        // No two stages share a non-zero cell: each stage lives in its own block.
        for i in 0..stages.len() {
            for j in (i + 1)..stages.len() {
                for (r, c, _) in stages[i].matrix.iter_nonzero() {
                    assert_eq!(
                        stages[j].matrix.get(r, c),
                        Some(0),
                        "stage {i} and {j} overlap at ({r},{c})"
                    );
                }
            }
        }
        let total: u64 = stages.iter().map(|s| s.matrix.total_packets()).sum();
        assert_eq!(combined().matrix.total_packets(), total);
    }

    #[test]
    fn stage_order_matches_figure() {
        let names: Vec<String> = all().into_iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec!["Planning", "Staging", "Infiltration", "Lateral Movement"]
        );
    }
}
