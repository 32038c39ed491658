//! Security, defense and deterrence postures (paper Fig. 8).
//!
//! "A key concept in the protection of any domain is the distinction between
//! (walls-in) security, (walls-out) defense, and deterrence."

// tw-analyze: allow-file(no-panic-in-lib, "static figure construction: posture patterns are built from hand-written literals and every pattern is round-tripped by the catalog tests")
use crate::{Pattern, DEFAULT_PACKETS};
use tw_matrix::{ColorMatrix, LabelSet, TrafficMatrix};

/// Hint references for the posture patterns (references [51], [52]).
pub const POSTURE_HINT: &str =
    "Kepner, 'Beyond Zero Botnets' (TEDxBoston 2022); Kepner et al., 'Zero Botnets: An Observe-Pursue-Counter Approach' (Belfer Center 2021)";

fn base() -> (LabelSet, TrafficMatrix, ColorMatrix) {
    let labels = LabelSet::paper_default_10();
    let matrix = TrafficMatrix::zeros(labels.clone());
    let colors = ColorMatrix::from_label_classes(&labels);
    (labels, matrix, colors)
}

/// Fig. 8a — security (walls-in): monitoring traffic within one's own blue space.
pub fn security() -> Pattern {
    let (labels, mut m, colors) = base();
    let blue = labels.blue_indices();
    // Workstations talk to the server and to each other; nothing leaves blue space.
    let srv = labels.index_of("SRV1").expect("SRV1 exists");
    for &ws in &blue {
        if ws != srv {
            m.set(ws, srv, DEFAULT_PACKETS).unwrap();
            m.set(srv, ws, 1).unwrap();
        }
    }
    m.set(0, 1, 1).unwrap();
    m.set(1, 0, 1).unwrap();
    Pattern::new(
        "posture/security",
        "Security",
        "Security (walls-in)",
        "Traffic is operating entirely within the defended blue space: the organization is watching its own systems and ensuring no adversarial activity inside its walls.",
        Some(POSTURE_HINT),
        m,
        colors,
    )
}

/// Fig. 8b — defense (walls-out): stepping outside the network to identify
/// threats before they arrive.
pub fn defense() -> Pattern {
    let (labels, mut m, colors) = base();
    // Blue space exchanges telemetry with grey-space community sensors, and the
    // community observes adversarial staging before it reaches blue space.
    for &blue in &labels.blue_indices() {
        for &ext in &labels.grey_indices() {
            m.set(blue, ext, 1).unwrap();
            m.set(ext, blue, 1).unwrap();
        }
    }
    for &adv in &labels.red_indices() {
        m.set(adv, 4, DEFAULT_PACKETS).unwrap(); // adversary probes seen by EXT1
    }
    Pattern::new(
        "posture/defense",
        "Defense",
        "Defense (walls-out)",
        "The defenders step outside their own network: community sensors in grey space share observations, revealing adversary activity before it reaches blue space.",
        Some(POSTURE_HINT),
        m,
        colors,
    )
}

/// Fig. 8c — deterrence: credible activity in adversary space in response to
/// unacceptable actions.
pub fn deterrence() -> Pattern {
    let (labels, mut m, colors) = base();
    // The precipitating adversarial action against blue space…
    m.set(6, 0, 1).unwrap();
    m.set(6, 3, 1).unwrap();
    // …and the credible response activity inside adversary space.
    for &blue in &labels.blue_indices() {
        m.set(blue, 6, DEFAULT_PACKETS).unwrap();
    }
    for &adv in &[7usize, 8, 9] {
        m.set(6, adv, 1).unwrap();
    }
    Pattern::new(
        "posture/deterrence",
        "Deterrence",
        "Deterrence",
        "Credible activity appears in adversary space as a response to unacceptable actions taken against the defended network, making further aggression costly.",
        Some(POSTURE_HINT),
        m,
        colors,
    )
}

/// All three panels of Fig. 8 in figure order.
pub fn all() -> Vec<Pattern> {
    vec![security(), defense(), deterrence()]
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
    fn security_never_leaves_blue_space() {
        let p = security();
        let profile = MatrixProfile::of(&p.matrix);
        assert_eq!(
            profile.packets_for(LinkClass::IntraBlue),
            p.matrix.total_packets()
        );
        assert_eq!(red_contact(&profile), 0);
    }

    #[test]
    fn defense_reaches_into_grey_space_but_not_red() {
        let p = defense();
        let profile = MatrixProfile::of(&p.matrix);
        assert!(profile.packets_for(LinkClass::BlueGreyBorder) > 0);
        assert!(
            profile.packets_for(LinkClass::GreyRedContact) > 0,
            "community sensors observe the adversary"
        );
        assert_eq!(
            profile.packets_for(LinkClass::BlueRedContact),
            0,
            "defense does not touch red space directly"
        );
    }

    #[test]
    fn deterrence_shows_activity_in_adversary_space() {
        let p = deterrence();
        let profile = MatrixProfile::of(&p.matrix);
        assert!(profile.packets_for(LinkClass::BlueRedContact) > 0);
        assert!(profile.packets_for(LinkClass::IntraRed) > 0);
    }

    #[test]
    fn posture_order_matches_figure() {
        let names: Vec<String> = all().into_iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["Security", "Defense", "Deterrence"]);
    }

    #[test]
    fn postures_are_distinguishable_by_red_contact() {
        let s = MatrixProfile::of(&security().matrix);
        let d = MatrixProfile::of(&defense().matrix);
        let t = MatrixProfile::of(&deterrence().matrix);
        assert_eq!(red_contact(&s), 0);
        assert!(red_contact(&d) > 0);
        assert!(
            t.packets_for(LinkClass::BlueRedContact) > d.packets_for(LinkClass::BlueRedContact)
        );
    }
}
